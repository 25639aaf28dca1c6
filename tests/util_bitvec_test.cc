/**
 * @file
 * Unit tests for the BitVec container, including its packed-stream
 * operations against a std::vector<bool> model: word-shift appends at
 * every source and destination alignment, shifted range compares,
 * equality and the pack / sparse unpack round trip.
 */

#include <gtest/gtest.h>

#include <vector>

#include "util/bitvec.hh"
#include "util/rng.hh"

namespace spm
{
namespace
{

TEST(BitVec, StartsEmpty)
{
    BitVec v;
    EXPECT_EQ(v.size(), 0u);
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, ConstructFilled)
{
    BitVec zeros(100, false);
    EXPECT_EQ(zeros.size(), 100u);
    EXPECT_EQ(zeros.popcount(), 0u);

    BitVec ones(100, true);
    EXPECT_EQ(ones.popcount(), 100u);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_TRUE(ones.get(i));
}

TEST(BitVec, SetAndGet)
{
    BitVec v(130);
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(1));
    EXPECT_FALSE(v.get(63));
    EXPECT_EQ(v.popcount(), 3u);

    v.set(64, false);
    EXPECT_FALSE(v.get(64));
    EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVec, PushBackCrossesWordBoundary)
{
    BitVec v;
    for (int i = 0; i < 70; ++i)
        v.pushBack(i % 3 == 0);
    EXPECT_EQ(v.size(), 70u);
    for (int i = 0; i < 70; ++i)
        EXPECT_EQ(v.get(i), i % 3 == 0) << "bit " << i;
}

TEST(BitVec, FromStringAndToString)
{
    const std::string s = "0110100101";
    BitVec v = BitVec::fromString(s);
    EXPECT_EQ(v.toString(), s);
    EXPECT_EQ(v.popcount(), 5u);
}

TEST(BitVec, FromStringRejectsJunk)
{
    EXPECT_THROW(BitVec::fromString("01a"), std::logic_error);
}

TEST(BitVec, FindFirst)
{
    BitVec v(200);
    EXPECT_EQ(v.findFirst(), 200u);
    v.set(131, true);
    EXPECT_EQ(v.findFirst(), 131u);
    v.set(7, true);
    EXPECT_EQ(v.findFirst(), 7u);
}

TEST(BitVec, LogicalOperators)
{
    BitVec a = BitVec::fromString("1100");
    BitVec b = BitVec::fromString("1010");
    EXPECT_EQ((a & b).toString(), "1000");
    EXPECT_EQ((a | b).toString(), "1110");
    EXPECT_EQ((a ^ b).toString(), "0110");
}

TEST(BitVec, SizeMismatchPanics)
{
    BitVec a(4), b(5);
    EXPECT_THROW(a &= b, std::logic_error);
}

TEST(BitVec, FlipRespectsTail)
{
    BitVec v(66, false);
    v.flip();
    EXPECT_EQ(v.popcount(), 66u);
    v.flip();
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, ResizeGrowsWithValue)
{
    BitVec v(10, false);
    v.resize(80, true);
    EXPECT_EQ(v.size(), 80u);
    EXPECT_EQ(v.popcount(), 70u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_FALSE(v.get(i));
    for (std::size_t i = 10; i < 80; ++i)
        EXPECT_TRUE(v.get(i));
}

TEST(BitVec, ResizeShrinkDropsBits)
{
    BitVec v(80, true);
    v.resize(5);
    EXPECT_EQ(v.size(), 5u);
    EXPECT_EQ(v.popcount(), 5u);
}

TEST(BitVec, EqualityIncludesLength)
{
    EXPECT_EQ(BitVec::fromString("101"), BitVec::fromString("101"));
    EXPECT_FALSE(BitVec::fromString("101") == BitVec::fromString("1010"));
}

TEST(BitVec, OutOfRangeAccessPanics)
{
    BitVec v(8);
    EXPECT_THROW(v.get(8), std::logic_error);
    EXPECT_THROW(v.set(9, true), std::logic_error);
}

std::vector<bool>
randomBits(Rng &rng, std::size_t n, double p = 0.5)
{
    std::vector<bool> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = rng.nextBool(p);
    return v;
}

TEST(BitVec, PackUnpackRoundTrip)
{
    Rng rng(0xB17);
    for (std::size_t n = 0; n <= 200; ++n) {
        const std::vector<bool> model = randomBits(rng, n, 0.3);
        const BitVec v = BitVec::pack(model);
        ASSERT_EQ(v.size(), n);
        std::vector<bool> back(7, true); // unpack must resize and clear
        v.unpack(back);
        EXPECT_EQ(back, model) << "n=" << n;
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(v.get(i), model[i]) << "n=" << n << " i=" << i;
    }
}

TEST(BitVec, UnpackFromAnyStartWritesExactlyTheHits)
{
    // unpackResultBits from an arbitrary start, as the dictionary sweep
    // uses it on its packed rows.
    Rng rng(0x5E7);
    for (const double p : {0.0, 0.01, 0.3, 1.0}) {
        for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 200u, 1000u}) {
            const std::vector<bool> model = randomBits(rng, n, p);
            const BitVec v = BitVec::pack(model);
            for (const std::size_t from : {std::size_t(0), n / 3, n}) {
                std::vector<bool> tail;
                const std::uint64_t hits =
                    unpackResultBits(v.data(), from, n, tail);
                EXPECT_EQ(tail, std::vector<bool>(model.begin() + from,
                                                  model.end()))
                    << "n=" << n << " p=" << p << " from=" << from;
                std::uint64_t want_hits = 0;
                for (bool b : tail)
                    want_hits += b ? 1 : 0;
                EXPECT_EQ(hits, want_hits);
            }
        }
    }
}

TEST(BitVec, UnpackIgnoresBitsPastTheEnd)
{
    // A stream's segment of a longer packed text, as the batch matcher
    // extracts it: set bits past n in the last word belong to the next
    // stream and must not leak into the result.
    Rng rng(0xE4D);
    for (const double p : {0.0, 0.3, 1.0}) {
        const std::vector<bool> model = randomBits(rng, 300, p);
        const BitVec v = BitVec::pack(model);
        for (const std::size_t from : {0u, 5u, 64u, 130u})
            for (const std::size_t n : {from, from + 1, std::size_t(64),
                                        std::size_t(127), std::size_t(191),
                                        std::size_t(299)}) {
                if (n < from)
                    continue;
                std::vector<bool> seg;
                const std::uint64_t hits =
                    unpackResultBits(v.data(), from, n, seg);
                const std::vector<bool> want(model.begin() + from,
                                             model.begin() + n);
                EXPECT_EQ(seg, want) << "p=" << p << " from=" << from
                                     << " n=" << n;
                std::uint64_t want_hits = 0;
                for (bool b : want)
                    want_hits += b ? 1 : 0;
                EXPECT_EQ(hits, want_hits);
            }
    }
    // All ones past the end: nothing of it shows.
    const std::uint64_t ones[2] = {~std::uint64_t(0), ~std::uint64_t(0)};
    std::vector<bool> out;
    EXPECT_EQ(unpackResultBits(ones, 60, 70, out), 10u);
    EXPECT_EQ(out, std::vector<bool>(10, true));
    EXPECT_EQ(unpackResultBits(ones, 0, 3, out), 3u);
    EXPECT_EQ(out, std::vector<bool>(3, true));
}

TEST(BitVec, AssignWordsClearsTheSlack)
{
    const std::uint64_t raw[2] = {~std::uint64_t(0), ~std::uint64_t(0)};
    BitVec v;
    v.assignWords(raw, 100);
    EXPECT_EQ(v, BitVec::pack(std::vector<bool>(100, true)));
    EXPECT_EQ(v.data()[1], (std::uint64_t(1) << 36) - 1);
}

TEST(BitVec, PackedEqualityIsLengthAndBits)
{
    const std::vector<bool> a = {true, false, true};
    EXPECT_EQ(BitVec::pack(a), BitVec::pack(a));
    EXPECT_FALSE(BitVec::pack(a) == BitVec::pack({true, false, false}));
    // Same words, different length.
    EXPECT_FALSE(BitVec::pack(a) == BitVec::pack({true, false, true, false}));
    EXPECT_EQ(BitVec(), BitVec::pack({}));
    EXPECT_EQ(BitVec(70, true), BitVec::pack(std::vector<bool>(70, true)));
}

TEST(BitVec, AppendAtEveryAlignment)
{
    Rng rng(0xA11);
    const std::vector<bool> srcModel = randomBits(rng, 300);
    const BitVec src = BitVec::pack(srcModel);
    for (std::size_t dst_off = 0; dst_off < 128; ++dst_off) {
        const std::vector<bool> prefix = randomBits(rng, dst_off);
        for (std::size_t from = 0; from < 128; ++from) {
            for (const std::size_t len :
                 {std::size_t(0), std::size_t(1), std::size_t(63),
                  std::size_t(64), std::size_t(65), std::size_t(129),
                  std::size_t(172)}) {
                BitVec dst = BitVec::pack(prefix);
                dst.append(src, from, len);
                std::vector<bool> model = prefix;
                model.insert(model.end(), srcModel.begin() + from,
                             srcModel.begin() + from + len);
                ASSERT_EQ(dst, BitVec::pack(model))
                    << "dst_off=" << dst_off << " from=" << from
                    << " len=" << len;
            }
        }
    }
}

TEST(BitVec, RepeatedAppendsBuildTheConcatenation)
{
    // The chunk carry: many appends of a window's tail in a row.
    Rng rng(0xCA7);
    BitVec acc;
    std::vector<bool> model;
    for (int i = 0; i < 200; ++i) {
        const std::size_t n = 1 + rng.nextBelow(150);
        const std::size_t skip = rng.nextBelow(n);
        const std::vector<bool> window = randomBits(rng, n, 0.2);
        acc.append(BitVec::pack(window), skip, n - skip);
        model.insert(model.end(), window.begin() + skip, window.end());
    }
    EXPECT_EQ(acc, BitVec::pack(model));
}

TEST(BitVec, RangeEqualsComparesShiftedWords)
{
    Rng rng(0xE0);
    const std::vector<bool> base = randomBits(rng, 400);
    const BitVec a = BitVec::pack(base);
    for (std::size_t pa = 0; pa < 128; pa += 3) {
        for (std::size_t pb = 0; pb < 128; pb += 5) {
            const std::size_t len = 1 + (pa * 7 + pb) % 200;
            // b holds a's range [pa, pa+len) at offset pb.
            std::vector<bool> bm = randomBits(rng, pb);
            bm.insert(bm.end(), base.begin() + pa, base.begin() + pa + len);
            const std::vector<bool> tail = randomBits(rng, 70);
            bm.insert(bm.end(), tail.begin(), tail.end());
            BitVec b = BitVec::pack(bm);
            EXPECT_TRUE(a.rangeEquals(pa, b, pb, len));
            EXPECT_TRUE(b.rangeEquals(pb, a, pa, len));
            const std::size_t j = (pa + pb) % len;
            b.set(pb + j, !b.get(pb + j));
            EXPECT_FALSE(a.rangeEquals(pa, b, pb, len))
                << "pa=" << pa << " pb=" << pb << " len=" << len
                << " flipped " << j;
        }
    }
    EXPECT_TRUE(a.rangeEquals(400, a, 0, 0));
}

TEST(BitVec, WordAtReadsZeroPastTheEnd)
{
    const BitVec v(70, true);
    EXPECT_EQ(v.wordAt(0), ~std::uint64_t(0));
    EXPECT_EQ(v.wordAt(10), (std::uint64_t(1) << 60) - 1);
    EXPECT_EQ(v.wordAt(69), 1u);
    EXPECT_EQ(v.wordAt(70), 0u);
    EXPECT_EQ(v.wordAt(500), 0u);
}

} // namespace
} // namespace spm
