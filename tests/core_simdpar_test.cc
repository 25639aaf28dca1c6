/**
 * @file
 * Property tests for the bit-sliced matcher: every supported tier
 * bit-identical to the reference across pattern lengths 1..64 (the
 * fused short path) and beyond (the sweep path), wildcard densities
 * and alphabet widths, plus the packed-word, effort, arena-reuse and
 * forced-tier dispatch invariants the sharded service, the batch
 * layer and the benches rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/reference.hh"
#include "core/simdpar.hh"
#include "tests/helpers.hh"

namespace spm::core
{
namespace
{

std::vector<SimdIsa>
supportedTiers()
{
    std::vector<SimdIsa> tiers{SimdIsa::Scalar};
    if (simdIsaSupported(SimdIsa::Sse2))
        tiers.push_back(SimdIsa::Sse2);
    return tiers;
}

TEST(SimdParallel, PaperExample)
{
    SimdParallelMatcher sp;
    ReferenceMatcher ref;
    const auto text = test::paperText();
    const auto pattern = test::paperPattern();
    EXPECT_EQ(sp.match(text, pattern), ref.match(text, pattern));
}

TEST(SimdParallel, DegenerateShapes)
{
    SimdParallelMatcher sp;
    const std::vector<Symbol> text{1, 2, 3};
    EXPECT_EQ(sp.match(text, {}), std::vector<bool>(3, false));
    EXPECT_EQ(sp.match({}, {1}), std::vector<bool>());
    // Pattern longer than the text never matches.
    EXPECT_EQ(sp.match(text, {1, 2, 3, 1}), std::vector<bool>(3, false));
}

TEST(SimdParallel, EveryTierEveryShortLengthMatchesReference)
{
    ReferenceMatcher ref;
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher sp(isa);
        for (std::size_t k = 1; k <= 64; ++k) {
            const auto w = test::makeShapedWorkload(
                0x51D0 + k, 2, 192 + 3 * k, k, 20);
            EXPECT_EQ(sp.match(w.text, w.pattern),
                      ref.match(w.text, w.pattern))
                << simdIsaName(isa) << " k=" << k << " case "
                << w.caseId;
            EXPECT_TRUE(sp.lastShortPath()) << "k=" << k;
        }
        // All-wildcard patterns match every full window, on both the
        // short and the sweep path.
        const auto text =
            test::makeShapedWorkload(0xA11, 2, 150, 5, 0).text;
        for (const std::size_t k :
             {std::size_t(1), std::size_t(5), std::size_t(70)}) {
            const std::vector<Symbol> pattern(k, wildcardSymbol);
            EXPECT_EQ(sp.match(text, pattern), ref.match(text, pattern))
                << simdIsaName(isa) << " all-wild k=" << k;
        }
    }
}

TEST(SimdParallel, LongPatternsTakeTheSweepPath)
{
    ReferenceMatcher ref;
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher sp(isa);
        for (const std::size_t k :
             {std::size_t(65), std::size_t(96), std::size_t(100),
              std::size_t(130), std::size_t(257)}) {
            // A 3-bit alphabet with sparse wild cards, and a 2-bit one
            // with dense wild cards on a text barely three patterns
            // long.
            for (const auto &w :
                 {test::makeShapedWorkload(0x10C0 + k, 3, 600 + 2 * k, k,
                                           15),
                  test::makeShapedWorkload(0x10AD + k, 2, k * 3 + 17, k,
                                           25)}) {
                EXPECT_EQ(sp.match(w.text, w.pattern),
                          ref.match(w.text, w.pattern))
                    << simdIsaName(isa) << " k=" << k << " case "
                    << w.caseId;
                EXPECT_FALSE(sp.lastShortPath()) << "k=" << k;
            }
        }
    }
}

TEST(SimdParallel, WideAlphabetsMatchReference)
{
    // Alphabets beyond 8 bits take the wide transpose (one plane per
    // symbol bit, no byte narrowing).
    ReferenceMatcher ref;
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher sp(isa);
        for (const BitWidth bits : {BitWidth(9), BitWidth(12),
                                    BitWidth(15)}) {
            const auto w =
                test::makeShapedWorkload(0xA1F0 + bits, bits, 400, 9, 15);
            EXPECT_EQ(sp.match(w.text, w.pattern),
                      ref.match(w.text, w.pattern))
                << simdIsaName(isa) << " bits=" << int(bits) << " case "
                << w.caseId;
        }
    }
}

TEST(SimdParallel, RandomizedSweepAgainstReference)
{
    ReferenceMatcher ref;
    SimdParallelMatcher sp;
    for (std::uint64_t i = 0; i < 250; ++i) {
        const auto w = test::makeWorkload(i);
        EXPECT_EQ(sp.match(w.text, w.pattern),
                  ref.match(w.text, w.pattern))
            << "case " << w.caseId;
    }
}

TEST(SimdParallel, ArenaStabilizesAcrossCalls)
{
    SimdParallelMatcher sp;
    const auto w = test::makeShapedWorkload(0xAE4A, 2, 4096, 12, 10);
    sp.match(w.text, w.pattern);
    const std::size_t high = sp.arenaBytes();
    EXPECT_GT(high, 0u);
    for (int i = 0; i < 5; ++i)
        sp.match(w.text, w.pattern);
    // Same shape, same scratch: steady state allocates nothing new.
    EXPECT_EQ(sp.arenaBytes(), high);
}

TEST(SimdParallel, ForcedTierIsClampedAndNamed)
{
    SimdParallelMatcher scalar(SimdIsa::Scalar);
    EXPECT_EQ(scalar.isa(), SimdIsa::Scalar);
    EXPECT_EQ(scalar.name(), "simd-parallel-scalar");

    SimdParallelMatcher best;
    EXPECT_EQ(best.name(), "simd-parallel");
    EXPECT_TRUE(simdIsaSupported(best.isa()));

    // A forced tier runs if the CPU has it, else clamps to scalar.
    SimdParallelMatcher forced(SimdIsa::Sse2);
    EXPECT_EQ(forced.isa(), simdIsaSupported(SimdIsa::Sse2)
                                ? SimdIsa::Sse2
                                : SimdIsa::Scalar);
    EXPECT_EQ(forced.name(),
              std::string("simd-parallel-") + simdIsaName(forced.isa()));
}

TEST(SimdParallel, PackedWordsAgreeAndEffortIsBounded)
{
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher sp(isa);
        // Texts one short of, exactly, and one past a word, plus
        // multi-word texts with a partial last word.
        for (const std::size_t n :
             {std::size_t(63), std::size_t(64), std::size_t(65),
              std::size_t(190), std::size_t(500)}) {
            const auto w = test::makeShapedWorkload(0xBEEF + n, 3, n, 7,
                                                    10);
            const std::vector<std::uint64_t> packed =
                sp.matchPacked(w.text, w.pattern);
            ASSERT_EQ(packed.size(), (n + 63) / 64);
            const std::vector<bool> want = sp.match(w.text, w.pattern);
            std::vector<bool> bits;
            EXPECT_EQ(unpackResultBits(packed.data(), 0, n, bits),
                      static_cast<std::uint64_t>(
                          std::count(want.begin(), want.end(), true)));
            EXPECT_EQ(bits, want) << simdIsaName(isa) << " n=" << n;
            // Slack bits past position n-1 must stay zero: the sharded
            // and batch layers OR whole words without re-masking.
            if (n % 64 != 0) {
                EXPECT_EQ(packed.back() >> (n % 64), 0u)
                    << simdIsaName(isa) << " n=" << n;
            }
        }
        // Word ops must be far below the n*k bit operations the
        // scalar reference performs -- the whole point of the kernel.
        const auto w = test::makeShapedWorkload(0xEFF, 8, 10'000, 16, 0);
        sp.matchPacked(w.text, w.pattern);
        EXPECT_GE(sp.lastPlanes(), 1u);
        EXPECT_LE(sp.lastPlanes(), 8u);
        EXPECT_GT(sp.lastWordOps(), 0u);
        EXPECT_LT(sp.lastWordOps(), 10'000u * 16u / 4u) << simdIsaName(isa);
    }
}

TEST(SimdParallel, MatchIntoAgreesWithMatch)
{
    // The packed stream straight from the arena, the reference's
    // in-place evaluation and the base class's pack of match() agree.
    SimdParallelMatcher simd;
    ReferenceMatcher ref;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const auto w =
            test::makeShapedWorkload(seed, 2, 37 * seed + 5, 1 + seed % 9, 20);
        const std::vector<bool> want = ref.match(w.text, w.pattern);
        BitVec got(3, true); // matchInto must overwrite
        simd.matchInto(w.text, w.pattern, got);
        EXPECT_EQ(got, BitVec::pack(want)) << "seed " << seed;
        ref.matchInto(w.text, w.pattern, got);
        EXPECT_EQ(got, BitVec::pack(want)) << "seed " << seed;
        got = BitVec(5, true);
        simd.Matcher::matchInto(w.text, w.pattern, got);
        EXPECT_EQ(got, BitVec::pack(want)) << "seed " << seed;
    }
}

} // namespace
} // namespace spm::core
