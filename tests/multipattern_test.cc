/**
 * @file
 * Property tests for src/multipattern: the Aho-Corasick baseline and
 * the bit-sliced fused-plane realization against the naive per-pattern
 * reference on randomized dictionaries, plane-dedup equivalence, and
 * bit-identical chunked-vs-one-shot feeding under randomized splits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "multipattern/acmatch.hh"
#include "multipattern/dict.hh"
#include "multipattern/planes.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace spm::multipattern
{
namespace
{

std::vector<Symbol>
randomText(Rng &rng, std::size_t n, BitWidth bits)
{
    std::vector<Symbol> text(n);
    for (auto &c : text)
        c = static_cast<Symbol>(rng.nextBelow(std::uint64_t(1) << bits));
    return text;
}

/**
 * Random dictionary biased toward shared structure: members are drawn
 * as fresh strings, prefixes/suffixes of earlier members, or
 * substrings of the text (guaranteed hits), so the suffix trie and
 * the failure links both get exercised with overlap.
 */
DictPatterns
randomDict(Rng &rng, const std::vector<Symbol> &text, std::size_t p,
           std::size_t max_len, BitWidth bits, unsigned wildcard_pct)
{
    const std::uint64_t sigma = std::uint64_t(1) << bits;
    DictPatterns dict;
    dict.reserve(p);
    for (std::size_t i = 0; i < p; ++i) {
        std::vector<Symbol> member;
        const std::size_t kind = i == 0 ? 0 : rng.nextBelow(4);
        if (kind == 1 || kind == 2) {
            // Prefix or suffix of an earlier member.
            const auto &base = dict[rng.nextBelow(dict.size())];
            if (!base.empty()) {
                const std::size_t len = 1 + rng.nextBelow(base.size());
                member.assign(kind == 1
                                  ? base.begin()
                                  : base.end() -
                                        static_cast<std::ptrdiff_t>(len),
                              kind == 1 ? base.begin() +
                                              static_cast<std::ptrdiff_t>(len)
                                        : base.end());
            }
        } else if (kind == 3 && !text.empty()) {
            // Substring of the text: a guaranteed hit.
            const std::size_t len =
                1 + rng.nextBelow(std::min<std::size_t>(max_len, text.size()));
            const std::size_t at = rng.nextBelow(text.size() - len + 1);
            member.assign(text.begin() + static_cast<std::ptrdiff_t>(at),
                          text.begin() + static_cast<std::ptrdiff_t>(at + len));
        }
        if (member.empty()) {
            const std::size_t len = 1 + rng.nextBelow(max_len);
            member.resize(len);
            for (auto &c : member)
                c = static_cast<Symbol>(rng.nextBelow(sigma));
        }
        for (auto &c : member)
            if (rng.nextBelow(100) < wildcard_pct)
                c = wildcardSymbol;
        dict.push_back(std::move(member));
    }
    return dict;
}

TEST(AhoCorasick, MatchesNaiveOnRandomLiteralDictionaries)
{
    Rng rng(0x19A0u);
    NaiveDictMatcher naive;
    AhoCorasickMatcher ac;
    for (int round = 0; round < 60; ++round) {
        const BitWidth bits = round % 3 == 0 ? 2 : 8;
        const std::size_t n = 1 + rng.nextBelow(300);
        const std::size_t p = 1 + rng.nextBelow(20);
        const auto text = randomText(rng, n, bits);
        const auto dict = randomDict(rng, text, p, 12, bits, 0);
        ASSERT_EQ(ac.matchAll(text, dict), naive.matchAll(text, dict))
            << "round " << round;
    }
}

TEST(AhoCorasick, RejectsWildcards)
{
    DictPatterns dict = {{Symbol(1), wildcardSymbol}};
    EXPECT_THROW(AhoCorasickAutomaton{dict}, std::invalid_argument);
}

TEST(AhoCorasick, HandlesDuplicateAndNestedMembers)
{
    // "b" is a suffix of "ab"; duplicates must both report; the empty
    // member matches nowhere.
    const DictPatterns dict = {{1, 2}, {2}, {1, 2}, {}, {2, 1, 2}};
    const std::vector<Symbol> text = {1, 2, 1, 2, 2};
    NaiveDictMatcher naive;
    AhoCorasickMatcher ac;
    const DictHits got = ac.matchAll(text, dict);
    EXPECT_EQ(got, naive.matchAll(text, dict));
    EXPECT_EQ(got.bits[0], got.bits[2]);
    EXPECT_EQ(got.bits[3], std::vector<bool>(text.size(), false));
}

TEST(AhoCorasick, ContiguousStorageIsCompact)
{
    const DictPatterns dict = {{1, 2, 3}, {1, 2, 4}, {2, 3}};
    AhoCorasickAutomaton automaton(dict);
    // Shared prefixes share trie states: root + {1,12,123,124,2,23}.
    EXPECT_EQ(automaton.stateCount(), 7u);
    EXPECT_EQ(automaton.edgeCount(), 6u);
    EXPECT_EQ(automaton.patternCount(), 3u);
}

TEST(BitSlicedDict, MatchesNaiveWithWildcards)
{
    Rng rng(0x19A1u);
    NaiveDictMatcher naive;
    BitSlicedDictMatcher planes;
    // 2-, 5- and 8-bit alphabets take the byte-narrowed transpose; the
    // 12-bit one takes the wide transpose.
    constexpr BitWidth widths[] = {2, 5, 8, 12};
    for (int round = 0; round < 60; ++round) {
        const BitWidth bits = widths[round % 4];
        const std::size_t n = 1 + rng.nextBelow(300);
        const std::size_t p = 1 + rng.nextBelow(24);
        const unsigned wc = round % 2 == 0 ? 0 : 25;
        const auto text = randomText(rng, n, bits);
        const auto dict = randomDict(rng, text, p, 12, bits, wc);
        ASSERT_EQ(planes.matchAll(text, dict), naive.matchAll(text, dict))
            << "round " << round;
    }
}

TEST(BitSlicedDict, WordBoundaryStraddles)
{
    // Plant a member so matches end exactly at packed-word boundaries
    // (positions 63, 64, 127, 128): the shifted-plane carry path.
    std::vector<Symbol> text(200, Symbol(0));
    const std::vector<Symbol> member = {1, 2, 3, 4, 5};
    for (std::size_t end : {63u, 64u, 127u, 128u, 199u})
        for (std::size_t j = 0; j < member.size(); ++j)
            text[end - member.size() + 1 + j] = member[j];
    const DictPatterns dict = {member, {2, 3}, {5}};
    NaiveDictMatcher naive;
    BitSlicedDictMatcher planes;
    EXPECT_EQ(planes.matchAll(text, dict), naive.matchAll(text, dict));
}

TEST(BitSlicedDict, DegenerateShapes)
{
    NaiveDictMatcher naive;
    BitSlicedDictMatcher planes;
    const std::vector<Symbol> text = {1, 2, 3};
    // Empty dict, empty member, member longer than the text, an
    // all-wildcard member, and a one-symbol member.
    const DictPatterns dict = {{},
                               {1, 2, 3, 1},
                               {wildcardSymbol, wildcardSymbol},
                               {2}};
    EXPECT_EQ(planes.matchAll(text, dict), naive.matchAll(text, dict));
    EXPECT_TRUE(planes.matchAll(text, {}).bits.empty());
    const DictHits onEmpty = planes.matchAll({}, dict);
    for (const auto &row : onEmpty.bits)
        EXPECT_TRUE(row.empty());
}

TEST(BitSlicedDict, DedupEquivalentToNoDedup)
{
    Rng rng(0x19A2u);
    BitSlicedDictMatcher deduped(true);
    BitSlicedDictMatcher independent(false);
    for (int round = 0; round < 40; ++round) {
        const BitWidth bits = round % 2 == 0 ? 2 : 8;
        const std::size_t n = 1 + rng.nextBelow(300);
        const std::size_t p = 1 + rng.nextBelow(80);
        const auto text = randomText(rng, n, bits);
        const auto dict = randomDict(rng, text, p, 10, bits, 20);
        ASSERT_EQ(deduped.matchAll(text, dict),
                  independent.matchAll(text, dict))
            << "round " << round;
    }
}

TEST(BitSlicedDict, DedupSharesSuffixNodesAndPlanes)
{
    // 8 members sharing a 4-symbol suffix: the suffix trie must fold
    // the shared tail into one chain per group, and the character
    // classes must be built once, not per member.
    DictPatterns dict;
    for (Symbol lead = 0; lead < 8; ++lead)
        dict.push_back({lead, Symbol(9), Symbol(10), Symbol(11), Symbol(12)});
    Rng rng(0x19A6u);
    std::vector<Symbol> text(300);
    for (auto &c : text)
        c = static_cast<Symbol>(rng.nextBelow(13));
    BitSlicedDictMatcher deduped(true);
    BitSlicedDictMatcher independent(false);
    (void)deduped.matchAll(text, dict);
    (void)independent.matchAll(text, dict);
    // Shared suffix: 4 shared nodes + 8 leaves = 12 < 8 * 5 = 40.
    EXPECT_EQ(deduped.lastTrieNodes(), 12u);
    EXPECT_EQ(independent.lastTrieNodes(), 40u);
    EXPECT_LT(deduped.lastEqMasks(), independent.lastEqMasks());
    EXPECT_EQ(deduped.lastSweeps(), 1u);
    EXPECT_EQ(deduped.lastPatternChars(), 40u);
}

TEST(BitSlicedDict, FusesAtMostSixtyFourPerSweep)
{
    Rng rng(0x19A3u);
    const auto text = randomText(rng, 150, 4);
    DictPatterns dict = randomDict(rng, text, 130, 6, 4, 10);
    BitSlicedDictMatcher planes;
    NaiveDictMatcher naive;
    EXPECT_EQ(planes.matchAll(text, dict), naive.matchAll(text, dict));
    EXPECT_EQ(planes.lastSweeps(), 3u);
}

TEST(Chunked, BitSlicedMatchesOneShotUnderRandomSplits)
{
    Rng rng(0x19A4u);
    BitSlicedDictMatcher planes;
    for (int round = 0; round < 40; ++round) {
        const BitWidth bits = round % 2 == 0 ? 2 : 8;
        const std::size_t n = 1 + rng.nextBelow(260);
        const auto text = randomText(rng, n, bits);
        const auto dict =
            randomDict(rng, text, 1 + rng.nextBelow(12), 9, bits, 15);
        const DictHits oneShot = planes.matchAll(text, dict);

        DictStreamState state;
        DictHits stitched;
        stitched.bits.assign(dict.size(), {});
        std::size_t at = 0;
        while (at < n) {
            const std::size_t len =
                std::min<std::size_t>(n - at, 1 + rng.nextBelow(40));
            const std::vector<Symbol> chunk(
                text.begin() + static_cast<std::ptrdiff_t>(at),
                text.begin() + static_cast<std::ptrdiff_t>(at + len));
            const DictHits part = feedDictChunk(planes, state, chunk, dict);
            EXPECT_EQ(planes.lastHits(), part.totalHits());
            for (std::size_t p = 0; p < dict.size(); ++p)
                stitched.bits[p].insert(stitched.bits[p].end(),
                                        part.bits[p].begin(),
                                        part.bits[p].end());
            at += len;
        }
        ASSERT_EQ(stitched, oneShot) << "round " << round;
        EXPECT_EQ(state.seen, static_cast<std::uint64_t>(n));
    }
}

TEST(Chunked, CarryCoversEveryTailLengthAndWordOffset)
{
    // kmax = 1 carries nothing; kmax = 64 carries 63 (skip % 64 = 63
    // once the tail is full); kmax = 65 carries 64, so extraction
    // starts one whole word in.  kmax single-character chunks first
    // grow the tail through every length 0..kmax-1, then the chunk
    // lengths straddle a word (1, 63, 64, 65, 4096), then random.
    Rng rng(0x19A6u);
    BitSlicedDictMatcher planes;
    NaiveDictMatcher naive;
    for (const std::size_t kmax : {std::size_t(1), std::size_t(9),
                                   std::size_t(64), std::size_t(65)}) {
        std::vector<std::size_t> lengths(kmax, 1);
        for (std::size_t len : {63, 64, 65, 4096, 1})
            lengths.push_back(len);
        for (int i = 0; i < 12; ++i)
            lengths.push_back(1 + rng.nextBelow(130));
        std::size_t n = 0;
        for (std::size_t len : lengths)
            n += len;

        const auto text = randomText(rng, n, 2);
        DictPatterns dict = randomDict(rng, text, 10, kmax, 2, 10);
        // A full-length member cut from the text: a guaranteed hit at
        // the longest reach the carry must cover.
        const std::size_t cut = rng.nextBelow(n - kmax + 1);
        dict.emplace_back(text.begin() + static_cast<std::ptrdiff_t>(cut),
                          text.begin() +
                              static_cast<std::ptrdiff_t>(cut + kmax));
        ASSERT_EQ(longestPattern(dict), kmax);
        const DictHits oneShot = naive.matchAll(text, dict);

        DictStreamState state;
        DictHits stitched;
        stitched.bits.assign(dict.size(), {});
        std::size_t at = 0;
        for (std::size_t len : lengths) {
            ASSERT_EQ(state.tail.size(), std::min(at, kmax - 1));
            const std::vector<Symbol> chunk(
                text.begin() + static_cast<std::ptrdiff_t>(at),
                text.begin() + static_cast<std::ptrdiff_t>(at + len));
            const DictHits part = feedDictChunk(planes, state, chunk, dict);
            EXPECT_EQ(planes.lastHits(), part.totalHits())
                << "kmax " << kmax << " at " << at;
            for (std::size_t p = 0; p < dict.size(); ++p) {
                ASSERT_EQ(part.bits[p].size(), len);
                stitched.bits[p].insert(stitched.bits[p].end(),
                                        part.bits[p].begin(),
                                        part.bits[p].end());
            }
            at += len;
        }
        ASSERT_EQ(stitched, oneShot) << "kmax " << kmax;
        EXPECT_GT(oneShot.totalHits(), 0u);
    }
}

TEST(BitSlicedDict, MatchFromReportsTheSuffixOfMatchAll)
{
    Rng rng(0x19A7u);
    BitSlicedDictMatcher planes;
    for (int round = 0; round < 30; ++round) {
        const std::size_t n = 1 + rng.nextBelow(300);
        const auto text = randomText(rng, n, 2);
        const auto dict =
            randomDict(rng, text, 1 + rng.nextBelow(12), 9, 2, 15);
        const DictHits all = planes.matchAll(text, dict);
        EXPECT_EQ(planes.lastHits(), all.totalHits());
        // Every word offset of the start, including the very end.
        for (std::size_t from : {std::size_t(0), std::size_t(1),
                                 std::min<std::size_t>(63, n),
                                 std::min<std::size_t>(64, n),
                                 std::min<std::size_t>(65, n),
                                 rng.nextBelow(n + 1), n}) {
            const DictHits part = planes.matchFrom(text, dict, from);
            DictHits want = all;
            for (auto &row : want.bits)
                row.erase(row.begin(),
                          row.begin() + static_cast<std::ptrdiff_t>(from));
            ASSERT_EQ(part, want) << "round " << round << " from " << from;
            EXPECT_EQ(planes.lastHits(), want.totalHits());
        }
    }
    EXPECT_THROW(planes.matchFrom({1, 2}, {{1}}, 3), std::invalid_argument);
}

TEST(Chunked, AhoCorasickStreamStateMatchesOneShot)
{
    Rng rng(0x19A5u);
    for (int round = 0; round < 40; ++round) {
        const BitWidth bits = round % 2 == 0 ? 2 : 8;
        const std::size_t n = 1 + rng.nextBelow(260);
        const auto text = randomText(rng, n, bits);
        const auto dict =
            randomDict(rng, text, 1 + rng.nextBelow(12), 9, bits, 0);
        AhoCorasickAutomaton automaton(dict);
        const DictHits oneShot = automaton.matchAll(text);

        AhoCorasickAutomaton::StreamState state;
        DictHits stitched;
        stitched.bits.assign(dict.size(), {});
        std::size_t at = 0;
        while (at < n) {
            const std::size_t len =
                std::min<std::size_t>(n - at, 1 + rng.nextBelow(40));
            const std::vector<Symbol> chunk(
                text.begin() + static_cast<std::ptrdiff_t>(at),
                text.begin() + static_cast<std::ptrdiff_t>(at + len));
            const DictHits part = automaton.feed(state, chunk);
            for (std::size_t p = 0; p < dict.size(); ++p)
                stitched.bits[p].insert(stitched.bits[p].end(),
                                        part.bits[p].begin(),
                                        part.bits[p].end());
            at += len;
        }
        ASSERT_EQ(stitched, oneShot) << "round " << round;
        EXPECT_EQ(state.seen, static_cast<std::uint64_t>(n));
    }
}

TEST(Chunked, CarryRejectsOversizedTail)
{
    BitSlicedDictMatcher planes;
    DictStreamState state;
    state.tail = {1, 2, 3, 4};
    EXPECT_THROW(feedDictChunk(planes, state, {1}, {{1, 2}}),
                 std::invalid_argument);
}

TEST(DictHits, TotalHitsCounts)
{
    DictHits hits;
    hits.bits = {{true, false, true}, {false, false, false}, {true}};
    EXPECT_EQ(hits.totalHits(), 3u);
    EXPECT_EQ(longestPattern({{1, 2}, {}, {1, 2, 3}}), 3u);
    EXPECT_EQ(longestPattern({}), 0u);
}

} // namespace
} // namespace spm::multipattern
