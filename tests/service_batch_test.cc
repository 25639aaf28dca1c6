/**
 * @file
 * Tests for BatchMatchService::serveBatch: positional responses over
 * mixed patterns, one kernel pass per distinct admitted pattern, and
 * the packing edges where one stream's characters sit next to another's
 * in the kernel text -- a predecessor's tail reaching into a stream's
 * lead k-1 window, a hit on the last position of a stream that ends
 * mid-word, and streams shorter than the pattern.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/reference.hh"
#include "service/batch.hh"
#include "util/rng.hh"

namespace spm::service
{
namespace
{

BatchServiceConfig
batchConfig(unsigned cross_check_every = 0)
{
    BatchServiceConfig cfg;
    cfg.base.alphabetBits = 2;
    cfg.base.maxTextLen = 4096;
    cfg.crossCheckEvery = cross_check_every;
    return cfg;
}

MatchRequest
request(std::uint64_t id, std::vector<Symbol> text,
        std::vector<Symbol> pattern)
{
    MatchRequest req;
    req.id = id;
    req.text = std::move(text);
    req.pattern = std::move(pattern);
    return req;
}

std::vector<Symbol>
randomText(Rng &rng, std::size_t n)
{
    std::vector<Symbol> t(n);
    for (Symbol &c : t)
        c = static_cast<Symbol>(rng.nextBelow(4));
    return t;
}

/** Every response is ok and equals the reference for its request. */
void
expectReference(const std::vector<MatchRequest> &batch,
                const std::vector<MatchResponse> &out)
{
    ASSERT_EQ(out.size(), batch.size());
    core::ReferenceMatcher ref;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(out[i].id, batch[i].id);
        ASSERT_TRUE(out[i].ok()) << "request " << i << ": "
                                 << out[i].error.detail;
        EXPECT_EQ(out[i].result, ref.match(batch[i].text, batch[i].pattern))
            << "request " << i;
        EXPECT_EQ(out[i].beats, static_cast<Beat>(batch[i].text.size()));
    }
}

std::uint64_t
counter(const BatchMatchService &svc, const std::string &name)
{
    return svc.metricsSnapshot().counterValue(name);
}

TEST(BatchService, ResponsesArePositionalAcrossMixedPatterns)
{
    BatchMatchService svc(batchConfig());
    Rng rng(0xBA7C);
    const std::vector<std::vector<Symbol>> patterns = {
        {1, 2}, {0, wildcardSymbol, 3}, {3, 3, 3, 3, 3}, {2}};
    std::vector<MatchRequest> batch;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const auto &p = patterns[rng.nextBelow(patterns.size())];
        batch.push_back(
            request(1000 + i, randomText(rng, rng.nextBelow(150)), p));
    }
    expectReference(batch, svc.serveBatch(batch));
}

TEST(BatchService, KernelPassesEqualDistinctAdmittedPatterns)
{
    BatchMatchService svc(batchConfig());
    std::vector<MatchRequest> batch;
    // Four distinct admitted patterns, interleaved; a fifth appears
    // only on a rejected request and must cost no pass.
    const std::vector<std::vector<Symbol>> patterns = {
        {1, 2}, {2, 1}, {1, 2, 3}, {0}};
    for (std::uint64_t i = 0; i < 40; ++i)
        batch.push_back(request(i, {0, 1, 2, 3, 1, 2, 1},
                                patterns[(i * 7) % patterns.size()]));
    batch.push_back(request(99, {0, 9}, {3, 3}));

    const auto out = svc.serveBatch(batch);
    EXPECT_EQ(counter(svc, "kernelPasses"), patterns.size());
    EXPECT_EQ(counter(svc, "rejected"), 1u);
    EXPECT_EQ(counter(svc, "streams"), 40u);
    EXPECT_EQ(out.back().error.code, ErrorCode::AlphabetOverflow);
    expectReference(std::vector<MatchRequest>(batch.begin(), batch.end() - 1),
                    std::vector<MatchResponse>(out.begin(), out.end() - 1));

    // A second call adds exactly as many passes again.
    svc.serveBatch(batch);
    EXPECT_EQ(counter(svc, "kernelPasses"), 2 * patterns.size());
}

TEST(BatchService, PredecessorTailNeverLeaksIntoTheLeadWindow)
{
    // Each predecessor ends in the first j symbols of the pattern and
    // its successor starts with the rest, so the concatenation holds a
    // full match ending at successor position k-1-j -- inside the
    // successor's lead window, where the answer must be false.
    const std::vector<Symbol> pattern = {1, 2, 3, 0, 2, 1};
    const std::size_t k = pattern.size();
    BatchMatchService svc(batchConfig());
    std::vector<MatchRequest> batch;
    for (std::size_t j = 1; j < k; ++j) {
        std::vector<Symbol> pred = {0, 0, 3};
        pred.insert(pred.end(), pattern.begin(),
                    pattern.begin() + static_cast<std::ptrdiff_t>(j));
        std::vector<Symbol> succ(pattern.begin() +
                                     static_cast<std::ptrdiff_t>(j),
                                 pattern.end());
        succ.insert(succ.end(), {3, 3, 0});
        batch.push_back(request(2 * j, pred, pattern));
        batch.push_back(request(2 * j + 1, succ, pattern));
    }
    const auto out = svc.serveBatch(batch);
    expectReference(batch, out);
    for (std::size_t j = 1; j < k; ++j) {
        const MatchResponse &succ = out[2 * j - 1];
        ASSERT_EQ(succ.id, 2 * j + 1);
        for (bool b : succ.result)
            EXPECT_FALSE(b) << "successor of a " << j
                            << "-symbol partial match";
    }
}

TEST(BatchService, LastPositionHitOfAStreamEndingMidWord)
{
    // Stream A is 37 characters (its segment ends mid-word) with a hit
    // on its last position. Stream B follows in the same word and
    // starts with the pattern's tail, so read across the boundary the
    // pattern (which overlaps itself) would also end at B's position
    // 1. A gets exactly its 37 bits and B's lead window stays clear.
    const std::vector<Symbol> pattern = {1, 2, 1};
    for (const std::size_t lead : {0u, 5u, 60u, 63u}) {
        BatchMatchService svc(batchConfig());
        std::vector<MatchRequest> batch;
        if (lead > 0)
            batch.push_back(request(7, std::vector<Symbol>(lead, 0), pattern));
        std::vector<Symbol> a(37, 0);
        a[34] = 1;
        a[35] = 2;
        a[36] = 1;
        batch.push_back(request(8, a, pattern));
        batch.push_back(request(9, {2, 1, 2, 1, 0, 0}, pattern));
        const auto out = svc.serveBatch(batch);
        expectReference(batch, out);
        const MatchResponse &ra = out[lead > 0 ? 1 : 0];
        ASSERT_EQ(ra.result.size(), 37u);
        EXPECT_TRUE(ra.result[36]) << "lead " << lead;
        const MatchResponse &rb = out.back();
        ASSERT_EQ(rb.result.size(), 6u);
        EXPECT_FALSE(rb.result[1]) << "lead " << lead;
        EXPECT_TRUE(rb.result[3]) << "lead " << lead;
    }
}

TEST(BatchService, StreamsShorterThanThePatternMatchNothing)
{
    const std::vector<Symbol> pattern = {1, wildcardSymbol, 1, 1};
    BatchMatchService svc(batchConfig());
    std::vector<MatchRequest> batch;
    for (std::uint64_t len = 0; len < 12; ++len)
        batch.push_back(
            request(len, std::vector<Symbol>(len, Symbol(1)), pattern));
    const auto out = svc.serveBatch(batch);
    expectReference(batch, out);
    for (std::size_t len = 0; len < 12; ++len) {
        ASSERT_EQ(out[len].result.size(), len);
        for (std::size_t p = 0; p < len; ++p)
            EXPECT_EQ(out[len].result[p], p + 1 >= pattern.size())
                << "len " << len << " position " << p;
    }
}

TEST(BatchService, MalformedRequestsAreRejectedAlone)
{
    BatchServiceConfig cfg = batchConfig();
    cfg.base.maxTextLen = 64;
    cfg.base.maxPatternLen = 8;
    BatchMatchService svc(cfg);
    const std::vector<Symbol> pattern = {1, 2};
    std::vector<MatchRequest> batch;
    batch.push_back(request(0, {1, 2, 1, 2}, pattern));
    batch.push_back(request(1, {1, 7, 2}, pattern));  // outside 2 bits
    batch.push_back(request(2, {1, 2, 1, 2}, {}));    // empty pattern
    batch.push_back(request(3, {1, 2}, std::vector<Symbol>(9, 1)));
    batch.push_back(request(4, std::vector<Symbol>(65, 1), pattern));
    batch.push_back(request(5, {2, 1, 2}, pattern));
    const auto out = svc.serveBatch(batch);
    ASSERT_EQ(out.size(), batch.size());
    EXPECT_EQ(out[1].error.code, ErrorCode::AlphabetOverflow);
    EXPECT_EQ(out[2].error.code, ErrorCode::InvalidPattern);
    EXPECT_EQ(out[3].error.code, ErrorCode::OversizedRequest);
    EXPECT_EQ(out[4].error.code, ErrorCode::OversizedRequest);
    for (const std::size_t bad : {1u, 2u, 3u, 4u}) {
        EXPECT_EQ(out[bad].id, bad);
        EXPECT_TRUE(out[bad].result.empty());
    }
    expectReference({batch[0], batch[5]}, {out[0], out[5]});
    EXPECT_EQ(counter(svc, "rejected"), 4u);
    EXPECT_EQ(counter(svc, "kernelPasses"), 1u);
}

TEST(BatchService, CrossCheckOnEveryPassAgrees)
{
    BatchMatchService svc(batchConfig(1));
    Rng rng(0xC4EC);
    std::vector<MatchRequest> batch;
    std::set<std::vector<Symbol>> distinct;
    for (std::uint64_t i = 0; i < 120; ++i) {
        std::vector<Symbol> p = randomText(rng, 1 + rng.nextBelow(6));
        if (i % 3 != 0)
            p = {2, 0, 1};
        distinct.insert(p);
        batch.push_back(request(i, randomText(rng, rng.nextBelow(90)), p));
    }
    expectReference(batch, svc.serveBatch(batch));
    EXPECT_EQ(counter(svc, "kernelPasses"), distinct.size());
    EXPECT_EQ(counter(svc, "crossChecks"), distinct.size());
    EXPECT_EQ(counter(svc, "crossCheckFailures"), 0u);
}

} // namespace
} // namespace spm::service
