/**
 * @file
 * Property tests for the sharded multi-threaded service: stitched
 * results must be bit-identical to the unsharded MatchService (and
 * the reference definition), across chunk and shard boundaries, with
 * the resilience semantics intact per shard. These tests are run
 * under ThreadSanitizer by scripts/check.sh.
 */

#include <gtest/gtest.h>

#include "core/reference.hh"
#include "core/simdpar.hh"
#include "service/service.hh"
#include "service/sharded.hh"
#include "telemetry/span.hh"
#include "tests/helpers.hh"
#include "util/rng.hh"

namespace spm::service
{
namespace
{

ShardedConfig
smallShardConfig(unsigned threads, BitWidth bits)
{
    ShardedConfig cfg;
    cfg.base.alphabetBits = bits;
    cfg.base.maxTextLen = 1 << 20;
    cfg.base.chunkChars = 16;
    cfg.threads = threads;
    cfg.minShardChars = 24; // force several shards on small texts
    return cfg;
}

MatchRequest
randomRequest(std::uint64_t seed, BitWidth bits, std::size_t text_len,
              std::size_t pat_len, unsigned wildcard_pct = 20)
{
    const test::Workload w = test::makeShapedWorkload(
        seed, bits, text_len, pat_len, wildcard_pct);
    MatchRequest req;
    req.id = seed;
    req.text = w.text;
    req.pattern = w.pattern;
    return req;
}

TEST(ShardedService, BitIdenticalToUnshardedService)
{
    for (const unsigned threads : {1u, 2u, 4u}) {
        const BitWidth bits = 2;
        ShardedMatchService sharded(smallShardConfig(threads, bits));
        ServiceConfig plain_cfg = smallShardConfig(threads, bits).base;
        MatchService plain(plain_cfg);

        for (std::uint64_t i = 0; i < 6; ++i) {
            const auto req = randomRequest(0x5AD + 16 * threads + i, bits,
                                           40 + 37 * i, 3 + i % 6);
            const MatchResponse a = sharded.serve(req);
            const MatchResponse b = plain.serve(req);
            ASSERT_TRUE(a.ok()) << a.error.detail;
            ASSERT_TRUE(b.ok()) << b.error.detail;
            EXPECT_EQ(a.result, b.result)
                << "threads=" << threads << " workload " << i << " over "
                << sharded.lastShards() << " shards";
            EXPECT_EQ(a.result.size(), req.text.size());
        }
    }
}

TEST(ShardedService, StitchesMatchesStraddlingShardBoundaries)
{
    // Place a match across every shard boundary: the window overlap
    // (k-1 characters) is exactly what makes these come out right.
    const BitWidth bits = 2;
    ShardedMatchService sharded(smallShardConfig(4, bits));
    core::ReferenceMatcher ref;

    const std::size_t n = 4 * 24; // 4 shards of minShardChars each
    const std::vector<Symbol> pattern = {1, 2, 3, 1, 2};
    const std::size_t k = pattern.size();
    std::vector<Symbol> text(n, 0);
    ASSERT_EQ(sharded.shardCountFor(n, k), 4u);
    for (std::size_t boundary = 24; boundary < n; boundary += 24) {
        // Match ending just after, on, and just before the boundary.
        for (const std::size_t end :
             {boundary - 2, boundary - 1, boundary, boundary + 1}) {
            std::vector<Symbol> t = text;
            for (std::size_t j = 0; j < k; ++j)
                t[end - (k - 1) + j] = pattern[j];
            MatchRequest req;
            req.id = boundary * 10 + end % 10;
            req.text = t;
            req.pattern = pattern;
            const MatchResponse resp = sharded.serve(req);
            ASSERT_TRUE(resp.ok()) << resp.error.detail;
            std::vector<bool> expect(n, false);
            expect[end] = true;
            EXPECT_EQ(resp.result, ref.match(t, pattern))
                << "boundary " << boundary << " end " << end;
            EXPECT_EQ(resp.result, expect);
        }
    }
}

TEST(ShardedService, MatchesReferenceOnRandomWorkloadsWithWildcards)
{
    for (std::uint64_t i = 0; i < 8; ++i) {
        const BitWidth bits = 1 + i % 3;
        ShardedMatchService sharded(smallShardConfig(4, bits));
        core::ReferenceMatcher ref;
        const auto req = randomRequest(0xB0A + i, bits, 150 + 31 * i,
                                       1 + i % 8, 0.3);
        const MatchResponse resp = sharded.serve(req);
        ASSERT_TRUE(resp.ok()) << resp.error.detail;
        EXPECT_GE(sharded.lastShards(), 2u);
        EXPECT_EQ(resp.result, ref.match(req.text, req.pattern))
            << "workload " << i;
    }
}

TEST(ShardedService, ShortRequestsStayOnOneShard)
{
    ShardedMatchService sharded(smallShardConfig(4, 2));
    EXPECT_EQ(sharded.shardCountFor(10, 3), 1u);
    EXPECT_EQ(sharded.shardCountFor(47, 3), 1u);
    EXPECT_EQ(sharded.shardCountFor(48, 3), 2u);
    EXPECT_EQ(sharded.shardCountFor(1 << 16, 3), 4u);
    // A pattern longer than minShardChars raises the floor.
    EXPECT_EQ(sharded.shardCountFor(64, 40), 1u);

    const auto req = randomRequest(0x51, 2, 30, 4);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(sharded.lastShards(), 1u);
    EXPECT_EQ(sharded.lastCriticalBeats(), sharded.lastTotalBeats());
}

TEST(ShardedService, CriticalPathBeatsScaleWithShards)
{
    // The figure of merit: with S equal shards the host waits for the
    // slowest shard, so critical-path beats drop by nearly S relative
    // to the summed effort.
    const BitWidth bits = 2;
    const auto req = randomRequest(0xCAFE, bits, 4096, 8, 0);

    ShardedConfig cfg1 = smallShardConfig(1, bits);
    cfg1.minShardChars = 256;
    ShardedConfig cfg4 = smallShardConfig(4, bits);
    cfg4.minShardChars = 256;
    ShardedMatchService one(cfg1);
    ShardedMatchService four(cfg4);

    const MatchResponse r1 = one.serve(req);
    const MatchResponse r4 = four.serve(req);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r4.ok());
    EXPECT_EQ(r1.result, r4.result);
    EXPECT_EQ(one.lastShards(), 1u);
    EXPECT_EQ(four.lastShards(), 4u);

    const double speedup = static_cast<double>(one.lastCriticalBeats()) /
                           static_cast<double>(four.lastCriticalBeats());
    EXPECT_GE(speedup, 3.0) << "1-shard " << one.lastCriticalBeats()
                            << " beats vs 4-shard critical path "
                            << four.lastCriticalBeats();
    // The overlap recompute keeps total effort within a few percent.
    EXPECT_LT(four.lastTotalBeats(),
              static_cast<Beat>(1.1 * one.lastTotalBeats()));
}

TEST(ShardedService, ValidationAndErrorsMatchUnsharded)
{
    ShardedMatchService sharded(smallShardConfig(4, 2));
    MatchService plain(smallShardConfig(4, 2).base);

    MatchRequest empty_pat;
    empty_pat.text = {0, 1, 2};
    EXPECT_EQ(sharded.validate(empty_pat)->code,
              plain.validate(empty_pat)->code);
    MatchResponse resp = sharded.serve(empty_pat);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::InvalidPattern);
    EXPECT_TRUE(resp.result.empty());

    // Alphabet overflow in a late shard still surfaces, with the
    // shard called out in the detail.
    MatchRequest bad;
    bad.pattern = {1, 2};
    bad.text.assign(200, 1);
    bad.text[180] = 9; // outside a 2-bit alphabet, lands in shard 3
    resp = sharded.serve(bad);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::AlphabetOverflow);
    EXPECT_NE(resp.error.detail.find("shard"), std::string::npos);
}

TEST(ShardedService, PerShardJournalsAndCheckpointsAreKept)
{
    ShardedMatchService sharded(smallShardConfig(4, 2));
    const auto req = randomRequest(0x10C, 2, 200, 5);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(sharded.lastShards(), 4u);

    // Every shard streamed its slice in chunks and cut checkpoints;
    // the response aggregates them and the per-shard services keep
    // their own journals (resilience semantics are per shard).
    EXPECT_GE(resp.chunks, 4u);
    EXPECT_GE(resp.checkpoints, 4u);
    for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_EQ(sharded.shard(s).stats().counter("served").value(), 1u)
            << "shard " << s;
        EXPECT_GE(
            sharded.shard(s).stats().counter("checkpoints").value(), 1u)
            << "shard " << s;
        EXPECT_TRUE(sharded.shard(s).journal().size() > 0) << "shard " << s;
    }
    const std::string dump = sharded.statsDump();
    EXPECT_NE(dump.find("sharded.threads = 4"), std::string::npos);
    EXPECT_NE(dump.find("sharded.last_shards = 4"), std::string::npos);
}

TEST(ShardedService, CustomLadderFactoryPinsBackend)
{
    ShardedConfig cfg = smallShardConfig(2, 2);
    ShardedMatchService sharded(cfg, [](const ServiceConfig &) {
        std::vector<std::unique_ptr<ServiceBackend>> ladder;
        ladder.push_back(std::make_unique<SoftwareBackend>());
        return ladder;
    });
    const auto req = randomRequest(0xFAC, 2, 120, 4);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.backend, "software-baseline");
    core::ReferenceMatcher ref;
    EXPECT_EQ(resp.result, ref.match(req.text, req.pattern));
}

#ifndef SPM_TELEM_OFF
TEST(ShardedService, TracedServeExportsValidChromeTrace)
{
    // Four worker threads record spans into the global trace buffer
    // concurrently; serve()'s batch join is the happens-before edge
    // the export contract requires. Run under TSan by check.sh.
    auto &buf = telem::TraceBuffer::global();
    buf.clear();
    buf.setEnabled(true);
    buf.setCategoryMask(telem::cat::all);

    ShardedMatchService sharded(smallShardConfig(4, 2));
    const auto req = randomRequest(0x7ACE, 2, 200, 5);
    const MatchResponse resp = sharded.serve(req);
    buf.setEnabled(false);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    ASSERT_EQ(sharded.lastShards(), 4u);

    const std::string json = buf.exportChromeJson("sharded test");
    EXPECT_EQ(telem::validateChromeTrace(json), "") << json.substr(0, 400);

    // The batch span and all four shard spans made it into the trace,
    // recorded from more than one thread.
    const auto events = buf.collect();
    std::size_t batch_spans = 0;
    std::size_t shard_spans = 0;
    std::size_t distinct_tids = 0;
    std::vector<bool> tid_seen(64, false);
    for (const telem::SpanEvent &ev : events) {
        if (std::string(ev.name) == "sharded.serve") {
            ++batch_spans;
            EXPECT_EQ(ev.beat, sharded.lastCriticalBeats());
        }
        if (std::string(ev.name) == "sharded.shard")
            ++shard_spans;
        if (ev.tid < tid_seen.size() && !tid_seen[ev.tid]) {
            tid_seen[ev.tid] = true;
            ++distinct_tids;
        }
    }
    EXPECT_EQ(batch_spans, 1u);
    EXPECT_EQ(shard_spans, 4u);
    EXPECT_GE(distinct_tids, 2u);
    buf.clear();
}
#endif // SPM_TELEM_OFF

TEST(ShardedService, EmptyTextServesEmptyResult)
{
    ShardedMatchService sharded(smallShardConfig(4, 2));
    MatchRequest req;
    req.id = 1;
    req.pattern = {1, 2};
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_TRUE(resp.result.empty());
    EXPECT_EQ(sharded.lastShards(), 1u);
}

TEST(ShardedService, PatternAsLongAsMinShardCharsRaisesSliceFloor)
{
    // floor_chars = max(minShardChars, k): with k > minShardChars the
    // k-1 warm-up overlap spans more than half of every slice, the
    // hardest stitch shape that still shards.
    const BitWidth bits = 2;
    ShardedMatchService sharded(smallShardConfig(4, bits));
    core::ReferenceMatcher ref;
    for (const std::size_t k : {24u, 30u, 50u}) {
        const auto req = randomRequest(0xDE6 + k, bits, 200, k, 30);
        ASSERT_EQ(req.pattern.size(), k);
        const MatchResponse resp = sharded.serve(req);
        ASSERT_TRUE(resp.ok()) << resp.error.detail;
        EXPECT_GE(sharded.lastShards(), 2u) << "k=" << k;
        EXPECT_EQ(resp.result, ref.match(req.text, req.pattern))
            << "k=" << k << " over " << sharded.lastShards() << " shards";
    }
}

TEST(ShardedService, OverlapSpanningAWholeSliceStitchesExactly)
{
    // k equal to the slice length: every slice's window is nearly
    // half warm-up, and each right extension reaches the far end of
    // the neighbor's first chunk.
    const BitWidth bits = 2;
    ShardedConfig cfg = smallShardConfig(4, bits);
    cfg.minShardChars = 50;
    ShardedMatchService sharded(cfg);
    core::ReferenceMatcher ref;
    const auto req = randomRequest(0xDE7, bits, 200, 50, 20);
    ASSERT_EQ(sharded.shardCountFor(200, 50), 4u);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_EQ(sharded.lastShards(), 4u);
    EXPECT_EQ(resp.result, ref.match(req.text, req.pattern));
}

TEST(ShardedService, SingleCharacterShardsMatchReference)
{
    // minShardChars=1 with a tiny text: one character per shard, the
    // degenerate extreme of the slicing arithmetic (warm-up overlap
    // k-1 = 0 or 1, right extensions clamped at the text end).
    const BitWidth bits = 2;
    ShardedConfig cfg = smallShardConfig(4, bits);
    cfg.minShardChars = 1;
    ShardedMatchService sharded(cfg);
    core::ReferenceMatcher ref;
    for (const std::size_t k : {1u, 2u}) {
        const auto req = randomRequest(0xDE8 + k, bits, 4, k, 0);
        const MatchResponse resp = sharded.serve(req);
        ASSERT_TRUE(resp.ok()) << resp.error.detail;
        EXPECT_EQ(sharded.lastShards(), k == 1 ? 4u : 2u);
        EXPECT_EQ(resp.result, ref.match(req.text, req.pattern)) << "k=" << k;
    }
}

TEST(ShardedService, RepeatedServesAreDeterministic)
{
    ShardedMatchService sharded(smallShardConfig(4, 2));
    const auto req = randomRequest(0xD37, 2, 300, 6);
    const MatchResponse a = sharded.serve(req);
    const Beat crit_a = sharded.lastCriticalBeats();
    const Beat total_a = sharded.lastTotalBeats();
    const MatchResponse b = sharded.serve(req);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.result, b.result);
    EXPECT_EQ(a.beats, b.beats);
    EXPECT_EQ(crit_a, sharded.lastCriticalBeats());
    EXPECT_EQ(total_a, sharded.lastTotalBeats());
}

std::vector<std::unique_ptr<ServiceBackend>>
simdLadder(const ServiceConfig &)
{
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<MatcherBackend>(
        std::make_unique<core::SimdParallelMatcher>()));
    return ladder;
}

TEST(ShardedService, PackedStitchAtUnalignedShapes)
{
    // Texts that are not multiples of 64 x threads, chunks that are not
    // multiples of 64, patterns from 1 to 65 characters: every slice
    // boundary, warm-up drop and right extension lands at an odd bit
    // offset of the packed stitch and overlap compare. Each shape runs
    // with the slices chunked (cross-check and journal on) and as one
    // window each (both off).
    core::ReferenceMatcher ref;
    for (const unsigned threads : {3u, 4u}) {
        for (const std::size_t chunk : {37u, 100u}) {
            for (const bool one_window : {false, true}) {
                ShardedConfig cfg = smallShardConfig(threads, 2);
                cfg.base.chunkChars = chunk;
                cfg.base.maxPatternLen = 65;
                cfg.base.crossCheck = !one_window;
                cfg.base.journalEnabled = !one_window;
                cfg.minShardChars = 90;
                ShardedMatchService sharded(cfg, simdLadder);
                for (const std::size_t n : {777u, 1000u, 4097u}) {
                    for (const std::size_t k : {1u, 2u, 7u, 63u, 64u, 65u}) {
                        const auto req = randomRequest(
                            0x5717 + n * 131 + k * 7 + threads, 2, n, k, 15);
                        const std::vector<bool> want =
                            ref.match(req.text, req.pattern);
                        const MatchResponse resp = sharded.serve(req);
                        ASSERT_TRUE(resp.ok()) << resp.error.detail;
                        EXPECT_GE(sharded.lastShards(), 2u);
                        if (one_window) {
                            EXPECT_EQ(resp.chunks, sharded.lastShards());
                        }
                        EXPECT_EQ(resp.result, want)
                            << "threads=" << threads << " chunk=" << chunk
                            << " one_window=" << one_window << " n=" << n
                            << " k=" << k;
                    }
                }
                const telem::Snapshot snap = sharded.metricsSnapshot();
                EXPECT_GT(snap.counterValue("sharded.overlap_checks"), 0u);
                EXPECT_EQ(snap.counterValue("sharded.overlap_mismatches"), 0u);
            }
        }
    }
}

/**
 * Chunks serve() streams when every slice is cut into @p chunk-char
 * pieces: n chars over @p slices slices of a k-char pattern, with the
 * k-1 warm-up and, across several slices, the k-1 right extension.
 */
std::size_t
chunkedCount(std::size_t n, std::size_t k, std::size_t slices,
             std::size_t chunk)
{
    const std::size_t overlap = k - 1;
    std::size_t chunks = 0;
    for (std::size_t s = 0; s < slices; ++s) {
        const std::size_t start = n * s / slices;
        const std::size_t stop = n * (s + 1) / slices;
        const std::size_t ws = start >= overlap ? start - overlap : 0;
        const std::size_t ext =
            slices > 1 ? std::min(overlap, n - stop) : 0;
        chunks += (stop + ext - ws + chunk - 1) / chunk;
    }
    return chunks;
}

TEST(ShardedService, SliceIsOneWindowWhenNothingReadsItsChunks)
{
    // With the per-chunk cross-check and the journal both off, nothing
    // reads a slice's chunk state: each slice is one window, so one
    // chunk and one checkpoint per slice, and the critical path is one
    // kernel call on the longest piece (2n + k + 4 beats on a rung
    // with no beat model of its own). Either one on keeps the chunks.
    const std::size_t n = 1000;
    const std::size_t k = 6;
    const auto req = randomRequest(0x1A7, 2, n, k);
    const std::vector<bool> want =
        core::ReferenceMatcher().match(req.text, req.pattern);
    for (const bool cross_check : {false, true}) {
        for (const bool journal : {false, true}) {
            ShardedConfig cfg = smallShardConfig(4, 2);
            cfg.base.crossCheck = cross_check;
            cfg.base.journalEnabled = journal;
            ShardedMatchService sharded(cfg, simdLadder);
            const MatchResponse resp = sharded.serve(req);
            ASSERT_TRUE(resp.ok()) << resp.error.detail;
            ASSERT_EQ(sharded.lastShards(), 4u);
            EXPECT_EQ(resp.result, want);
            const std::string plan =
                std::string("cross-check ") + (cross_check ? "on" : "off") +
                ", journal " + (journal ? "on" : "off");
            if (!cross_check && !journal) {
                EXPECT_EQ(resp.chunks, sharded.lastShards()) << plan;
                EXPECT_EQ(resp.checkpoints, sharded.lastShards()) << plan;
                // Interior slices are the longest pieces: 250 chars
                // plus k-1 of warm-up and k-1 of right extension.
                EXPECT_EQ(sharded.lastCriticalBeats(),
                          static_cast<Beat>(2 * (250 + 2 * (k - 1)) + k + 4))
                    << plan;
            } else {
                EXPECT_EQ(resp.chunks, chunkedCount(n, k, 4, 16)) << plan;
                EXPECT_EQ(resp.checkpoints, resp.chunks) << plan;
            }
        }
    }
}

TEST(ShardedService, DeadlineBeatsKeepsItsTypedCode)
{
    // A whole-request beat deadline applies per slice. Too small, it
    // fails every attempt, and the request ends in the typed shard
    // error whether the slice is chunked or one window; large enough,
    // both plans serve the request.
    auto req = randomRequest(0xDEAD, 2, 400, 6);
    for (const bool journal : {false, true}) {
        ShardedConfig cfg = smallShardConfig(4, 2);
        cfg.base.crossCheck = false;
        cfg.base.journalEnabled = journal;
        ShardedMatchService sharded(cfg, simdLadder);
        req.deadlineBeats = 50;
        const MatchResponse late = sharded.serve(req);
        EXPECT_FALSE(late.ok()) << "journal " << journal;
        EXPECT_EQ(late.error.code, ErrorCode::ShardFailed)
            << "journal " << journal << ": " << late.error.toString();
        EXPECT_NE(late.error.detail.find(
                      errorCodeName(ErrorCode::DeadlineExceeded)),
                  std::string::npos)
            << late.error.detail;
        EXPECT_TRUE(late.result.empty());

        req.deadlineBeats = 1 << 20;
        const MatchResponse in_time = sharded.serve(req);
        ASSERT_TRUE(in_time.ok()) << in_time.error.detail;
        EXPECT_EQ(in_time.result,
                  core::ReferenceMatcher().match(req.text, req.pattern));
    }
}

TEST(ShardedService, PinnedWorkersStayInsideTheAffinityMask)
{
    // Worker i takes the (i mod |mask|)-th allowed CPU, so a cpuset
    // that does not start at CPU 0, or holds fewer CPUs than the
    // machine, still gets every worker pinned inside it.
    EXPECT_EQ(pinCpuFor(0, {2, 3}), 2u);
    EXPECT_EQ(pinCpuFor(1, {2, 3}), 3u);
    EXPECT_EQ(pinCpuFor(2, {2, 3}), 2u);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(pinCpuFor(i, {5}), 5u);
        EXPECT_EQ(pinCpuFor(i, {0, 1, 2, 3}), i);
    }
    EXPECT_EQ(pinCpuFor(4, {1, 4, 6}), 4u);
}

TEST(ShardedService, SixteenBitAlphabetServes)
{
    ShardedConfig cfg = smallShardConfig(4, 16);
    ShardedMatchService sharded(cfg, simdLadder);
    Rng rng(0x16B);
    MatchRequest req;
    req.id = 16;
    req.pattern = {0xFFFE, wildcardSymbol, 300};
    for (std::size_t i = 0; i < 500; ++i)
        req.text.push_back(
            i % 17 == 0 ? Symbol(0xFFFE)
                        : i % 17 == 2 ? Symbol(300)
                                      : static_cast<Symbol>(rng.nextBelow(
                                            wildcardSymbol)));
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_GE(sharded.lastShards(), 2u);
    EXPECT_EQ(resp.result,
              core::ReferenceMatcher().match(req.text, req.pattern));

    req.text[250] = wildcardSymbol;
    const MatchResponse bad = sharded.serve(req);
    EXPECT_EQ(bad.error.code, ErrorCode::AlphabetOverflow);
}

} // namespace
} // namespace spm::service
