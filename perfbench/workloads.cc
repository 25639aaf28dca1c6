/**
 * @file
 * The four serving workloads. Each owns a pool of generated inputs
 * with their expected outputs (from core::ReferenceMatcher or
 * multipattern::NaiveDictMatcher, computed before any front end
 * exists), one front end of src/service, and the traced replays of
 * the layer calls under it.
 *
 * Why these four (the per-layer -> end-to-end map is in README.md):
 *   long_scan    long requests through the sharded front end on a
 *                pinned SIMD rung: slicing, overlap, the SIMD kernel,
 *                extraction and exemplar case-ID rendering;
 *   short_batch  bundles of short requests through the batch front
 *                end: validation, packing and per-pass overhead, with
 *                malformed requests on the rejection path;
 *   dict_stream  one dictionary session fed chunk by chunk: the
 *                multipattern trie sweep and the per-pattern hit copy;
 *   gate_stream  the streaming front end on the gate-level ladder with
 *                cross-check and journal on: the paper's chip on the
 *                serving path.
 */

#include <algorithm>
#include <limits>
#include <optional>

#include "bench.hh"
#include "core/batch.hh"
#include "core/gatechip.hh"
#include "core/reference.hh"
#include "core/simdpar.hh"
#include "multipattern/dict.hh"
#include "multipattern/planes.hh"
#include "service/batch.hh"
#include "service/dictserve.hh"
#include "service/service.hh"
#include "service/sharded.hh"

namespace perfbench
{

namespace
{

namespace svc = spm::service;
namespace core = spm::core;
namespace mp = spm::multipattern;

constexpr BitWidth alphabetBits = 2;
constexpr double wildFrac = 0.12;
/** Timed repetitions of each replayed call; the median is kept. */
constexpr std::size_t layerReps = 3;
/** Request ids of warm-up and replay calls, apart from timed ones. */
constexpr std::uint64_t warmupIdBase = std::uint64_t{1} << 62;
constexpr std::uint64_t replayIdBase = std::uint64_t{1} << 61;

double
perSecond(double units, double ns)
{
    return ns > 0 ? units * 1e9 / ns : 0.0;
}

/** 1 - layer / front end, both sums of per-input medians. */
double
overheadFrac(const RepTimes &layer, const RepTimes &front)
{
    const double f = front.sumOfMedians();
    return f > 0 ? 1.0 - layer.sumOfMedians() / f : 0.0;
}

bool
isOk(const svc::MatchResponse &r, const std::vector<bool> &want)
{
    return r.ok() && r.result == want;
}

// ---------------------------------------------------------------------
// long_scan

constexpr std::size_t longChars = 262144;
constexpr std::size_t longPool = 8;
constexpr std::size_t longWarmup = 4;
constexpr std::size_t kernelPairs = 5;

svc::ShardedConfig
longScanConfig(unsigned threads)
{
    // The E18 serving settings; everything else, telemetry sampling
    // included, stays at its default.
    svc::ShardedConfig cfg;
    cfg.base.alphabetBits = alphabetBits;
    cfg.base.maxTextLen = longChars;
    cfg.base.chunkChars = 512;
    cfg.base.crossCheck = false;
    cfg.base.journalEnabled = false;
    cfg.threads = threads;
    return cfg;
}

std::vector<std::unique_ptr<svc::ServiceBackend>>
simdRung(const svc::ServiceConfig &)
{
    std::vector<std::unique_ptr<svc::ServiceBackend>> rungs;
    rungs.push_back(std::make_unique<svc::MatcherBackend>(
        std::make_unique<core::SimdParallelMatcher>()));
    return rungs;
}

class LongScan final : public Workload
{
  public:
    explicit LongScan(std::uint64_t seed)
    {
        core::ReferenceMatcher ref;
        for (std::size_t i = 0; i < longPool; ++i) {
            Gen g(seed, 100 + i);
            svc::MatchRequest req;
            req.text = g.text(longChars, alphabetBits);
            req.pattern = g.pattern(8, alphabetBits, wildFrac);
            g.plant(req.text, req.pattern, 64, alphabetBits);
            expected.push_back(ref.match(req.text, req.pattern));
            pool.push_back(std::move(req));
        }
    }

    Outcome setUp() override
    {
        front = makeFront(4);
        cursor = 0;
        Outcome o;
        for (std::size_t w = 0; w < longWarmup; ++w) {
            call(warmupIdBase + w);
            o += check();
        }
        return o;
    }

    void tearDown() override { front.reset(); }

    void call(std::uint64_t id) override
    {
        svc::MatchRequest &req = pool[cursor % longPool];
        req.id = id;
        last = front->serve(req);
    }

    Outcome check() override
    {
        const std::size_t item = cursor++ % longPool;
        Outcome o;
        o.ops = 1;
        if (isOk(last, expected[item]))
            o.chars = longChars;
        else
            o.failed = 1;
        return o;
    }

    std::size_t nextInput() const override { return cursor % longPool; }

    std::uint64_t exemplarsRetained() const override
    {
        return front->exemplars().retained();
    }

    Outcome layers(Tracer &tracer, LayerMetrics &out) override
    {
        core::SimdParallelMatcher kernel;
        const svc::ServiceConfig &base = front->config().base;
        RepTimes serveT, validateT, matchT, packedT;
        double wordOps = 0, planes = 0, critical = 0, total = 0;
        Outcome o;
        const auto before = front->metricsSnapshot();
        std::uint64_t id = replayIdBase;
        for (std::size_t rep = 0; rep < layerReps; ++rep) {
            for (std::size_t item = 0; item < longPool; ++item, ++id) {
                svc::MatchRequest &req = pool[item];
                req.id = id;
                const std::uint64_t root = tracer.open("replay", id, 0);
                serveT.add(item, tracer.timed(
                                     "service.ShardedMatchService.serve",
                                     id, root,
                                     [&] { last = front->serve(req); }));
                o.ops += 1;
                o.failed += isOk(last, expected[item]) ? 0 : 1;
                std::optional<svc::ServiceError> verdict;
                validateT.add(item,
                              tracer.timed("service.validateRequest", id,
                                           root, [&] {
                                               verdict = svc::validateRequest(
                                                   base, req);
                                           }));
                o.failed += verdict ? 1 : 0;
                // The kernel calls take well under a millisecond, and
                // extraction is their small difference: time them in
                // alternating pairs, several per request.
                for (std::size_t k = 0; k < kernelPairs; ++k) {
                    std::vector<bool> bits;
                    matchT.add(item, tracer.timed(
                                         "core.SimdParallelMatcher.match",
                                         id, root, [&] {
                                             bits = kernel.match(
                                                 req.text, req.pattern);
                                         }));
                    o.failed += bits == expected[item] ? 0 : 1;
                    packedT.add(item,
                                tracer.timed(
                                    "core.SimdParallelMatcher.matchPacked",
                                    id, root, [&] {
                                        kernel.matchPacked(req.text,
                                                           req.pattern);
                                    }));
                }
                tracer.close(root);
                if (rep == 0) {
                    wordOps += static_cast<double>(kernel.lastWordOps());
                    planes += kernel.lastPlanes();
                    critical += static_cast<double>(
                        front->lastCriticalBeats());
                    total += static_cast<double>(front->lastTotalBeats());
                }
            }
        }
        const auto after = front->metricsSnapshot();
        const auto delta = after.delta(before);

        const double chars = static_cast<double>(longPool * longChars);
        const double calls = static_cast<double>(longPool * layerReps);
        out.set("service.overhead_frac", overheadFrac(matchT, serveT));
        out.set("service.validate_ns_per_req",
                validateT.sumOfMedians() / longPool);
        out.set("core.simd.kernel_chars_per_s",
                perSecond(chars, packedT.sumOfMedians()));
        out.set("core.simd.extract_ns_per_char",
                (matchT.sumOfMedians() - packedT.sumOfMedians()) / chars);
        out.set("core.simd.word_ops_per_char", wordOps / chars);
        out.set("core.simd.planes", planes / longPool);
        out.set("service.sharded.critical_beats", critical / longPool);
        out.set("service.sharded.total_beats", total / longPool);
        const auto *qw = delta.histogram("sharded.queue_wait_beats");
        out.set("service.sharded.queue_wait_beats_mean",
                qw && qw->samples() ? qw->mean() : 0.0);
        out.set("service.sharded.overlap_checks",
                static_cast<double>(
                    delta.counterValue("sharded.overlap_checks")) /
                    calls);
        out.set("service.sharded.shard_retries",
                static_cast<double>(
                    delta.counterValue("sharded.shard_retries")));

        // Request-level stages come from the sharded observer; the only
        // queue in this front end is the slice hand-off to the pool,
        // which the per-shard observers record.
        stageMetrics(after, "sharded.req.stage.", out);
        const auto *slice_wait =
            after.logHistogram("shard.req.stage.queue_wait_ns");
        out.set("service.stage.queue_wait_p50_ns",
                slice_wait ? slice_wait->quantile(0.5) : 0.0);
        exemplarMetrics(front->exemplars(), out);

        // Thread scaling on fresh front ends, one alive at a time so the
        // pool never exceeds four workers.
        front.reset();
        const double cps1 = scalingRun(tracer, 1, id, o);
        const double cps4 = scalingRun(tracer, 4, id, o);
        out.set("service.sharded.scaling_4v1", cps1 > 0 ? cps4 / cps1 : 0);
        return o;
    }

  private:
    static std::unique_ptr<svc::ShardedMatchService> makeFront(unsigned t)
    {
        return std::make_unique<svc::ShardedMatchService>(longScanConfig(t),
                                                          simdRung);
    }

    /** chars/s of a fresh @p threads-worker front end over the pool. */
    double scalingRun(Tracer &tracer, unsigned threads, std::uint64_t &id,
                      Outcome &o)
    {
        front = makeFront(threads);
        for (std::size_t w = 0; w < longWarmup; ++w) {
            last = front->serve(pool[w % longPool]);
            o.ops += 1;
            o.failed += isOk(last, expected[w % longPool]) ? 0 : 1;
        }
        RepTimes serveT;
        const char *span = threads == 1
                               ? "service.ShardedMatchService.serve.1t"
                               : "service.ShardedMatchService.serve.4t";
        for (std::size_t rep = 0; rep < layerReps; ++rep)
            for (std::size_t item = 0; item < longPool; ++item, ++id) {
                pool[item].id = id;
                serveT.add(item, tracer.timed(span, id, 0, [&] {
                    last = front->serve(pool[item]);
                }));
                o.ops += 1;
                o.failed += isOk(last, expected[item]) ? 0 : 1;
            }
        front.reset();
        return perSecond(static_cast<double>(longPool * longChars),
                         serveT.sumOfMedians());
    }

    std::vector<svc::MatchRequest> pool;
    std::vector<std::vector<bool>> expected;
    std::unique_ptr<svc::ShardedMatchService> front;
    svc::MatchResponse last;
    std::size_t cursor = 0;
};

// ---------------------------------------------------------------------
// short_batch

constexpr std::size_t bundleSize = 1024;
constexpr std::size_t batchPool = 8;
constexpr std::size_t batchWarmup = 4;

struct Bundle
{
    std::vector<svc::MatchRequest> reqs;
    /** Expected typed code per request (Ok for admissible ones). */
    std::vector<svc::ErrorCode> want;
    std::vector<std::vector<bool>> expected;
    /** Admitted requests grouped by pattern, in serveBatch's order. */
    struct Group
    {
        std::vector<Symbol> pattern;
        std::vector<std::size_t> members;
    };
    std::vector<Group> groups;
    std::uint64_t admittedChars = 0;
};

class ShortBatch final : public Workload
{
  public:
    explicit ShortBatch(std::uint64_t seed)
    {
        core::ReferenceMatcher ref;
        for (std::size_t b = 0; b < batchPool; ++b) {
            Gen g(seed, 200 + b);
            Bundle bundle;
            const auto shared = g.pattern(8, alphabetBits, wildFrac);
            for (std::size_t r = 0; r < bundleSize; ++r) {
                svc::MatchRequest req;
                req.id = b * bundleSize + r;
                req.text = g.text(g.range(16, 256), alphabetBits);
                // Every bundle has the same mix: 7 of 8 requests share
                // the pattern, and 1 in 64 is malformed, alternating
                // between the two kinds.
                req.pattern = r % 8 != 7
                                  ? shared
                                  : g.pattern(g.range(1, 16), alphabetBits,
                                              wildFrac);
                g.plant(req.text, req.pattern, g.range(1, 3), alphabetBits);
                svc::ErrorCode want = svc::ErrorCode::Ok;
                if (r % 64 == 60) {
                    if ((r / 64) % 2 == 0) {
                        req.text[g.below(req.text.size())] =
                            static_cast<Symbol>(4 + g.below(100));
                        want = svc::ErrorCode::AlphabetOverflow;
                    } else {
                        req.pattern = g.pattern(g.range(65, 96),
                                                alphabetBits, wildFrac);
                        want = svc::ErrorCode::OversizedRequest;
                    }
                }
                bundle.expected.push_back(
                    want == svc::ErrorCode::Ok
                        ? ref.match(req.text, req.pattern)
                        : std::vector<bool>{});
                bundle.want.push_back(want);
                bundle.reqs.push_back(std::move(req));
            }
            groupAdmitted(bundle);
            pool.push_back(std::move(bundle));
        }
    }

    Outcome setUp() override
    {
        front = std::make_unique<svc::BatchMatchService>(config());
        cursor = 0;
        Outcome o;
        for (std::size_t w = 0; w < batchWarmup; ++w) {
            call(warmupIdBase + w);
            o += check();
        }
        return o;
    }

    void tearDown() override { front.reset(); }

    void call(std::uint64_t) override
    {
        last = front->serveBatch(pool[cursor % batchPool].reqs);
    }

    Outcome check() override { return verify(pool[cursor++ % batchPool]); }

    std::size_t nextInput() const override { return cursor % batchPool; }

    std::uint64_t exemplarsRetained() const override
    {
        return front->exemplars().retained();
    }

    Outcome layers(Tracer &tracer, LayerMetrics &out) override
    {
        core::BatchMatcher engine;
        const svc::ServiceConfig &base = front->config().base;
        RepTimes serveT, validateT, manyT;
        double kernelChars = 0, admitted = 0;
        Outcome o;
        const auto before = front->metricsSnapshot();
        std::uint64_t id = replayIdBase;
        for (std::size_t rep = 0; rep < layerReps; ++rep) {
            for (std::size_t b = 0; b < batchPool; ++b, ++id) {
                const Bundle &bundle = pool[b];
                const std::uint64_t root = tracer.open("replay", id, 0);
                serveT.add(b, tracer.timed(
                                  "service.BatchMatchService.serveBatch", id,
                                  root,
                                  [&] { last = front->serveBatch(bundle.reqs); }));
                o += verify(bundle);

                std::size_t wrong = 0;
                validateT.add(b, tracer.timed(
                                     "service.validateRequest", id, root,
                                     [&] {
                                         for (std::size_t r = 0;
                                              r < bundle.reqs.size(); ++r) {
                                             const auto v =
                                                 svc::validateRequest(
                                                     base, bundle.reqs[r]);
                                             const auto code =
                                                 v ? v->code
                                                   : svc::ErrorCode::Ok;
                                             wrong += code != bundle.want[r];
                                         }
                                     },
                                     bundle.reqs.size()));
                o.failed += wrong;

                std::uint64_t groupNs = 0;
                for (const Bundle::Group &grp : bundle.groups) {
                    std::vector<const std::vector<Symbol> *> texts;
                    for (std::size_t m : grp.members)
                        texts.push_back(&bundle.reqs[m].text);
                    std::vector<std::vector<bool>> bits;
                    groupNs += tracer.timed(
                        "core.BatchMatcher.matchMany", id, root, [&] {
                            bits = engine.matchMany(texts, grp.pattern);
                        });
                    for (std::size_t m = 0; m < grp.members.size(); ++m)
                        o.failed +=
                            bits[m] == bundle.expected[grp.members[m]] ? 0
                                                                       : 1;
                    if (rep == 0)
                        kernelChars +=
                            static_cast<double>(engine.lastKernelChars());
                }
                manyT.add(b, groupNs);
                tracer.close(root);
                if (rep == 0)
                    admitted += static_cast<double>(bundle.admittedChars);
            }
        }
        const auto after = front->metricsSnapshot();
        const auto delta = after.delta(before);
        const double bundles = static_cast<double>(batchPool * layerReps);

        out.set("service.overhead_frac", overheadFrac(manyT, serveT));
        out.set("service.validate_ns_per_req",
                validateT.sumOfMedians() / (batchPool * bundleSize));
        out.set("service.batch.passes_per_bundle",
                static_cast<double>(delta.counterValue("kernelPasses")) /
                    bundles);
        const auto *width = delta.histogram("batch_width");
        out.set("service.batch.width_mean",
                width && width->samples() ? width->mean() : 0.0);
        out.set("service.batch.rejected",
                static_cast<double>(delta.counterValue("rejected")) / bundles);
        out.set("core.batch.kernel_chars_per_s",
                perSecond(admitted, manyT.sumOfMedians()));
        out.set("core.batch.fill_ratio",
                kernelChars > 0 ? admitted / kernelChars : 0.0);
        stageMetrics(after, "req.stage.", out);
        exemplarMetrics(front->exemplars(), out);
        return o;
    }

  private:
    static svc::BatchServiceConfig config()
    {
        svc::BatchServiceConfig cfg;
        cfg.base.alphabetBits = alphabetBits;
        return cfg;
    }

    /** Group admissible requests by pattern, first occurrence first. */
    static void groupAdmitted(Bundle &bundle)
    {
        for (std::size_t r = 0; r < bundle.reqs.size(); ++r) {
            if (bundle.want[r] != svc::ErrorCode::Ok)
                continue;
            bundle.admittedChars += bundle.reqs[r].text.size();
            auto it = std::find_if(
                bundle.groups.begin(), bundle.groups.end(),
                [&](const Bundle::Group &grp) {
                    return grp.pattern == bundle.reqs[r].pattern;
                });
            if (it == bundle.groups.end()) {
                bundle.groups.push_back({bundle.reqs[r].pattern, {}});
                it = bundle.groups.end() - 1;
            }
            it->members.push_back(r);
        }
    }

    Outcome verify(const Bundle &bundle) const
    {
        Outcome o;
        o.ops = bundle.reqs.size();
        for (std::size_t r = 0; r < bundle.reqs.size(); ++r) {
            const svc::MatchResponse &resp = last.at(r);
            if (bundle.want[r] != svc::ErrorCode::Ok) {
                o.failed += resp.error.code == bundle.want[r] ? 0 : 1;
            } else if (isOk(resp, bundle.expected[r])) {
                o.chars += bundle.reqs[r].text.size();
            } else {
                o.failed += 1;
            }
        }
        return o;
    }

    std::vector<Bundle> pool;
    std::unique_ptr<svc::BatchMatchService> front;
    std::vector<svc::MatchResponse> last;
    std::size_t cursor = 0;
};

// ---------------------------------------------------------------------
// dict_stream

constexpr std::size_t dictMembers = 64;
constexpr std::size_t dictChunk = 4096;
constexpr std::size_t dictPool = 64;
constexpr std::size_t dictWarmup = 8;

class DictStream final : public Workload
{
  public:
    explicit DictStream(std::uint64_t seed)
    {
        Gen g(seed, 300);
        // Members share a few prefix and suffix stems and carry a few
        // wild cards, so the suffix trie has shared structure to fuse.
        std::vector<std::vector<Symbol>> prefixes, suffixes;
        for (int s = 0; s < 6; ++s) {
            prefixes.push_back(g.text(g.range(2, 4), alphabetBits));
            suffixes.push_back(g.text(g.range(2, 4), alphabetBits));
        }
        for (std::size_t m = 0; m < dictMembers; ++m) {
            const std::size_t len = g.range(4, 16);
            std::vector<Symbol> pre, suf;
            if (g.chance(0.6))
                pre = prefixes[g.below(prefixes.size())];
            if (g.chance(0.6))
                suf = suffixes[g.below(suffixes.size())];
            if (pre.size() + suf.size() > len)
                suf.clear();
            std::vector<Symbol> member = pre;
            // One symbol more than the body needs is drawn and dropped,
            // so an empty body needs no special case.
            const auto body =
                g.pattern(len - pre.size() - suf.size() + 1, alphabetBits,
                          0.05);
            member.insert(member.end(), body.begin(), body.end() - 1);
            member.insert(member.end(), suf.begin(), suf.end());
            dict.push_back(std::move(member));
        }
        kmax = mp::longestPattern(dict);

        // One cyclic text cut into the chunk pool; members are planted
        // anywhere, so some straddle chunk boundaries.
        auto text = g.text(dictChunk * dictPool, alphabetBits);
        for (std::size_t p = 0; p < dictPool * 24; ++p)
            g.plant(text, dict[g.below(dict.size())], 1, alphabetBits);
        for (std::size_t c = 0; c < dictPool; ++c)
            chunks.emplace_back(text.begin() + c * dictChunk,
                                text.begin() + (c + 1) * dictChunk);

        mp::NaiveDictMatcher naive;
        firstExpected = naive.matchAll(chunks[0], dict);
        for (std::size_t c = 0; c < dictPool; ++c) {
            windows.push_back(window(c));
            auto hits = naive.matchAll(windows.back(), dict);
            for (auto &row : hits.bits)
                row.erase(row.begin(), row.begin() + (kmax - 1));
            expected.push_back(std::move(hits));
        }
    }

    Outcome setUp() override
    {
        front = std::make_unique<svc::DictMatchService>(config());
        svc::DictError err;
        session = front->openSession(dict, err);
        cursor = 0;
        Outcome o;
        o.failed += err.ok() ? 0 : 1;
        for (std::size_t w = 0; w < dictWarmup; ++w) {
            call(warmupIdBase + w);
            o += check();
        }
        return o;
    }

    void tearDown() override
    {
        session = svc::DictSession{};
        front.reset();
    }

    void call(std::uint64_t) override
    {
        last = front->feedChunk(session, chunks[cursor % dictPool]);
    }

    Outcome check() override
    {
        const mp::DictHits &want =
            cursor == 0 ? firstExpected : expected[cursor % dictPool];
        ++cursor;
        Outcome o;
        o.ops = 1;
        if (last.ok() && last.hits == want)
            o.chars = dictChunk;
        else
            o.failed = 1;
        return o;
    }

    std::size_t nextInput() const override { return cursor % dictPool; }

    std::uint64_t exemplarsRetained() const override
    {
        return front->exemplars().retained();
    }

    Outcome layers(Tracer &tracer, LayerMetrics &out) override
    {
        mp::BitSlicedDictMatcher engine;
        mp::BitSlicedDictMatcher feedEngine;
        mp::DictStreamState feedState;
        RepTimes feedChunkT, validateT, sweepT, feedT;
        double planes = 0, sweeps = 0, hits = 0;
        Outcome o;
        std::uint64_t id = replayIdBase;
        // The session continues where the traced phase left it, so the
        // replay walks the cycle from there; every chunk is replayed
        // layerReps times.
        for (std::size_t step = 0; step < dictPool * layerReps;
             ++step, ++id) {
            const std::size_t item = cursor % dictPool;
            const std::uint64_t root = tracer.open("replay", id, 0);
            feedChunkT.add(item, tracer.timed(
                                     "service.DictMatchService.feedChunk",
                                     id, root, [&] { call(id); }));
            o += check();
            svc::DictError verdict;
            validateT.add(item, tracer.timed(
                                    "service.validateDict", id, root,
                                    [&] { verdict = front->validateDict(dict); }));
            o.failed += verdict.ok() ? 0 : 1;
            mp::DictHits swept;
            sweepT.add(item, tracer.timed(
                                 "multipattern.BitSlicedDictMatcher.matchAll",
                                 id, root, [&] {
                                     swept = engine.matchAll(windows[item],
                                                             dict);
                                 }));
            feedT.add(item, tracer.timed(
                                "multipattern.feedDictChunk", id, root, [&] {
                                    mp::feedDictChunk(feedEngine, feedState,
                                                      chunks[item], dict);
                                }));
            tracer.close(root);
            if (step < dictPool) {
                planes += engine.lastPlanes();
                sweeps += static_cast<double>(engine.lastSweeps());
                for (auto &row : swept.bits)
                    row.erase(row.begin(), row.begin() + (kmax - 1));
                hits += static_cast<double>(swept.totalHits());
                o.failed += swept == expected[item] ? 0 : 1;
            }
        }
        const double chars = static_cast<double>(dictPool * dictChunk);
        out.set("service.overhead_frac", overheadFrac(sweepT, feedChunkT));
        out.set("service.validate_ns_per_req",
                validateT.sumOfMedians() / dictPool);
        out.set("multipattern.sweep_chars_per_s",
                perSecond(chars, sweepT.sumOfMedians()));
        out.set("multipattern.feed_chars_per_s",
                perSecond(chars, feedT.sumOfMedians()));
        out.set("multipattern.planes_per_chunk", planes / dictPool);
        out.set("multipattern.sweeps_per_chunk", sweeps / dictPool);
        out.set("multipattern.hits", hits / dictPool);
        stageMetrics(front->metricsSnapshot(), "req.stage.", out);
        exemplarMetrics(front->exemplars(), out);
        return o;
    }

  private:
    static svc::DictServiceConfig config()
    {
        svc::DictServiceConfig cfg;
        cfg.base.alphabetBits = alphabetBits;
        // One session streams for the front end's whole life; the
        // cumulative stream-length bound must not end it.
        cfg.base.maxTextLen = std::numeric_limits<std::size_t>::max() / 2;
        return cfg;
    }

    /** Chunk @p c with the kmax-1 characters before it in the cycle. */
    std::vector<Symbol> window(std::size_t c) const
    {
        const auto &prev = chunks[(c + dictPool - 1) % dictPool];
        std::vector<Symbol> w(prev.end() - (kmax - 1), prev.end());
        w.insert(w.end(), chunks[c].begin(), chunks[c].end());
        return w;
    }

    mp::DictPatterns dict;
    std::size_t kmax = 0;
    std::vector<std::vector<Symbol>> chunks;
    std::vector<std::vector<Symbol>> windows;
    mp::DictHits firstExpected;
    std::vector<mp::DictHits> expected;
    std::unique_ptr<svc::DictMatchService> front;
    svc::DictSession session;
    svc::DictMatchService::ChunkResult last;
    std::size_t cursor = 0;
};

// ---------------------------------------------------------------------
// gate_stream

constexpr std::size_t gateChars = 1024;
constexpr std::size_t gatePool = 32;
constexpr std::size_t gateWarmup = 4;

/**
 * The ladder built here, not by makeDefaultLadder, so a change to the
 * default cannot change what this workload measures: gate level, then
 * behavioral, then software.
 */
std::vector<std::unique_ptr<svc::ServiceBackend>>
gateLadder(const svc::ServiceConfig &cfg)
{
    std::vector<std::unique_ptr<svc::ServiceBackend>> ladder;
    auto gate =
        std::make_unique<core::GateLevelMatcher>(cfg.cells, cfg.alphabetBits);
    core::GateLevelMatcher *gate_raw = gate.get();
    ladder.push_back(std::make_unique<svc::MatcherBackend>(
        std::move(gate), cfg.cells, [gate_raw] { return gate_raw->lastBeats(); }));
    ladder.push_back(std::make_unique<svc::BehavioralBackend>(cfg.cells));
    ladder.push_back(std::make_unique<svc::SoftwareBackend>());
    return ladder;
}

class GateStream final : public Workload
{
  public:
    explicit GateStream(std::uint64_t seed)
    {
        core::ReferenceMatcher ref;
        for (std::size_t i = 0; i < gatePool; ++i) {
            Gen g(seed, 400 + i);
            svc::MatchRequest req;
            req.text = g.text(gateChars, alphabetBits);
            // Pattern lengths 1..8 in equal shares.
            req.pattern = g.pattern(1 + i % 8, alphabetBits, wildFrac);
            g.plant(req.text, req.pattern, 4, alphabetBits);
            expected.push_back(ref.match(req.text, req.pattern));
            pool.push_back(std::move(req));
        }
    }

    Outcome setUp() override
    {
        const svc::ServiceConfig cfg; // defaults: chunk 32, cross-check, journal
        front = std::make_unique<svc::MatchService>(cfg, gateLadder(cfg));
        cursor = 0;
        Outcome o;
        for (std::size_t w = 0; w < gateWarmup; ++w) {
            call(warmupIdBase + w);
            o += check();
        }
        return o;
    }

    void tearDown() override { front.reset(); }

    void call(std::uint64_t id) override
    {
        svc::MatchRequest &req = pool[cursor % gatePool];
        req.id = id;
        last = front->serve(req);
    }

    Outcome check() override
    {
        const std::size_t item = cursor++ % gatePool;
        Outcome o;
        o.ops = 1;
        // A request that fell off the gate-level rung was answered, but
        // not by the layer this workload exists to measure.
        if (isOk(last, expected[item]) && last.degradations == 0)
            o.chars = gateChars;
        else
            o.failed = 1;
        return o;
    }

    std::size_t nextInput() const override { return cursor % gatePool; }

    std::uint64_t exemplarsRetained() const override
    {
        return front->exemplars().retained();
    }

    Outcome layers(Tracer &tracer, LayerMetrics &out) override
    {
        const svc::ServiceConfig &base = front->config();
        core::GateLevelMatcher gate(base.cells, base.alphabetBits);
        core::ReferenceMatcher ref;
        RepTimes serveT, validateT, gateT, refT;
        double beats = 0, evals = 0, degradations = 0;
        Outcome o;
        std::uint64_t id = replayIdBase;
        for (std::size_t rep = 0; rep < layerReps; ++rep) {
            for (std::size_t item = 0; item < gatePool; ++item, ++id) {
                svc::MatchRequest &req = pool[item];
                req.id = id;
                const std::uint64_t root = tracer.open("replay", id, 0);
                serveT.add(item, tracer.timed("service.MatchService.serve",
                                              id, root,
                                              [&] { last = front->serve(req); }));
                o.ops += 1;
                const bool ok =
                    isOk(last, expected[item]) && last.degradations == 0;
                o.failed += ok ? 0 : 1;
                degradations += static_cast<double>(last.degradations);
                std::optional<svc::ServiceError> verdict;
                validateT.add(item,
                              tracer.timed("service.validateRequest", id,
                                           root, [&] {
                                               verdict = svc::validateRequest(
                                                   base, req);
                                           }));
                o.failed += verdict ? 1 : 0;
                std::vector<bool> bits;
                gateT.add(item, tracer.timed(
                                    "gate.GateLevelMatcher.match", id, root,
                                    [&] { bits = gate.match(req.text,
                                                            req.pattern); }));
                o.failed += bits == expected[item] ? 0 : 1;
                if (rep == 0) {
                    beats += static_cast<double>(gate.lastBeats());
                    evals += static_cast<double>(gate.lastEvals());
                }
                refT.add(item, tracer.timed(
                                   "core.ReferenceMatcher.match", id, root,
                                   [&] { bits = ref.match(req.text,
                                                          req.pattern); }));
                tracer.close(root);
            }
        }
        const double chars = static_cast<double>(gatePool * gateChars);
        out.set("service.overhead_frac", overheadFrac(gateT, serveT));
        out.set("service.validate_ns_per_req",
                validateT.sumOfMedians() / gatePool);
        out.set("service.stream.degradations", degradations);
        out.set("gate.host_ns_per_sim_beat",
                beats > 0 ? gateT.sumOfMedians() / beats : 0.0);
        out.set("gate.sim_beats_per_char", beats / chars);
        out.set("gate.device_evals_per_char", evals / chars);
        out.set("core.reference.chars_per_s",
                perSecond(chars, refT.sumOfMedians()));
        stageMetrics(front->metricsSnapshot(), "req.stage.", out);
        exemplarMetrics(front->exemplars(), out);
        return o;
    }

  private:
    std::vector<svc::MatchRequest> pool;
    std::vector<std::vector<bool>> expected;
    std::unique_ptr<svc::MatchService> front;
    svc::MatchResponse last;
    std::size_t cursor = 0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "long_scan")
        return std::make_unique<LongScan>(seed);
    if (name == "short_batch")
        return std::make_unique<ShortBatch>(seed);
    if (name == "dict_stream")
        return std::make_unique<DictStream>(seed);
    if (name == "gate_stream")
        return std::make_unique<GateStream>(seed);
    return nullptr;
}

} // namespace perfbench
