/**
 * @file
 * E20 -- request observability overhead: what does the reqobs layer
 * (stage clocks, SLO log-histograms, exemplar reservoirs) cost?
 *
 * The reqobs contract is stricter than E15's general telemetry gate:
 * the per-request layer must stay within 2% end to end when enabled,
 * and exactly 0% under SPM_TELEM_OFF (StageClock compiles to empty
 * inline bodies; the observer registers nothing). Three measurements:
 *
 *   end to end     the streaming service serves the same request with
 *                  sampling runtime-enabled and runtime-disabled, in
 *                  adjacent alternating pairs (see E15 for why the
 *                  min per-pair ratio beats independent best-of);
 *   batch          the same discipline over the batched front end,
 *                  where one observation amortizes over a whole pass
 *                  so the per-stream cost is near zero;
 *   micro          ns per StageClock mark and per histogram sample.
 *
 * The report writes BENCH_E20.json (override with --json <path>;
 * --smoke shrinks the sweep for CI).
 */

#include "bench/bench_common.hh"

#include <algorithm>
#include <chrono>
#include <functional>

#include "service/batch.hh"
#include "service/service.hh"
#include "telemetry/metrics.hh"
#include "telemetry/reqobs.hh"
#include "telemetry/telem.hh"
#include "util/table.hh"

namespace
{

using namespace spm;
using spm::bench::jsonReport;
using spm::bench::makeMatchWorkload;
using spm::bench::smokeMode;

double
secondsOf(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

bool
compiledOut()
{
#ifdef SPM_TELEM_OFF
    return true;
#else
    return false;
#endif
}

service::ServiceConfig
serviceConfig(std::size_t text_len)
{
    service::ServiceConfig cfg;
    cfg.alphabetBits = 2;
    cfg.maxTextLen = std::max<std::size_t>(text_len, 1) * 2;
    cfg.chunkChars = 256;
    cfg.crossCheck = false; // measure serving, not auditing
    cfg.journalEnabled = false;
    return cfg;
}

/** chars/sec in both modes plus the paired overhead estimate. */
struct Paired
{
    double charsPerSecOff = 0;
    double charsPerSecOn = 0;
    double overhead = 0;
};

Paired
pairedOverhead(std::size_t chars, int pairs,
               const std::function<double(bool)> &run_seconds)
{
    Paired r;
    double best_off = 1e300;
    double best_on = 1e300;
    double min_ratio = 1e300;
    for (int i = 0; i < pairs; ++i) {
        const bool on_first = (i & 1) != 0;
        const double a = run_seconds(on_first);
        const double b = run_seconds(!on_first);
        const double t_on = on_first ? a : b;
        const double t_off = on_first ? b : a;
        best_off = std::min(best_off, t_off);
        best_on = std::min(best_on, t_on);
        min_ratio = std::min(min_ratio, t_on / t_off);
    }
    telem::setSamplingEnabled(false);
    r.charsPerSecOff = static_cast<double>(chars) / best_off;
    r.charsPerSecOn = static_cast<double>(chars) / best_on;
    r.overhead = std::max(min_ratio - 1.0, 0.0);
    return r;
}

void
streamingReport()
{
    const std::size_t n = smokeMode() ? 16384 : 131072;
    const int pairs = smokeMode() ? 9 : 11;

    const auto w = makeMatchWorkload(n, 8, 2, 0.12);
    service::MatchService svc(serviceConfig(n));
    service::MatchRequest req;
    req.id = 20;
    req.text = w.text;
    req.pattern = w.pattern;
    service::MatchResponse warm = svc.serve(req);
    benchmark::DoNotOptimize(warm);

    const Paired e = pairedOverhead(n, pairs, [&](bool on) {
        telem::setSamplingEnabled(on);
        service::MatchResponse resp;
        const double s = secondsOf([&] { resp = svc.serve(req); });
        benchmark::DoNotOptimize(resp);
        return s;
    });

    Table table("Streaming service with reqobs sampling on vs off (" +
                std::to_string(n) + " chars, k = 8, 2-bit alphabet)");
    table.setHeader({"mode", "Mchars/s", "overhead"});
    table.addRowOf("sampling off", Table::fixed(e.charsPerSecOff / 1e6, 3),
                   "baseline");
    table.addRowOf(compiledOut() ? "sampling on (compiled out)"
                                 : "sampling on",
                   Table::fixed(e.charsPerSecOn / 1e6, 3),
                   Table::fixed(100.0 * e.overhead, 2) + "%");
    std::printf("%s\n", table.toString().c_str());

    jsonReport().set("reqobs.build",
                     compiledOut() ? "telem-off" : "default");
    jsonReport().set("reqobs.compiled_out", compiledOut() ? 1.0 : 0.0);
    jsonReport().set("reqobs.text_chars", static_cast<double>(n));
    jsonReport().set("reqobs.disabled_chars_per_sec", e.charsPerSecOff);
    jsonReport().set("reqobs.enabled_chars_per_sec", e.charsPerSecOn);
    jsonReport().set("reqobs.enabled_overhead_frac", e.overhead);
}

void
batchReport()
{
    const std::size_t streams = smokeMode() ? 64 : 256;
    const std::size_t per = smokeMode() ? 256 : 512;
    const int pairs = smokeMode() ? 7 : 9;
    // One pass is tens of microseconds; repeat it until a timing
    // sample is milliseconds so the pair ratio measures the work, not
    // the clock or the scheduler.
    const int reps = smokeMode() ? 64 : 96;

    service::BatchServiceConfig cfg;
    cfg.base = serviceConfig(per);
    service::BatchMatchService svc(cfg);

    const auto w = makeMatchWorkload(per, 8, 2, 0.12);
    std::vector<service::MatchRequest> batch(streams);
    for (std::size_t i = 0; i < streams; ++i) {
        batch[i].id = i + 1;
        batch[i].text = w.text;
        batch[i].pattern = w.pattern;
    }
    auto warm = svc.serveBatch(batch);
    benchmark::DoNotOptimize(warm);

    const Paired e = pairedOverhead(
        streams * per * static_cast<std::size_t>(reps), pairs,
        [&](bool on) {
            telem::setSamplingEnabled(on);
            const double s = secondsOf([&] {
                for (int r = 0; r < reps; ++r) {
                    auto out = svc.serveBatch(batch);
                    benchmark::DoNotOptimize(out);
                }
            });
            return s;
        });

    Table table("Batched front end with reqobs sampling on vs off (" +
                std::to_string(streams) + " streams x " +
                std::to_string(per) + " chars)");
    table.setHeader({"mode", "Mchars/s", "overhead"});
    table.addRowOf("sampling off", Table::fixed(e.charsPerSecOff / 1e6, 3),
                   "baseline");
    table.addRowOf("sampling on", Table::fixed(e.charsPerSecOn / 1e6, 3),
                   Table::fixed(100.0 * e.overhead, 2) + "%");
    std::printf("%s\n", table.toString().c_str());

    jsonReport().set("reqobs.batch_disabled_chars_per_sec",
                     e.charsPerSecOff);
    jsonReport().set("reqobs.batch_enabled_chars_per_sec",
                     e.charsPerSecOn);
    jsonReport().set("reqobs.batch_enabled_overhead_frac", e.overhead);
}

void
microReport()
{
    const std::uint64_t iters = smokeMode() ? 200000 : 2000000;

    telem::setSamplingEnabled(true);
    double mark_s = secondsOf([&] {
        telem::StageClock clock;
        clock.start();
        for (std::uint64_t i = 0; i < iters; ++i)
            clock.mark(telem::Stage::Kernel);
        benchmark::DoNotOptimize(clock);
    });
    telem::Registry reg(1);
    telem::Histogram &h = reg.histogram("bench.e20.hist");
    double sample_s = secondsOf([&] {
        for (std::uint64_t i = 0; i < iters; ++i)
            h.sample(static_cast<double>(i % 100000));
    });
    telem::setSamplingEnabled(false);
    double mark_off_s = secondsOf([&] {
        telem::StageClock clock;
        clock.start();
        for (std::uint64_t i = 0; i < iters; ++i)
            clock.mark(telem::Stage::Kernel);
        benchmark::DoNotOptimize(clock);
    });

    const double to_ns = 1e9 / static_cast<double>(iters);
    Table table("Per-site cost of the reqobs primitives");
    table.setHeader({"primitive", "ns/op"});
    table.addRowOf("StageClock mark (armed)",
                   Table::fixed(mark_s * to_ns, 1));
    table.addRowOf("StageClock mark (disarmed)",
                   Table::fixed(mark_off_s * to_ns, 1));
    table.addRowOf("Histogram sample", Table::fixed(sample_s * to_ns, 1));
    std::printf("%s\n", table.toString().c_str());

    jsonReport().set("reqobs.mark_ns", mark_s * to_ns);
    jsonReport().set("reqobs.mark_disarmed_ns", mark_off_s * to_ns);
    jsonReport().set("reqobs.loghist_sample_ns", sample_s * to_ns);
}

void
printReport()
{
    spm::bench::jsonDefaultPath("BENCH_E20.json");
    spm::bench::banner(
        "E20: request observability overhead",
        "Claim: per-request stage clocks, SLO log-histograms and\n"
        "exemplar reservoirs cost under 2% end to end when enabled and\n"
        "nothing at all under SPM_TELEM_OFF (empty inline bodies).");
    streamingReport();
    batchReport();
    microReport();
}

void
streamServe(benchmark::State &state)
{
    const bool sampling_on = state.range(0) != 0;
    const std::size_t n = 16384;
    const auto w = makeMatchWorkload(n, 8, 2, 0.12);
    service::MatchService svc(serviceConfig(n));
    service::MatchRequest req;
    req.text = w.text;
    req.pattern = w.pattern;
    telem::setSamplingEnabled(sampling_on);
    for (auto _ : state) {
        auto resp = svc.serve(req);
        benchmark::DoNotOptimize(resp);
    }
    telem::setSamplingEnabled(false);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}

void
stageClockMark(benchmark::State &state)
{
    telem::setSamplingEnabled(true);
    telem::StageClock clock;
    clock.start();
    for (auto _ : state)
        clock.mark(telem::Stage::Kernel);
    benchmark::DoNotOptimize(clock);
    telem::setSamplingEnabled(false);
}

BENCHMARK(streamServe)->Arg(0)->Arg(1);
BENCHMARK(stageClockMark);

} // namespace

SPM_BENCH_MAIN(printReport)
