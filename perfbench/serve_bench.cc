/**
 * @file
 * The serving benchmark binary.
 *
 *   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--spans <path>]
 *
 * One single-threaded closed-loop client sends the workload's next
 * front-end call only when the last one returned. Every output is
 * checked against the reference matchers outside the timed calls.
 *
 * --trace 0 prints the end-to-end metrics: chars_per_s, latency
 * p50/p99 (with the sample count), failed_frac, setup_s and
 * peak_rss_mb. --trace 1 runs three fresh front ends for seconds/3
 * each (untraced, telemetry sampling off, traced), replays the layer
 * calls under the traced one, prints the per-layer metrics and writes
 * the spans to --spans. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Exit status 1 when any
 * output was wrong, 2 on a usage error.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/simdpar.hh"
#include "telemetry/metrics.hh"

namespace
{

using namespace perfbench;

/**
 * Setups before and again after the timed phase. setup_s is the median
 * of these and of the front-end replacements within the phase, so the
 * samples spread over the whole run: a host's speed drifts over seconds
 * and would move a group taken at one moment as a whole.
 */
constexpr int setupReps = 5;
/**
 * Calls one front end serves before the timed phase replaces it with a
 * fresh one (the replacement is a set-up, timed as one); also the samples
 * each front end's p99 is taken over, so that ten lie beyond it.
 *
 * A front end's per-call cost depends on how many calls it has served:
 * its exemplar reservoirs fill, then retain ever fewer requests.
 * Without a fixed count, a faster build would serve more calls in the
 * same seconds and report a different tail for the same code, and p99
 * could sit on the edge of the retained share and jump between runs.
 */
constexpr std::size_t callsPerFrontEnd = 1000;
/** Longest a timed phase may run while its first front end fills. */
constexpr double phaseCapSeconds = 120;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string spans;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            if (*end)
                return false;
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (*end || !(a.seconds > 0))
                return false;
        } else if (key == "--trace") {
            if (std::strcmp(val, "0") && std::strcmp(val, "1"))
                return false;
            a.trace = val[0] - '0';
        } else if (key == "--spans") {
            a.spans = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
           a.trace >= 0;
}

std::string
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

bool
sanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

bool
optimized()
{
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

bool
telemCompiledOut()
{
#if defined(SPM_TELEM_OFF)
    return true;
#else
    return false;
#endif
}

/** The host record every output carries (one JSON object). */
std::string
hostRecord()
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"nproc\":%ld,\"simd_isa\":\"%s\",\"build_type\":\"%s\","
                  "\"optimized\":%s,\"sanitized\":%s,\"spm_telem_off\":%s,"
                  "\"compiler\":\"%s\"}",
                  sysconf(_SC_NPROCESSORS_ONLN),
                  spm::core::simdIsaName(spm::core::bestSimdIsa()),
                  PERFBENCH_BUILD_TYPE, optimized() ? "true" : "false",
                  sanitized() ? "true" : "false",
                  telemCompiledOut() ? "true" : "false",
                  compilerName().c_str());
    return buf;
}

/** One timed front-end call of a phase. */
struct Call
{
    double ms = 0;          ///< wall time of the call
    double quietMs = 0;     ///< the same, host noise taken out (setQuietMs)
    double chars = 0;       ///< characters it answered ok
    std::size_t input = 0;  ///< pool input it served
    std::uint64_t kept = 0; ///< retentions by the exemplar reservoir in it
};

struct Phase
{
    /** The calls, one vector per front end the phase used. */
    std::vector<std::vector<Call>> calls = std::vector<std::vector<Call>>(1);
    /** Seconds each front-end replacement took. */
    std::vector<double> setupS;
    std::size_t count = 0;
    std::uint64_t busyNs = 0;
    double chars = 0; ///< characters the timed calls answered ok
    Outcome out;

    double charsPerSecond() const
    {
        return busyNs ? chars * 1e9 / static_cast<double>(busyNs) : 0.0;
    }
};

/**
 * The closed loop on a front end that is already set up: call, then
 * check, until @p seconds have passed and @p min_samples calls were
 * made (or the cap ends the phase). Only the calls are timed; the
 * client's own checking between calls and the front-end replacements
 * are not charged to them.
 */
Phase
runPhase(Workload &w, double seconds, std::size_t min_samples, Tracer &tracer,
         std::uint64_t &next_id)
{
    Phase p;
    const std::uint64_t start = nowNs();
    for (;;) {
        const double elapsed = static_cast<double>(nowNs() - start) / 1e9;
        if ((elapsed >= seconds && p.count >= min_samples) ||
            elapsed >= phaseCapSeconds)
            break;
        if (p.calls.back().size() == callsPerFrontEnd) {
            w.tearDown();
            const std::uint64_t s0 = nowNs();
            p.out += w.setUp();
            p.setupS.push_back(static_cast<double>(nowNs() - s0) / 1e9);
            p.calls.emplace_back();
        }
        Call c;
        c.input = w.nextInput();
        const std::uint64_t kept_before = w.exemplarsRetained();
        const std::uint64_t id = next_id++;
        const std::uint64_t t0 = nowNs();
        w.call(id);
        const std::uint64_t t1 = nowNs();
        tracer.record("frontend", id, 0, t0, t1);
        c.ms = static_cast<double>(t1 - t0) / 1e6;
        c.kept = w.exemplarsRetained() - kept_before;
        ++p.count;
        p.busyNs += t1 - t0;
        const Outcome checked = w.check();
        c.chars = static_cast<double>(checked.chars);
        p.chars += c.chars;
        p.out += checked;
        p.calls.back().push_back(c);
    }
    return p;
}

/** Nearest-rank quantile of @p v (sorted in place). */
double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/**
 * Set each call's quietMs: the time of the fastest call of the phase
 * that did the same work. The host this benchmark was tuned on has slow
 * periods of seconds to minutes, when other tenants contend for the
 * shared cache and cache-bound calls take up to 1.5 times as long; a
 * figure over all calls lands wherever the mix of periods in the run
 * puts it, while the fastest of many repetitions of the same work does
 * not depend on that mix, and a slower build still slows every one.
 *
 * Two calls do the same work when they served the same pool input and
 * the exemplar reservoir retained as many requests during them. A
 * retention renders the request's case ID, long_scan's largest cost
 * after the kernel, so every retention a front end makes still counts,
 * at the price of the fastest retention of that input.
 */
void
setQuietMs(Phase &p)
{
    std::map<std::pair<std::size_t, std::uint64_t>, double> fastest;
    for (const auto &front : p.calls)
        for (const Call &c : front) {
            const auto [it, fresh] =
                fastest.try_emplace({c.input, c.kept}, c.ms);
            if (!fresh)
                it->second = std::min(it->second, c.ms);
        }
    for (auto &front : p.calls)
        for (Call &c : front)
            c.quietMs = fastest.at({c.input, c.kept});
}

/**
 * Quantile @p q of the phase's call times: taken per front end that
 * served all its callsPerFrontEnd calls, then the median over those
 * front ends; @p front_ends counts them. A burst of host noise then
 * moves the front ends it falls in, not the result. With no such front
 * end (the phase cap ended a slow run), all calls are pooled.
 */
double
latencyQuantile(const Phase &p, double q, std::size_t &front_ends)
{
    std::vector<double> per_front, all;
    for (const auto &front : p.calls) {
        std::vector<double> ms;
        for (const Call &c : front)
            ms.push_back(c.ms);
        all.insert(all.end(), ms.begin(), ms.end());
        if (ms.size() >= callsPerFrontEnd)
            per_front.push_back(quantile(ms, q));
    }
    front_ends = per_front.size();
    return per_front.empty() ? quantile(all, q) : median(per_front);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Reported
{
    std::string name;
    double value;
    std::string unit;
};

/** Print the metrics as lines, then the result object as the last line. */
int
finish(const Outcome &all, const std::vector<Reported> &metrics)
{
    for (const Reported &m : metrics)
        std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const bool correct = all.failed == 0 && all.ops > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(all.ops);
    json += ", \"failed\": " + std::to_string(all.failed);
    json += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, ",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value);
        json += buf;
        json += "\"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

int
untracedRun(Workload &w, const Args &args)
{
    Tracer off(false);
    std::uint64_t id = 1;
    Outcome all;
    std::vector<double> setupS;
    const auto setUps = [&] {
        for (int r = 0; r < setupReps; ++r) {
            const std::uint64_t t0 = nowNs();
            all += w.setUp();
            setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
            if (r + 1 < setupReps)
                w.tearDown();
        }
    };
    setUps();
    Phase p = runPhase(w, args.seconds, callsPerFrontEnd, off, id);
    w.tearDown();
    all += p.out;
    setUps();
    w.tearDown();
    setupS.insert(setupS.end(), p.setupS.begin(), p.setupS.end());

    setQuietMs(p);
    std::vector<double> quiet;
    double quiet_ms = 0;
    for (const auto &front : p.calls)
        for (const Call &c : front) {
            quiet.push_back(c.quietMs);
            quiet_ms += c.quietMs;
        }
    std::size_t used = 0;
    const double p99 = latencyQuantile(p, 0.99, used);
    std::printf("latency samples %zu on %zu front ends; p50 is over the "
                "calls' quiet times, p99 the median over the %zu front "
                "ends that served all %zu calls\n",
                p.count, p.calls.size(), used, callsPerFrontEnd);
    if (used == 0)
        std::printf("warning: no front end served %zu calls; p99 pools "
                    "all calls and may have fewer than ten beyond it\n",
                    callsPerFrontEnd);
    std::printf("failed_frac %.6g (%llu of %llu operations)\n",
                all.ops ? static_cast<double>(all.failed) /
                              static_cast<double>(all.ops)
                        : 0.0,
                static_cast<unsigned long long>(all.failed),
                static_cast<unsigned long long>(all.ops));
    return finish(all, {
                           {"chars_per_s",
                            quiet_ms > 0 ? p.chars * 1e3 / quiet_ms : 0.0,
                            "chars/s"},
                           {"latency_p50_ms", quantile(quiet, 0.50), "ms"},
                           {"latency_p99_ms", p99, "ms"},
                           {"setup_s", median(setupS), "s"},
                           {"peak_rss_mb", peakRssMb(), "MB"},
                       });
}

int
tracedRun(Workload &w, const Args &args)
{
    Tracer off(false);
    Tracer on(true);
    std::uint64_t id = 1;
    Outcome all;
    const double third = args.seconds / 3;

    // Three fresh front ends on the same inputs: the default, with
    // telemetry sampling off, and traced.
    all += w.setUp();
    const Phase untraced = runPhase(w, third, 0, off, id);
    w.tearDown();
    const bool sampling = spm::telem::samplingEnabled();
    spm::telem::setSamplingEnabled(false);
    all += w.setUp();
    const Phase unsampled = runPhase(w, third, 0, off, id);
    w.tearDown();
    spm::telem::setSamplingEnabled(sampling);
    all += w.setUp();
    const Phase traced = runPhase(w, third, 0, on, id);

    LayerMetrics layers;
    all += w.layers(on, layers);
    w.tearDown();
    all += untraced.out;
    all += unsampled.out;
    all += traced.out;

    const double cps = untraced.charsPerSecond();
    layers.set("trace.overhead_frac",
               cps > 0 ? 1.0 - traced.charsPerSecond() / cps : 0.0);
    const double cps_off = unsampled.charsPerSecond();
    layers.set("telemetry.overhead_frac",
               cps_off > 0 ? 1.0 - cps / cps_off : 0.0);

    if (!args.spans.empty()) {
        const std::string header =
            "{\"workload\":\"" + args.workload +
            "\",\"seed\":" + std::to_string(args.seed) +
            ",\"host\":" + hostRecord() + "}";
        if (on.write(args.spans, header))
            std::printf("spans %zu written to %s\n", on.size(),
                        args.spans.c_str());
        else
            std::printf("warning: could not write spans to %s\n",
                        args.spans.c_str());
    }

    std::vector<Reported> metrics;
    for (const auto &[name, unit] : layerMetricTable())
        metrics.push_back({name, layers.get(name), unit});
    return finish(all, metrics);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: serve_bench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--spans <path>]\n");
        return 2;
    }
    auto w = makeWorkload(args.workload, args.seed);
    if (!w) {
        std::fprintf(stderr, "serve_bench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    std::printf("host %s\n", hostRecord().c_str());
    if (!optimized() || sanitized())
        std::printf("warning: not an optimised, unsanitised build; "
                    "timings are not representative\n");
    if (args.workload == "long_scan" && sysconf(_SC_NPROCESSORS_ONLN) < 4)
        std::printf("warning: fewer than 4 cpus for long_scan's 4 "
                    "workers\n");
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace);
    return args.trace ? tracedRun(*w, args) : untracedRun(*w, args);
}
