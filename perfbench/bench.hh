/**
 * @file
 * Shared pieces of the serving benchmark: the seeded input generator,
 * the in-memory span recorder, the per-layer metric table and the
 * workload interface that serve_bench.cc runs.
 *
 * The benchmark only calls the repository's public APIs. The seed
 * reaches the generators in this directory and nothing else: the
 * program under test receives generated requests, never the seed.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/metrics.hh"
#include "telemetry/reqobs.hh"
#include "util/types.hh"

namespace perfbench
{

using spm::BitWidth;
using spm::Symbol;

/** Monotonic wall clock in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Deterministic input generator (splitmix64). One stream per
 * (seed, stream) pair, so every request of a pool is reproducible on
 * its own and independent of the library's own RNGs.
 */
class Gen
{
  public:
    Gen(std::uint64_t seed, std::uint64_t stream);

    std::uint64_t next();
    /** Uniform in [0, n). */
    std::size_t below(std::size_t n);
    /** Uniform in [lo, hi]. */
    std::size_t range(std::size_t lo, std::size_t hi);
    bool chance(double p);

    /** @p n symbols drawn uniformly from a 2^bits alphabet. */
    std::vector<Symbol> text(std::size_t n, BitWidth bits);
    /**
     * A pattern of @p k symbols, each a wild card with probability
     * @p wild; at least one position stays a concrete symbol.
     */
    std::vector<Symbol> pattern(std::size_t k, BitWidth bits, double wild);
    /**
     * Copy @p pattern into @p text at @p count uniform positions, wild
     * cards replaced by random symbols, so each copy is a hit.
     */
    void plant(std::vector<Symbol> &text, const std::vector<Symbol> &pattern,
               std::size_t count, BitWidth bits);

  private:
    std::uint64_t state;
};

/**
 * One timed interval: a front-end call or a replayed layer call. All
 * spans of one request carry its id; parent 0 marks a root span.
 * @c calls counts the layer calls a span covers (a span around a
 * validation loop covers one call per request of a bundle).
 */
struct Span
{
    const char *name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t calls = 1;
};

/**
 * Span recorder. Spans stay in memory and are written out once, when
 * the run ends. A disabled recorder still times (timed() returns the
 * duration) but keeps nothing, so untraced phases pay two clock reads.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    /** Record a finished span; returns its id (0 when disabled). */
    std::uint64_t record(const char *name, std::uint64_t request,
                         std::uint64_t parent, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::uint64_t calls = 1);

    /** Open a span to be closed later (children may name it parent). */
    std::uint64_t open(const char *name, std::uint64_t request,
                       std::uint64_t parent);
    void close(std::uint64_t id);

    /** Time @p fn as a span under @p parent; returns its length in ns. */
    template <class Fn>
    std::uint64_t timed(const char *name, std::uint64_t request,
                        std::uint64_t parent, Fn &&fn,
                        std::uint64_t calls = 1)
    {
        const std::uint64_t t0 = nowNs();
        fn();
        const std::uint64_t t1 = nowNs();
        record(name, request, parent, t0, t1, calls);
        return t1 - t0;
    }

    std::size_t size() const { return spans.size(); }

    /** Write every span as one JSON object per line; false on error. */
    bool write(const std::string &path, const std::string &header) const;

  private:
    bool on;
    std::uint64_t nextId = 1;
    std::vector<Span> spans;
};

/**
 * Repeated timings of one layer call per input: the statistic is the
 * sum over inputs of each input's median, so one slow repetition
 * (a preemption) does not move it.
 */
class RepTimes
{
  public:
    void add(std::size_t item, std::uint64_t ns);
    double sumOfMedians() const;

  private:
    std::vector<std::vector<std::uint64_t>> items;
};

/** Median of @p v (0 for an empty vector); reorders @p v. */
double median(std::vector<double> v);

/** The per-layer metric table: name -> unit, in output order. */
const std::vector<std::pair<std::string, std::string>> &layerMetricTable();

/**
 * Per-layer results of one traced run. Every name in
 * layerMetricTable() is reported for every workload; a layer the
 * workload does not call reads 0. set() panics on a name outside the
 * table, so the table and the code cannot drift apart.
 */
class LayerMetrics
{
  public:
    void set(const std::string &name, double value);
    double get(const std::string &name) const;

  private:
    std::map<std::string, double> vals;
};

/** Outcomes of front-end calls, checked against the references. */
struct Outcome
{
    std::uint64_t ops = 0;    ///< operations attempted
    std::uint64_t failed = 0; ///< outcome differs from the expected one
    std::uint64_t chars = 0;  ///< text characters of admitted requests

    Outcome &operator+=(const Outcome &o)
    {
        ops += o.ops;
        failed += o.failed;
        chars += o.chars;
        return *this;
    }
};

/**
 * One benchmark workload: a pool of generated inputs, their expected
 * outputs, and one front end of src/service serving them.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build a fresh front end (the previous one is gone) and make the
     * warm-up calls; serve_bench times this as setup_s.
     */
    virtual Outcome setUp() = 0;
    /** Destroy the front end (joins its threads). */
    virtual void tearDown() = 0;

    /** One front-end call on the next input: the timed region. */
    virtual void call(std::uint64_t request_id) = 0;
    /** Verify the last call's output; runs outside the timed region. */
    virtual Outcome check() = 0;

    /** The pool input the next call() serves. */
    virtual std::size_t nextInput() const = 0;
    /** Requests the front end's exemplar reservoir has retained so far. */
    virtual std::uint64_t exemplarsRetained() const = 0;

    /**
     * Replay each layer's public calls on the pool inputs under
     * @p tracer and fill @p out. Runs on the current front end after
     * the traced phase. Returns the checks made on the replayed
     * front-end calls.
     */
    virtual Outcome layers(Tracer &tracer, LayerMetrics &out) = 0;
};

/** The workload named @p name built from @p seed; nullptr if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/**
 * service.stage.*_p50_ns from the stage histograms named
 * @p prefix + "<stage>_ns" in @p snap.
 */
void stageMetrics(const spm::telem::Snapshot &snap, const std::string &prefix,
                  LayerMetrics &out);

/** telemetry.exemplars_retained_frac and case_id_bytes_max. */
void exemplarMetrics(const spm::telem::ExemplarReservoir &res,
                     LayerMetrics &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
