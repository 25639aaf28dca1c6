/**
 * @file
 * Request-level observability: SLO latency recording, per-stage
 * attribution, and tail-sampled exemplar traces.
 *
 * The metrics registry (telemetry/metrics) measures components; this
 * layer measures *requests* — the boundary Foster & Kung argue a
 * special-purpose engine must be judged at. Three pieces:
 *
 *   StageClock         rides along one request and splits its wall
 *                      latency into admit / queue-wait / kernel /
 *                      cross-check / journal / commit stages, plus
 *                      the beat count the simulated chip charged;
 *   RequestObserver    folds finished clocks into per-service
 *                      histograms ("req.latency_ns",
 *                      "req.latency_beats", "req.stage.<stage>_ns")
 *                      so p50/p90/p99/p999 and a per-stage tail
 *                      breakdown fall out of any registry snapshot;
 *   ExemplarReservoir  keeps a bounded set of full per-request stage
 *                      traces — the slowest-N, a uniform sample, and
 *                      every force-retained request (watchdog trips,
 *                      ladder falls, cross-check mismatches) — each
 *                      linked to a replayable conformance case ID so
 *                      a bad exemplar can be re-executed offline.
 *
 * Cost discipline: StageClock's marks are two relaxed loads and a
 * steady_clock read when sampling is runtime-enabled, nothing when it
 * is not, and the whole layer compiles to empty inline bodies under
 * SPM_TELEM_OFF (the classes stay so call sites need no #ifdefs).
 * Case-ID strings are O(text) to build, so observe() takes a lazy
 * builder that only runs once the reservoir has decided to retain.
 */

#ifndef SPM_TELEMETRY_REQOBS_HH
#define SPM_TELEMETRY_REQOBS_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.hh"
#include "util/types.hh"

namespace spm::telem
{

/** Wall clock for request latency: monotonic nanoseconds. */
std::uint64_t nowNs();

/** The stages one request's latency decomposes into. */
enum class Stage : unsigned char
{
    Admit,      ///< validation, session setup, window assembly
    QueueWait,  ///< admission / shard queue residency
    Kernel,     ///< the matcher itself (any rung of the ladder)
    CrossCheck, ///< reference / overlap verification
    Journal,    ///< replay-journal recording
    Commit,     ///< bus transfer, result emission, checkpoint
};

inline constexpr std::size_t stageCount = 6;

/** Stable lowercase token ("queue_wait") for names and renders. */
const char *stageName(Stage s);

/**
 * Per-request stage attribution. start() arms the clock (capturing
 * the runtime sampling gate once), mark(s) credits the time since the
 * previous mark to stage @p s, note(s, ns) credits externally
 * measured time (queue waits timed by an enqueue stamp), addBeats
 * accumulates the simulated-chip cost. Everything is a no-op when
 * sampling was disabled at start() or under SPM_TELEM_OFF.
 */
class StageClock
{
  public:
#ifndef SPM_TELEM_OFF
    void start()
    {
        armed = samplingEnabled();
        if (armed)
            t0 = last = nowNs();
    }

    void mark(Stage s)
    {
        if (!armed)
            return;
        std::uint64_t now = nowNs();
        ns[static_cast<std::size_t>(s)] += now - last;
        last = now;
    }

    /** Credit externally measured time without moving the mark. */
    void note(Stage s, std::uint64_t duration_ns)
    {
        if (armed)
            ns[static_cast<std::size_t>(s)] += duration_ns;
    }

    void addBeats(Beat b)
    {
        if (armed)
            beatCount += b;
    }

    bool running() const { return armed; }
    std::uint64_t stageNs(Stage s) const
    {
        return ns[static_cast<std::size_t>(s)];
    }
    /** Wall nanoseconds since start(); live until observed. */
    std::uint64_t totalNs() const { return armed ? nowNs() - t0 : 0; }
    Beat beats() const { return beatCount; }
#else
    void start() {}
    void mark(Stage) {}
    void note(Stage, std::uint64_t) {}
    void addBeats(Beat) {}
    bool running() const { return false; }
    std::uint64_t stageNs(Stage) const { return 0; }
    std::uint64_t totalNs() const { return 0; }
    Beat beats() const { return 0; }
#endif

  private:
    bool armed = false;
    std::uint64_t t0 = 0;
    std::uint64_t last = 0;
    std::array<std::uint64_t, stageCount> ns{};
    Beat beatCount = 0;
};

/** One retained request trace: the stage split plus its replay link. */
struct Exemplar
{
    std::string service;   ///< observer label ("stream", "sharded", ...)
    std::uint64_t requestId = 0;
    std::uint64_t latencyNs = 0;
    Beat beats = 0;
    std::array<std::uint64_t, stageCount> stageNs{};
    std::string caseId;    ///< replayable conformance case ID
    bool forced = false;
    std::string reason;    ///< why it was force-retained
    std::uint64_t seq = 0; ///< observation sequence number

    /** Multi-line human rendering (stage split + case ID). */
    std::string render() const;
};

/**
 * Bounded tail-sampling reservoir. Three retention classes:
 *
 *   slowest   the N largest latencies seen (min-replacement);
 *   uniform   a classic reservoir sample of all observations, so the
 *             body of the distribution is represented too (the draw
 *             is a deterministic hash of (seed, seq): two runs over
 *             the same request stream retain the same exemplars);
 *   forced    a ring of the most recent force-retained requests —
 *             watchdog trips and ladder falls never compete with
 *             ordinary slow requests for space.
 *
 * The case-ID builder passed to offer() runs only when some class
 * retains the request, so the common fast path never materializes
 * O(text) strings.
 */
class ExemplarReservoir
{
  public:
    explicit ExemplarReservoir(std::size_t slowest_capacity = 8,
                               std::size_t uniform_capacity = 8,
                               std::size_t forced_capacity = 8,
                               std::uint64_t seed = 0x5eed);

    /** Consider one finished request; thread-safe. */
    void offer(Exemplar &&e,
               const std::function<std::string()> &case_id_fn);

    std::vector<Exemplar> slowest() const;  ///< sorted, slowest first
    std::vector<Exemplar> uniform() const;
    std::vector<Exemplar> forced() const;   ///< oldest first

    std::uint64_t offered() const;
    std::uint64_t retained() const;

    /** All three classes rendered for a dashboard / dump. */
    std::string renderText() const;

    void clear();

  private:
    mutable std::mutex mu;
    std::size_t slowCap, uniCap, forceCap;
    std::uint64_t seed;
    std::uint64_t seq = 0;
    std::uint64_t retainedCount = 0;
    std::vector<Exemplar> slow;
    std::vector<Exemplar> uni;
    std::deque<Exemplar> force;
};

/**
 * The per-service fold: binds the request-level histograms in one
 * registry and feeds them (and an optional reservoir) from finished
 * StageClocks. One observer per service front end; the sharded
 * service's lives on its supervision registry so its metrics render
 * under the "sharded." prefix its snapshot already applies.
 */
class RequestObserver
{
  public:
    /**
     * @param reg registry the req.* histograms register in
     * @param service_label stamped on exemplars ("stream", "batch"...)
     * @param reservoir exemplar sink; may be nullptr (histograms only)
     */
    RequestObserver(Registry &reg, std::string service_label,
                    ExemplarReservoir *reservoir);

    /**
     * Fold one finished request. @p case_id_fn builds the replayable
     * conformance case ID lazily (see ExemplarReservoir). @p force
     * retains the trace regardless of latency; @p force_reason says
     * why ("watchdog trip", "ladder fall", ...).
     */
    void observe(const StageClock &clock, std::uint64_t request_id,
                 bool force, const char *force_reason,
                 const std::function<std::string()> &case_id_fn);

    /**
     * Extra queue-wait samples that don't ride a full StageClock: the
     * batch front end serves many queued requests in one pass, so
     * each member's wait feeds the stage histogram directly.
     */
    void noteQueueWait(std::uint64_t wait_ns);

    const std::string &label() const { return serviceLabel; }

  private:
    std::string serviceLabel;
    ExemplarReservoir *reservoir;
#ifndef SPM_TELEM_OFF
    Histogram &latencyNsHist;
    Histogram &latencyBeatsHist;
    std::array<Histogram *, stageCount> stageHists{};
#endif
};

} // namespace spm::telem

#endif // SPM_TELEMETRY_REQOBS_HH
