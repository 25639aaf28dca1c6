/**
 * @file
 * The sharded multi-threaded front end of the match service, with
 * shard-level fault tolerance.
 *
 * One MatchService streams a request through one chip; when the host
 * has several chips (or several simulator cores) the text can be cut
 * into shards and matched concurrently, because r_i depends only on
 * the k-1 characters before position i. ShardedMatchService owns a
 * fixed pool of worker threads and one complete MatchService per
 * shard slot -- each with its own degradation ladder, watchdog,
 * checkpoints and replay journal, so the resilience semantics of the
 * single-stream service hold per shard with nothing shared between
 * workers. serve() splits the text into at most threadCount() slices.
 * Each shard's window overlaps its left neighbor by k-1 characters of
 * warm-up (dropped at stitching: those bits are computed with
 * truncated history) and, when the overlap cross-check is on, also
 * extends k-1 characters past its own end -- so the first k-1 *kept*
 * positions of every interior slice are computed twice with full
 * history, once by each neighbor. The stitched response is
 * bit-identical to the unsharded service.
 *
 * The slice plan. serve() only plans the slices on the calling
 * thread: each one is a [begin, end) range of the request text. The
 * worker that claims a slice copies its piece out of the request and
 * moves it into the shard's session, so every character is copied
 * once, in parallel, and never by the caller. A slice's checkpoints
 * never leave its shard, so ServiceConfig::chunkChars -- the
 * checkpoint granularity -- applies only when something reads the
 * per-chunk state: the per-chunk cross-check or the journal. With
 * both off, a slice is served as one window (one watchdog arm, one
 * kernel call, one bus charge) read straight from the piece.
 *
 * The fault-tolerance story mirrors Section 5's wafer-harvest model
 * one level up: the paper buys yield from defective cells with spare
 * cells and reconfiguration; the serving layer buys availability from
 * defective *shards* with spare shard slots and re-routing:
 *
 *   bounded waits  serve() never blocks past batchDeadlineMs on a
 *                  wedged worker -- unfinished slices are abandoned
 *                  (their late results discarded by attempt epoch)
 *                  and retried elsewhere;
 *   task isolation an exception escaping a shard task is caught at
 *                  the task boundary and surfaced as a typed
 *                  ShardError, never process death;
 *   spare slots    a failed or timed-out slice is re-executed on a
 *                  spare MatchService slot (the harvest analogy made
 *                  explicit), up to maxSliceRetries attempts;
 *   quarantine     a slot that fails repeatedly trips a circuit
 *                  breaker: it stops receiving primary slices until a
 *                  half-open probe (every probeAfterBatches batches)
 *                  succeeds;
 *   overlap check  each slice's right extension recomputes the k-1
 *                  bits its right neighbor will keep -- before
 *                  stitching, the two full-history copies are compared
 *                  as an end-to-end integrity check; a mismatch
 *                  re-executes both suspect slices on spares and dumps
 *                  a replayable conformance case ID via the flight
 *                  recorder.
 *
 * Time is reported both ways: beats is the critical path (the slowest
 * shard, what a host with one chip per shard would wait), and
 * lastTotalBeats() the summed effort across shards (including retried
 * attempts).
 */

#ifndef SPM_SERVICE_SHARDED_HH
#define SPM_SERVICE_SHARDED_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/backend.hh"
#include "service/service.hh"
#include "telemetry/flightrec.hh"

namespace spm::service
{

/** Configuration of the sharded front end. */
struct ShardedConfig
{
    /** Per-shard serving configuration (ladder, limits, watchdog). */
    ServiceConfig base;
    /** Worker threads; also the maximum shard count. */
    unsigned threads = 4;
    /**
     * Smallest text slice worth a shard of its own: requests shorter
     * than 2 * minShardChars stay on one shard, and the shard count
     * never exceeds text/minShardChars. Keeps the k-1 overlap recompute
     * and per-shard chip warm-up amortized.
     */
    std::size_t minShardChars = 256;
    /**
     * Spare shard slots (each a full MatchService) kept out of primary
     * slice assignment and used to re-execute failed, timed-out or
     * overlap-suspect slices -- the Section 5 spare-cell idea applied
     * to the serving layer. 0 disables failover (a failed slice fails
     * the request).
     */
    unsigned spareShards = 1;
    /**
     * Re-execution attempts per slice beyond the primary one. Retries
     * run inline on the calling thread against spare slots, so a pool
     * whose workers are all wedged still makes progress.
     */
    unsigned maxSliceRetries = 2;
    /**
     * Bounded wait for the primary slice wave, in wall-clock
     * milliseconds; a slice not resolved by then is abandoned (its
     * worker may still be running; the late result is discarded) and
     * retried on a spare. 0 waits forever -- only for tests that want
     * the pre-deadline behavior.
     */
    std::uint32_t batchDeadlineMs = 2000;
    /**
     * Consecutive slice failures that quarantine a shard slot behind
     * its circuit breaker. 0 disables quarantine.
     */
    unsigned quarantineAfter = 3;
    /**
     * Batches after which a quarantined slot is probed half-open with
     * one primary slice; success closes the breaker, failure reopens
     * it for another round.
     */
    unsigned probeAfterBatches = 8;
    /**
     * Extend every slice k-1 characters past its end so neighbor
     * shards compute the boundary bits twice with full history, and
     * compare the copies before stitching; a mismatch re-executes
     * both suspects on spares. Off = minimal windows, no redundancy.
     */
    bool overlapCheck = true;
    /**
     * Pin worker i to one CPU of the process affinity mask, round-robin
     * (pinCpuFor; Linux affinity, elsewhere a no-op). Off by default:
     * pinning helps a dedicated benchmark host and hurts a shared one,
     * so the benches opt in explicitly.
     */
    bool pinThreads = false;
};

/**
 * The CPU a pinned worker @p worker_index runs on: round-robin over
 * @p allowed_cpus, the CPUs of the process affinity mask in ascending
 * order (mask {2,3}: workers 0, 1, 2 -> CPUs 2, 3, 2).
 * @p allowed_cpus must not be empty.
 */
unsigned pinCpuFor(unsigned worker_index,
                   const std::vector<unsigned> &allowed_cpus);

/** Circuit-breaker state of one shard slot. */
enum class BreakerState : unsigned char
{
    Closed,   ///< healthy, receives primary slices
    Open,     ///< quarantined, skipped at assignment
    HalfOpen, ///< probe in flight; next verdict decides
};

/** Printable name of a breaker state ("closed", "open", "half-open"). */
const char *breakerStateName(BreakerState state);

/** How one slice attempt failed (for lastShardErrors()). */
enum class ShardFaultKind : unsigned char
{
    Exception,       ///< the shard task threw; caught at the boundary
    Timeout,         ///< not resolved within batchDeadlineMs
    ServeError,      ///< the shard's serve() returned a typed error
    OverlapMismatch, ///< neighbor overlap bits disagreed
};

/** Printable name of a shard fault kind ("exception", ...). */
const char *shardFaultKindName(ShardFaultKind kind);

/**
 * One shard-level fault observed while serving a request: which slice
 * on which slot, what went wrong, and which attempt it was. The
 * sharded service keeps the list for the last serve() call so hosts
 * and tests can audit recoveries (a recovered request is still ok()).
 */
struct ShardError
{
    std::size_t slice = 0;   ///< slice index within the request
    std::uint32_t slot = 0;  ///< shard slot that failed
    ShardFaultKind kind = ShardFaultKind::ServeError;
    unsigned attempt = 0;    ///< 0 = primary, 1+ = retries
    std::string detail;

    /** "slice 2 slot 1 attempt 0 timeout: ..." one-liner. */
    std::string toString() const;
};

/**
 * Data-parallel match service: a thread pool over per-shard
 * MatchService instances with overlap stitching, spare-slot failover
 * and per-slot circuit breakers.
 */
class ShardedMatchService
{
  public:
    /** Factory producing a fresh degradation ladder for one shard. */
    using LadderFactory =
        std::function<std::vector<std::unique_ptr<ServiceBackend>>(
            const ServiceConfig &)>;

    /** Build with the default ladder in every shard slot. */
    explicit ShardedMatchService(ShardedConfig config);

    /**
     * Build with @p factory making each shard's ladder (called once
     * per slot at construction, primaries first, then spares; the
     * ServiceConfig argument carries the slot's shardId) -- how the
     * benches pin a shard to one particular engine and the chaos
     * harness wraps rungs per slot.
     */
    ShardedMatchService(ShardedConfig config, const LadderFactory &factory);

    ~ShardedMatchService();

    ShardedMatchService(const ShardedMatchService &) = delete;
    ShardedMatchService &operator=(const ShardedMatchService &) = delete;

    const ShardedConfig &config() const { return cfg; }
    unsigned threadCount() const { return static_cast<unsigned>(workers.size()); }
    unsigned spareCount() const { return cfg.spareShards; }

    /** Shards serve() would use for a request of this shape. */
    std::size_t shardCountFor(std::size_t text_len,
                              std::size_t pattern_len) const;

    /** Typed validation, identical to the unsharded service. */
    std::optional<ServiceError> validate(const MatchRequest &req) const;

    /**
     * Serve one request across the shards. The result bits, and every
     * per-shard journal, are deterministic for a given request and
     * shard count; only wall-clock interleaving varies between runs.
     * Never blocks past the batch deadline plus the (bounded, inline)
     * retry work; a slice that cannot be recovered yields a typed
     * ShardFailed error, never a hang and never silent corruption.
     */
    MatchResponse serve(const MatchRequest &req);

    /** @{ Breakdown of the last serve() call. */
    std::size_t lastShards() const { return nLastShards; }
    /** Slowest shard's beats: the parallel makespan. */
    Beat lastCriticalBeats() const { return lastCritical; }
    /** Summed beats across shards (including retries). */
    Beat lastTotalBeats() const { return lastTotal; }
    /** Shard faults observed (and possibly recovered) last serve(). */
    const std::vector<ShardError> &lastShardErrors() const
    {
        return lastErrors;
    }
    /** @} */

    /**
     * The per-shard service in slot @p i (journals, stats). Primary
     * slots are [0, threadCount()); spares follow.
     */
    const MatchService &shard(std::size_t i) const { return *shards.at(i); }

    /** Breaker state of primary slot @p i. */
    BreakerState breakerState(std::size_t i) const;

    /**
     * Serving metrics summed across every shard slot (counters and
     * histogram cells add; queue_depth gauges sum), plus the
     * sharded-layer gauges (threads, spares, last_shards,
     * quarantined_now) and supervision counters (shard_failures,
     * shard_timeouts, shard_exceptions, shard_retries, spare_serves,
     * quarantines, probes, overlap_checks, overlap_mismatches) and
     * the queue_wait_beats histogram (enqueue-to-dequeue handoff
     * latency per slice task, in beats).
     */
    telem::Snapshot metricsSnapshot() const;

    /** "sharded.x = n" lines plus every shard's statsDump(). */
    std::string statsDump() const;

    /**
     * The sharded layer's own flight recorder: failover, quarantine
     * and overlap-mismatch events, each carrying a replayable
     * conformance case ID for the suspect slice. Overlap mismatches
     * trip a dump automatically (see telem::FlightRecorder).
     */
    const telem::FlightRecorder &flightRecorder() const { return flight; }
    telem::FlightRecorder &flightRecorder() { return flight; }

    /**
     * Request-level exemplar traces at the sharded boundary: slowest
     * requests, a uniform sample, and every overlap-mismatch /
     * shard-fault / watchdog-trip request force-retained.
     */
    const telem::ExemplarReservoir &exemplars() const
    {
        return exemplarStore;
    }
    telem::ExemplarReservoir &exemplars() { return exemplarStore; }

  private:
    struct Batch;
    struct SliceState;

    void startWorkers();
    void workerLoop(unsigned worker_index);
    /**
     * Queue @p tasks on the pool (does not wait). Each task's
     * enqueue-to-dequeue wait lands in queue_wait_beats.
     */
    void enqueue(std::vector<std::function<void()>> &tasks);
    /**
     * Wait until every slice of @p batch resolved, or @p deadline_ms
     * elapsed (0 = no deadline). Returns true when all resolved --
     * the bounded replacement for the old unbounded runAll() join.
     */
    bool awaitBatch(Batch &batch, std::uint32_t deadline_ms);

    /**
     * Serve @p piece on slot @p slot with its result packed into
     * @p hits; exceptions -> typed outcome.
     */
    MatchResponse serveSliceOn(std::size_t slot, MatchRequest &&piece,
                               std::string *exception_text,
                               BitVec &hits);

    /** Record a slice verdict on @p slot's breaker. */
    void noteSlotOutcome(std::uint32_t slot, bool ok);

    /** Primary slots currently assignable (breaker closed or probing). */
    std::vector<std::uint32_t> assignableSlots();

    ShardedConfig cfg;
    std::vector<std::unique_ptr<MatchService>> shards;

    std::vector<std::thread> workers;
    std::mutex mu;
    std::condition_variable taskReady;
    std::deque<std::function<void()>> taskQueue;
    bool stopping = false;

    /** Guards slot health, busy leases and the batch counter. */
    mutable std::mutex healthMu;
    struct SlotHealth
    {
        BreakerState state = BreakerState::Closed;
        unsigned consecutiveFailures = 0;
        std::uint64_t openedAtBatch = 0;
        bool busy = false; ///< leased to a (possibly abandoned) task
    };
    std::vector<SlotHealth> slotHealth; ///< primaries only
    std::uint64_t batchCounter = 0;
    std::uint32_t spareRotor = 0;

    std::size_t nLastShards = 0;
    Beat lastCritical = 0;
    Beat lastTotal = 0;
    std::vector<ShardError> lastErrors;

    // Supervision metrics (striped: workers bump them concurrently).
    telem::Registry supMetrics{4};
    telem::Counter &shardFailuresCtr;
    telem::Counter &shardTimeoutsCtr;
    telem::Counter &shardExceptionsCtr;
    telem::Counter &shardRetriesCtr;
    telem::Counter &spareServesCtr;
    telem::Counter &quarantinesCtr;
    telem::Counter &probesCtr;
    telem::Counter &overlapChecksCtr;
    telem::Counter &overlapMismatchesCtr;
    telem::Histogram &queueWaitHist;
    telem::FlightRecorder flight;
    telem::ExemplarReservoir exemplarStore;
    /**
     * Request-level observer on the supervision registry, so its
     * metrics render with the "sharded." prefix the snapshot applies
     * ("sharded.req.latency_ns", ...); the per-shard services keep
     * their own slice-level observers under bare "req.*" names.
     */
    telem::RequestObserver reqObs;
};

} // namespace spm::service

#endif // SPM_SERVICE_SHARDED_HH
