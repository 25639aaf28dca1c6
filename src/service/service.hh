/**
 * @file
 * The resilient streaming match service.
 *
 * MatchService fronts the pattern-matching machine with the serving
 * discipline a host-attached peripheral needs (Section 3.1: the chip
 * runs "at a steady rate ... with a constant time between data
 * items"; the host, not the array, must absorb everything irregular):
 *
 *   admission    - a bounded queue with a configurable backpressure
 *                  policy (reject / shed-oldest / block);
 *   validation   - every request checked against a typed error
 *                  taxonomy before it touches hardware;
 *   streaming    - text fed in chunks over the HostBusModel pacing,
 *                  each chunk a window overlapping the last by k-1
 *                  characters;
 *   watchdog     - a beat budget per window; a wedged backend is
 *                  cancelled, not waited on;
 *   checkpoints  - resumable state cut after every committed chunk,
 *                  with a deterministic replay journal;
 *   degradation  - a ladder of backends (gate level -> behavioral ->
 *                  software baseline); a rung that trips the watchdog
 *                  or exceeds its cross-check fault budget is
 *                  abandoned for the rest of the request, and every
 *                  committed chunk is verified against the reference
 *                  matcher, so degraded results are never silently
 *                  wrong.
 */

#ifndef SPM_SERVICE_SERVICE_HH
#define SPM_SERVICE_SERVICE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/hostbus.hh"
#include "service/backend.hh"
#include "service/checkpoint.hh"
#include "service/queue.hh"
#include "service/request.hh"
#include "service/watchdog.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/metrics.hh"
#include "telemetry/reqobs.hh"
#include "util/types.hh"

namespace spm::service
{

/** Serving-side configuration. */
struct ServiceConfig
{
    /** Character cells per hardware chip. */
    std::size_t cells = 8;
    /** Bits per alphabet character; symbols must be < 2^bits. */
    BitWidth alphabetBits = 2;
    /** Largest admissible text, in characters. */
    std::size_t maxTextLen = 1 << 16;
    /** Largest admissible pattern. */
    std::size_t maxPatternLen = 64;
    /**
     * Text characters streamed per chunk: the checkpoint granularity.
     * It applies only where something consumes the per-chunk state --
     * a caller-held session, the per-chunk cross-check, the journal.
     * A sharded slice with cross-check and journal both off has no
     * such consumer and is served as one window.
     */
    std::size_t chunkChars = 32;
    /**
     * Watchdog slack: the per-window beat budget is the feed-plan
     * beat count scaled by this margin.
     */
    double watchdogMargin = 1.5;
    /** Cross-check mismatches tolerated per rung before it falls. */
    unsigned rungFaultBudget = 1;
    /** Verify every committed chunk against the reference matcher. */
    bool crossCheck = true;
    /** Record the replay journal. */
    bool journalEnabled = true;
    /** Admission queue depth. */
    std::size_t queueCapacity = 8;
    BackpressurePolicy policy = BackpressurePolicy::Reject;
    /**
     * Shard slot this service occupies (0 when unsharded); stamped on
     * every flight-recorder event so a merged post-mortem attributes
     * each chunk to its worker.
     */
    std::uint32_t shardId = 0;
    /** Flight-recorder ring depth (recent chunk/trip events kept). */
    std::size_t flightCapacity = 64;
    /** Bus pacing and parity; parity on by default for the service. */
    core::HostBusModel bus{prototypeBeatPs, 8, true};
};

class MatchService;

/**
 * One streaming match in flight. step() processes one chunk and cuts
 * a checkpoint; a caller that stops stepping (a crash, a cancel) can
 * later resume a fresh session from the last checkpoint and the
 * output is bit-identical to an uninterrupted run.
 */
class StreamSession
{
  public:
    /** Process the next chunk. True while more chunks remain. */
    bool step();

    /** True once the request is fully served or has failed. */
    bool done() const { return finished; }

    /** The last durable checkpoint (resume token). */
    const Checkpoint &checkpoint() const { return cp; }

    /**
     * Finish the session and take the response: finishPacked(), then
     * the packed stream expanded once into MatchResponse::result by a
     * sparse unpack.
     */
    MatchResponse finish();

    /**
     * Finish the session and hand its result over packed in @p hits
     * (cleared unless the response is ok()), leaving
     * MatchResponse::result empty -- the sharded front end stitches
     * these without ever unpacking a slice. The stream moves out of
     * checkpoint(), so read the checkpoint before finishing.
     */
    MatchResponse finishPacked(BitVec &hits);

    /** Abandon the session; the response reports Cancelled. */
    void cancel(const std::string &reason);

  private:
    friend class MatchService;
    StreamSession(MatchService &svc, MatchRequest req,
                  std::optional<Checkpoint> resume_from);

    void fail(ErrorCode code, const std::string &detail);
    Beat windowBudget(std::size_t window_len) const;

    MatchService &service;
    MatchRequest request;
    Checkpoint cp;
    MatchResponse response;
    /**
     * Chunk window scratch, reused across step() calls; unused when a
     * chunk is the whole request, which is served from its own text.
     */
    std::vector<Symbol> window;
    /** Cross-check reference bits, reused the same way. */
    BitVec expect;
    /** Cross-check failures charged against each rung this request. */
    std::vector<unsigned> rungFaults;
    /** Stage attribution for this request (reqobs). */
    telem::StageClock clock;
    bool finished = false;
    bool observed = false;
};

/** The resilient streaming match service. */
class MatchService
{
  public:
    /** Build with the default ladder for @p config (see makeDefaultLadder). */
    explicit MatchService(ServiceConfig config);

    /** Build with a caller-supplied degradation ladder (rung 0 first). */
    MatchService(ServiceConfig config,
                 std::vector<std::unique_ptr<ServiceBackend>> ladder_rungs);

    const ServiceConfig &config() const { return cfg; }

    /** Rung names, in degradation order. */
    std::vector<std::string> ladderNames() const;

    /** Typed validation; nullopt when the request is admissible. */
    std::optional<ServiceError> validate(const MatchRequest &req) const;

    /**
     * Serve one request end to end (validate + stream + respond):
     * servePacked(), then one sparse unpack into the result.
     */
    MatchResponse serve(const MatchRequest &req);

    /** Serve with the result handed over packed (finishPacked()). */
    MatchResponse servePacked(const MatchRequest &req, BitVec &hits);

    /**
     * servePacked() on a request handed over whole, so its text moves
     * into the session instead of being copied. A chunk that covers
     * the whole request is one window read straight from the request
     * text.
     */
    MatchResponse servePacked(MatchRequest &&req, BitVec &hits);

    /** Open a streaming session (validated; check the first error). */
    StreamSession startSession(const MatchRequest &req);

    /** Resume a killed request from @p from; output is bit-identical. */
    MatchResponse resume(const MatchRequest &req, const Checkpoint &from);

    /** Result of submitting through the admission queue. */
    struct SubmitResult
    {
        /** True when the request was queued (or served via Block). */
        bool accepted = false;
        /** The typed rejection when not accepted. */
        ServiceError error;
        /** Response for a request shed to make room, if any. */
        std::optional<MatchResponse> shedResponse;
        /** Responses drained inline by the Block policy. */
        std::vector<MatchResponse> drained;
    };

    /** Offer a request to the admission queue under the policy. */
    SubmitResult submit(MatchRequest req);

    /** Serve everything queued, in order. */
    std::vector<MatchResponse> drain();

    std::size_t queuedRequests() const { return queue.size(); }
    const AdmissionQueue &admission() const { return queue; }

    const ReplayJournal &journal() const { return log; }
    ReplayJournal &journal() { return log; }

    /**
     * Lifetime serving metrics, registry-backed: counters served,
     * completed, failed, degradations, watchdogTrips,
     * crossCheckFailures, checkpoints, resumes; gauge queue_depth;
     * histogram chunk_beats (per-committed-chunk beat cost).
     */
    const telem::Registry &stats() const { return metrics; }

    /**
     * Serving + admission-queue counters as one snapshot (bare
     * names); the sharded front end merges these across shards.
     */
    telem::Snapshot metricsSnapshot() const;

    /** "service.x = n" lines: serving, queue and bus-parity counters. */
    std::string statsDump() const;

    /**
     * The flight recorder: recent chunk commits plus watchdog trips,
     * ladder transitions and cross-check mismatches, each stamped
     * with beat index, shard id, error-taxonomy code and the chunk's
     * replayable conformance case ID. Trips dump automatically.
     */
    const telem::FlightRecorder &flightRecorder() const { return flight; }
    telem::FlightRecorder &flightRecorder() { return flight; }

    /**
     * Tail-sampled exemplar traces: the slowest requests, a uniform
     * sample, and every watchdog-trip / ladder-fall request, each
     * with its per-stage latency split and replayable case ID.
     */
    const telem::ExemplarReservoir &exemplars() const
    {
        return exemplarStore;
    }
    telem::ExemplarReservoir &exemplars() { return exemplarStore; }

  private:
    friend class StreamSession;

    /** startSession() on a request handed over whole. */
    StreamSession openSession(MatchRequest &&req);

    ServiceConfig cfg;
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    AdmissionQueue queue;
    BeatWatchdog dog;
    ReplayJournal log;

    // Per-instance single-stripe registry: one service, one serving
    // thread (the sharded front end gives each shard its own).
    telem::Registry metrics{1};
    telem::Counter &servedCtr;
    telem::Counter &completedCtr;
    telem::Counter &failedCtr;
    telem::Counter &degradationsCtr;
    telem::Counter &watchdogTripsCtr;
    telem::Counter &crossCheckFailuresCtr;
    telem::Counter &checkpointsCtr;
    telem::Counter &resumesCtr;
    telem::Gauge &queueDepthGauge;
    telem::Histogram &chunkBeatsHist;
    telem::FlightRecorder flight;
    telem::ExemplarReservoir exemplarStore;
    telem::RequestObserver reqObs;
};

/**
 * The default degradation ladder for @p config: gate-level netlist,
 * then the behavioral array, then the software baseline. The gate
 * rung is the fabricated prototype's fidelity; the software rung can
 * always answer.
 */
std::vector<std::unique_ptr<ServiceBackend>> makeDefaultLadder(
    const ServiceConfig &config);

/**
 * The request admission rules, shared by every front end (streaming,
 * sharded, batched, dictionary): typed validation of pattern shape,
 * size bounds and alphabet membership against @p cfg; nullopt when
 * admissible.  validateRequest composes the two primitives below;
 * front ends with their own request shapes (batch groups, dictionary
 * sessions) call the primitives directly so one rule set admits
 * everywhere.
 */
std::optional<ServiceError> validateRequest(const ServiceConfig &cfg,
                                            const MatchRequest &req);

/**
 * Pattern admission alone: non-empty, within maxPatternLen, every
 * non-wild symbol inside the configured alphabet.  @p label names the
 * pattern in error details ("pattern", "dict[3]", ...).
 */
std::optional<ServiceError> validatePattern(
    const ServiceConfig &cfg, const std::vector<Symbol> &pattern,
    const std::string &label = "pattern");

/**
 * Text/chunk admission alone: every symbol inside the alphabet (wild
 * cards are NOT admitted in text) and the cumulative stream length --
 * @p already_seen characters fed before this slice plus the slice --
 * within maxTextLen.  @p label names the slice in error details.
 */
std::optional<ServiceError> validateText(const ServiceConfig &cfg,
                                         const std::vector<Symbol> &text,
                                         std::uint64_t already_seen = 0,
                                         const std::string &label = "text");

} // namespace spm::service

#endif // SPM_SERVICE_SERVICE_HH
