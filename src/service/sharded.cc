#include "service/sharded.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "telemetry/telem.hh"
#include "util/logging.hh"

namespace spm::service
{

namespace
{

/**
 * Pin the calling thread to one CPU of its affinity mask (round-robin
 * over the CPUs the process may run on, see pinCpuFor). Linux-only; a
 * best-effort no-op elsewhere or when the scheduler refuses. Pinning
 * removes the migration jitter that shows up as long-tail
 * queue_wait_beats on a loaded host.
 */
void
pinToCore(unsigned worker_index)
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<unsigned> allowed;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (unsigned cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                allowed.push_back(cpu);
    if (allowed.empty()) {
        spm_warn("sharded: could not read the affinity mask for worker ",
                 worker_index, "; continuing unpinned");
        return;
    }
    CPU_ZERO(&set);
    CPU_SET(pinCpuFor(worker_index, allowed), &set);
    if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0)
        spm_warn("sharded: could not pin worker ", worker_index,
                 " to a core; continuing unpinned");
#else
    (void)worker_index;
#endif
}

/**
 * Slice failures that are the request's fault, not the shard's: a
 * retry on a spare would fail identically, so they propagate as-is
 * and charge nothing against the slot's circuit breaker.
 */
bool
isRequestFault(ErrorCode code)
{
    switch (code) {
    case ErrorCode::InvalidPattern:
    case ErrorCode::AlphabetOverflow:
    case ErrorCode::OversizedRequest:
    case ErrorCode::QueueOverflow:
    case ErrorCode::Shed:
    case ErrorCode::InvalidCheckpoint:
        return true;
    default:
        return false;
    }
}

/** What the exception in flight says (call inside a catch block). */
std::string
currentExceptionText()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "non-standard exception";
    }
}

/** The typed outcome of a slice attempt that threw @p text. */
MatchResponse
shardThrew(std::uint64_t id, const std::string &text)
{
    MatchResponse r;
    r.id = id;
    r.error = ServiceError::make(ErrorCode::ShardFailed,
                                 "shard task threw: " + text);
    return r;
}

} // namespace

unsigned
pinCpuFor(unsigned worker_index, const std::vector<unsigned> &allowed_cpus)
{
    spm_assert(!allowed_cpus.empty(), "pinning needs an allowed CPU");
    return allowed_cpus[worker_index % allowed_cpus.size()];
}

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
    case BreakerState::Closed:
        return "closed";
    case BreakerState::Open:
        return "open";
    case BreakerState::HalfOpen:
        return "half-open";
    }
    return "?";
}

const char *
shardFaultKindName(ShardFaultKind kind)
{
    switch (kind) {
    case ShardFaultKind::Exception:
        return "exception";
    case ShardFaultKind::Timeout:
        return "timeout";
    case ShardFaultKind::ServeError:
        return "serve_error";
    case ShardFaultKind::OverlapMismatch:
        return "overlap_mismatch";
    }
    return "?";
}

std::string
ShardError::toString() const
{
    return "slice " + std::to_string(slice) + " slot " +
           std::to_string(slot) + " attempt " + std::to_string(attempt) +
           " " + shardFaultKindName(kind) +
           (detail.empty() ? "" : ": " + detail);
}

/**
 * One slice of a sharded request: the range of its piece (window
 * including the k-1 overlap) in the request text, where the current
 * attempt runs, and how it resolved. Written by the owning task under
 * the batch mutex; a task whose epoch was bumped (abandoned on
 * timeout) discards its late result.
 */
struct ShardedMatchService::SliceState
{
    std::size_t begin = 0;      ///< piece start in the request text
    std::size_t end = 0;        ///< piece end, right extension included
    std::uint64_t enqueuedNs = 0; ///< the piece's own enqueue stamp
    std::size_t overlapLen = 0; ///< warm-up chars left of the slice start
    std::size_t keepLen = 0;    ///< result bits this slice contributes
    std::size_t rightExt = 0;   ///< extra chars past the slice end
    std::uint32_t slot = 0;     ///< slot of the latest attempt
    bool abandoned = false;     ///< timed out; straggler owns the lease
    unsigned epoch = 0;
    bool resolved = false;
    bool threw = false;
    std::string exceptionText;
    MatchResponse resp;
    BitVec hits; ///< resp's result bits, packed (window-long)
    Beat attemptBeats = 0; ///< beats summed across every attempt

    /** The slice's piece of @p req, as a request of its own. */
    MatchRequest pieceOf(const MatchRequest &req) const
    {
        MatchRequest piece;
        piece.id = req.id;
        piece.pattern = req.pattern;
        piece.deadlineBeats = req.deadlineBeats;
        piece.enqueuedNs = enqueuedNs;
        piece.text.assign(
            req.text.begin() + static_cast<std::ptrdiff_t>(begin),
            req.text.begin() + static_cast<std::ptrdiff_t>(end));
        return piece;
    }
};

/** Shared state of one serve() slice wave; tasks hold it by shared_ptr. */
struct ShardedMatchService::Batch
{
    std::mutex bmu;
    std::condition_variable resolvedCv;
    std::vector<SliceState> slices;
    std::size_t unresolved = 0;
    /**
     * The request being served. A task claims its slice and reads this
     * under bmu, then copies its piece outside the lock. A task that
     * claims after the deadline finds its slice resolved and never
     * reads it; serve() also clears it then, once no copy is running.
     */
    const MatchRequest *source = nullptr;
    /** Tasks copying their piece out of *source right now. */
    std::size_t copying = 0;
    /** Signalled as each copy ends (serve() waits on it after a timeout). */
    std::condition_variable copiedCv;
};

ShardedMatchService::ShardedMatchService(ShardedConfig config)
    : ShardedMatchService(std::move(config), [](const ServiceConfig &c) {
          return makeDefaultLadder(c);
      })
{
}

ShardedMatchService::ShardedMatchService(ShardedConfig config,
                                         const LadderFactory &factory)
    : cfg(std::move(config)),
      shardFailuresCtr(supMetrics.counter("shard_failures")),
      shardTimeoutsCtr(supMetrics.counter("shard_timeouts")),
      shardExceptionsCtr(supMetrics.counter("shard_exceptions")),
      shardRetriesCtr(supMetrics.counter("shard_retries")),
      spareServesCtr(supMetrics.counter("spare_serves")),
      quarantinesCtr(supMetrics.counter("quarantines")),
      probesCtr(supMetrics.counter("probes")),
      overlapChecksCtr(supMetrics.counter("overlap_checks")),
      overlapMismatchesCtr(supMetrics.counter("overlap_mismatches")),
      queueWaitHist(supMetrics.histogram("queue_wait_beats")),
      flight(cfg.base.flightCapacity),
      reqObs(supMetrics, "sharded", &exemplarStore)
{
    spm_assert(cfg.threads > 0, "sharded service needs at least one thread");
    spm_assert(cfg.minShardChars > 0, "minShardChars must be positive");
    const unsigned slots = cfg.threads + cfg.spareShards;
    shards.reserve(slots);
    for (unsigned i = 0; i < slots; ++i) {
        ServiceConfig shard_cfg = cfg.base;
        shard_cfg.shardId = i;
        // A slice's checkpoints never leave its shard; only the
        // per-chunk cross-check and the journal read its per-chunk
        // state. With both off, a slice is one window: one watchdog
        // arm, one kernel call, one bus charge.
        if (!shard_cfg.crossCheck && !shard_cfg.journalEnabled)
            shard_cfg.chunkChars = std::numeric_limits<std::size_t>::max();
        auto ladder = factory(shard_cfg);
        shards.push_back(std::make_unique<MatchService>(
            std::move(shard_cfg), std::move(ladder)));
    }
    slotHealth.resize(cfg.threads);
    startWorkers();
}

ShardedMatchService::~ShardedMatchService()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    taskReady.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
ShardedMatchService::startWorkers()
{
    workers.reserve(cfg.threads);
    for (unsigned i = 0; i < cfg.threads; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

void
ShardedMatchService::workerLoop(unsigned worker_index)
{
    if (cfg.pinThreads)
        pinToCore(worker_index);
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu);
            taskReady.wait(lock,
                           [this] { return stopping || !taskQueue.empty(); });
            if (taskQueue.empty())
                return; // stopping and drained
            task = std::move(taskQueue.front());
            taskQueue.pop_front();
        }
        // Task boundary: nothing a task throws may unwind into the
        // pool thread and terminate the process. Slice tasks convert
        // their own exceptions to typed outcomes before this; the
        // catch here is the independent last line of defense.
        try {
            task();
        } catch (const std::exception &e) {
            spm_warn("sharded worker task threw past its boundary: ",
                     e.what());
        } catch (...) {
            spm_warn("sharded worker task threw a non-standard exception");
        }
    }
}

void
ShardedMatchService::enqueue(std::vector<std::function<void()>> &tasks)
{
    // One lock acquisition and one wakeup for the whole wave (the
    // batched handoff), with each task wrapped so its handoff latency
    // -- enqueue to the moment a worker starts it -- lands in
    // queue_wait_beats, converted from wall nanoseconds at the
    // prototype beat period (the histogram rounds to whole beats).
    const auto enqueued_at = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mu);
        for (std::function<void()> &t : tasks)
            taskQueue.push_back(
                [this, enqueued_at, task = std::move(t)] {
                    [[maybe_unused]] const double wait_ns =
                        std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() -
                            enqueued_at)
                            .count();
                    SPM_THIST(queueWaitHist,
                              wait_ns * 1000.0 /
                                  static_cast<double>(prototypeBeatPs));
                    task();
                });
    }
    taskReady.notify_all();
}

bool
ShardedMatchService::awaitBatch(Batch &batch, std::uint32_t deadline_ms)
{
    std::unique_lock<std::mutex> lock(batch.bmu);
    const auto all_resolved = [&batch] { return batch.unresolved == 0; };
    if (deadline_ms == 0) {
        batch.resolvedCv.wait(lock, all_resolved);
        return true;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    return batch.resolvedCv.wait_until(lock, deadline, all_resolved);
}

MatchResponse
ShardedMatchService::serveSliceOn(std::size_t slot, MatchRequest &&piece,
                                  std::string *exception_text,
                                  BitVec &hits)
{
    SPM_TSPAN("sharded.shard", telem::cat::sharded, 0,
              static_cast<std::uint64_t>(slot));
    hits.clear();
    const std::uint64_t id = piece.id;
    try {
        return shards[slot]->servePacked(std::move(piece), hits);
    } catch (...) {
        *exception_text = currentExceptionText();
    }
    return shardThrew(id, *exception_text);
}

void
ShardedMatchService::noteSlotOutcome(std::uint32_t slot, bool ok)
{
    if (slot >= slotHealth.size())
        return; // spares carry no breaker
    bool quarantined = false;
    {
        std::lock_guard<std::mutex> lock(healthMu);
        SlotHealth &h = slotHealth[slot];
        if (ok) {
            h.consecutiveFailures = 0;
            h.state = BreakerState::Closed;
        } else {
            ++h.consecutiveFailures;
            if (h.state == BreakerState::HalfOpen) {
                // Failed probe: straight back to quarantine.
                h.state = BreakerState::Open;
                h.openedAtBatch = batchCounter;
                quarantined = true;
            } else if (cfg.quarantineAfter > 0 &&
                       h.state == BreakerState::Closed &&
                       h.consecutiveFailures >= cfg.quarantineAfter) {
                h.state = BreakerState::Open;
                h.openedAtBatch = batchCounter;
                quarantined = true;
            }
        }
    }
    if (quarantined) {
        quarantinesCtr.add();
        telem::FlightEvent ev;
        ev.kind = telem::FlightKind::Quarantine;
        ev.shard = slot;
        ev.note = "breaker opened on consecutive failures";
        flight.record(std::move(ev));
        spm_warn("sharded: slot ", slot, " quarantined");
    }
}

std::vector<std::uint32_t>
ShardedMatchService::assignableSlots()
{
    std::vector<std::uint32_t> out;
    std::uint64_t probes = 0;
    {
        std::lock_guard<std::mutex> lock(healthMu);
        ++batchCounter;
        for (std::uint32_t s = 0; s < slotHealth.size(); ++s) {
            SlotHealth &h = slotHealth[s];
            if (h.busy)
                continue; // leased to a (possibly abandoned) task
            if (h.state == BreakerState::Open) {
                if (cfg.probeAfterBatches > 0 &&
                    batchCounter - h.openedAtBatch >= cfg.probeAfterBatches) {
                    h.state = BreakerState::HalfOpen;
                    ++probes;
                } else {
                    continue;
                }
            }
            out.push_back(s);
        }
    }
    if (probes > 0)
        probesCtr.add(probes);
    return out;
}

BreakerState
ShardedMatchService::breakerState(std::size_t i) const
{
    std::lock_guard<std::mutex> lock(healthMu);
    return slotHealth.at(i).state;
}

std::size_t
ShardedMatchService::shardCountFor(std::size_t text_len,
                                   std::size_t pattern_len) const
{
    const std::size_t floor_chars =
        std::max(cfg.minShardChars, std::max<std::size_t>(pattern_len, 1));
    const std::size_t by_size = text_len / floor_chars;
    return std::clamp<std::size_t>(by_size, 1, cfg.threads);
}

std::optional<ServiceError>
ShardedMatchService::validate(const MatchRequest &req) const
{
    return shards.front()->validate(req);
}

MatchResponse
ShardedMatchService::serve(const MatchRequest &req)
{
    const std::size_t n = req.text.size();
    const std::size_t k = req.pattern.size();
    const std::size_t overlap = k > 0 ? k - 1 : 0;
    lastErrors.clear();

    telem::StageClock clock;
    clock.start();
    if (clock.running() && req.enqueuedNs != 0)
        clock.note(telem::Stage::QueueWait,
                   telem::nowNs() - req.enqueuedNs);

    SPM_TSPAN_NAMED(batch_span, "sharded.serve", telem::cat::sharded, 0,
                    req.id);

    // Route around quarantined and leased slots: the wafer-harvest
    // move one level up. With every primary slot unavailable the
    // request still gets served -- on a spare, or (spare-less)
    // forced through slot 0 as an implicit probe.
    std::vector<std::uint32_t> assignable = assignableSlots();
    bool forced_spare = false;
    if (assignable.empty()) {
        if (cfg.spareShards > 0) {
            assignable.push_back(cfg.threads +
                                 (spareRotor++ % cfg.spareShards));
            forced_spare = true;
        } else {
            assignable.push_back(0);
        }
    }
    const std::size_t nshards =
        std::min(shardCountFor(n, k), assignable.size());
    nLastShards = nshards;

    // Shard s answers result positions [starts[s], starts[s+1]); its
    // window reaches k-1 characters left of that so boundary matches
    // see their full history, and k-1 characters right of it so the
    // first k-1 positions of the next slice are computed twice with
    // full history -- the genuinely redundant region the overlap
    // cross-check compares. (The left extension alone would not do:
    // a slice's own first k-1 bits are warm-up, computed with
    // truncated history, and are dropped, not cross-checked.)
    std::vector<std::size_t> starts(nshards + 1);
    for (std::size_t s = 0; s <= nshards; ++s)
        starts[s] = n * s / nshards;

    // Admission only plans the slices: each piece's text is copied by
    // the worker that serves it, in parallel with the others.
    auto batch = std::make_shared<Batch>();
    batch->slices.resize(nshards);
    batch->unresolved = nshards;
    batch->source = &req;
    for (std::size_t s = 0; s < nshards; ++s) {
        SliceState &st = batch->slices[s];
        const std::size_t start = starts[s];
        const std::size_t ws = start >= overlap ? start - overlap : 0;
        const std::size_t ext =
            cfg.overlapCheck && nshards > 1
                ? std::min(overlap, n - starts[s + 1])
                : 0;
        st.begin = ws;
        st.end = starts[s + 1] + ext;
        st.overlapLen = start - ws;
        st.keepLen = starts[s + 1] - start;
        st.rightExt = ext;
        st.slot = assignable[s];
        // Slices inherit a fresh enqueue stamp so each shard's own
        // stage clock credits the pool handoff as queue wait.
        if (clock.running())
            st.enqueuedNs = telem::nowNs();
    }
    clock.mark(telem::Stage::Admit);

    if (nshards == 1) {
        // One slice: serve inline on the calling thread (no handoff
        // latency; the cooperative watchdog already bounds the work).
        SliceState &st = batch->slices[0];
        {
            std::lock_guard<std::mutex> lock(healthMu);
            if (st.slot < slotHealth.size())
                slotHealth[st.slot].busy = true;
        }
        st.resp = serveSliceOn(st.slot, st.pieceOf(req), &st.exceptionText,
                               st.hits);
        st.threw = !st.exceptionText.empty();
        st.resolved = true;
        st.attemptBeats = st.resp.beats;
        batch->unresolved = 0;
        {
            std::lock_guard<std::mutex> lock(healthMu);
            if (st.slot < slotHealth.size())
                slotHealth[st.slot].busy = false;
        }
        if (forced_spare)
            spareServesCtr.add();
    } else {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(nshards);
        for (std::size_t s = 0; s < nshards; ++s) {
            const std::uint32_t slot = batch->slices[s].slot;
            {
                std::lock_guard<std::mutex> lock(healthMu);
                slotHealth[slot].busy = true;
            }
            tasks.push_back([this, batch, s, slot] {
                SliceState &st = batch->slices[s];
                unsigned my_epoch = 0;
                const MatchRequest *source = nullptr;
                std::uint64_t id = 0;
                {
                    // The epoch snapshot races with the supervisor's
                    // abandonment bump unless taken under the batch
                    // lock; a task whose slice was abandoned before it
                    // even started has nothing to serve -- just free
                    // the lease it inherited, and leave the request
                    // alone: serve() may already have returned.
                    std::lock_guard<std::mutex> lock(batch->bmu);
                    if (st.resolved) {
                        std::lock_guard<std::mutex> hl(healthMu);
                        slotHealth[slot].busy = false;
                        return;
                    }
                    my_epoch = st.epoch;
                    source = batch->source;
                    id = source->id;
                    ++batch->copying;
                }
                // The claimed piece is copied outside the lock; serve()
                // waits for a copy already running before it returns.
                // A copy that throws (bad_alloc) resolves the slice as a
                // typed shard failure, like a throwing serve, so the
                // retry loop rebuilds it on a spare.
                std::optional<MatchRequest> piece;
                std::string exc;
                try {
                    piece = st.pieceOf(*source);
                } catch (...) {
                    exc = currentExceptionText();
                }
                {
                    std::lock_guard<std::mutex> lock(batch->bmu);
                    --batch->copying;
                }
                batch->copiedCv.notify_all();
                BitVec bits;
                MatchResponse r =
                    piece ? serveSliceOn(slot, std::move(*piece), &exc, bits)
                          : shardThrew(id, exc);
                bool owned = false;
                {
                    std::lock_guard<std::mutex> lock(batch->bmu);
                    if (st.epoch == my_epoch && !st.resolved) {
                        st.resp = std::move(r);
                        st.hits = std::move(bits);
                        st.threw = !exc.empty();
                        st.exceptionText = std::move(exc);
                        st.attemptBeats += st.resp.beats;
                        st.resolved = true;
                        --batch->unresolved;
                        owned = true;
                    }
                }
                batch->resolvedCv.notify_all();
                // A slice the supervisor accepted has its lease
                // released by the supervisor (synchronously, so the
                // next batch sees the slot free); an abandoned
                // straggler keeps the lease until here, so no new
                // task enters this slot's MatchService concurrently.
                if (!owned) {
                    std::lock_guard<std::mutex> lock(healthMu);
                    slotHealth[slot].busy = false;
                }
            });
        }
        enqueue(tasks);
        if (!awaitBatch(*batch, cfg.batchDeadlineMs)) {
            // Abandon the stragglers: bump their epoch so a late
            // write is discarded, mark them timed out, and let the
            // retry loop re-execute them on spares. The wedged worker
            // keeps its slot lease until it actually finishes.
            std::unique_lock<std::mutex> lock(batch->bmu);
            for (std::size_t s = 0; s < nshards; ++s) {
                SliceState &st = batch->slices[s];
                if (st.resolved)
                    continue;
                ++st.epoch;
                st.abandoned = true;
                st.resolved = true;
                st.threw = false;
                st.resp = MatchResponse{};
                st.resp.id = req.id;
                st.resp.error = ServiceError::make(
                    ErrorCode::ShardFailed,
                    "slice timed out after " +
                        std::to_string(cfg.batchDeadlineMs) + " ms");
                --batch->unresolved;
                shardTimeoutsCtr.add();
                ShardError se;
                se.slice = s;
                se.slot = st.slot;
                se.kind = ShardFaultKind::Timeout;
                se.detail = st.resp.error.detail;
                lastErrors.push_back(std::move(se));
                noteSlotOutcome(st.slot, false);
            }
            // A straggler that claimed its slice in time may still be
            // copying its piece: wait for that bounded copy, then cut
            // the pool off from the request, which the caller may
            // destroy as soon as serve() returns.
            batch->copiedCv.wait(lock,
                                 [&batch] { return batch->copying == 0; });
            batch->source = nullptr;
        }
        // Release the leases of slices whose worker answered in time,
        // before the caller can start another batch -- the worker only
        // has bookkeeping left, so the slot is genuinely free. An
        // abandoned slice's lease stays with its straggler.
        {
            std::lock_guard<std::mutex> lock(healthMu);
            for (std::size_t s = 0; s < nshards; ++s) {
                const SliceState &st = batch->slices[s];
                if (!st.abandoned && st.slot < slotHealth.size())
                    slotHealth[st.slot].busy = false;
            }
        }
    }

    // --- Recovery: retry failed slices on spare slots ----------------
    const auto sliceCaseId = [&](const SliceState &st) {
        return telem::literalCaseId(cfg.base.alphabetBits, req.pattern,
                                    st.pieceOf(req).text);
    };
    const auto retryOnSpare = [&](std::size_t s, SliceState &st,
                                  unsigned attempt,
                                  const std::string &why) -> bool {
        if (cfg.spareShards == 0)
            return false;
        const std::uint32_t spare =
            cfg.threads + (spareRotor++ % cfg.spareShards);
        shardRetriesCtr.add();
        spareServesCtr.add();
        telem::FlightEvent ev;
        ev.kind = telem::FlightKind::ShardFailover;
        ev.shard = st.slot;
        ev.requestId = req.id;
        ev.offset = s;
        ev.caseId = sliceCaseId(st);
        ev.note = why + "; retrying slice " + std::to_string(s) +
                  " on spare slot " + std::to_string(spare);
        flight.record(std::move(ev));
        st.exceptionText.clear();
        st.resp = serveSliceOn(spare, st.pieceOf(req), &st.exceptionText,
                               st.hits);
        st.threw = !st.exceptionText.empty();
        st.attemptBeats += st.resp.beats;
        st.slot = spare;
        if (st.threw || !st.resp.ok()) {
            ShardError se;
            se.slice = s;
            se.slot = spare;
            se.attempt = attempt;
            se.kind = st.threw ? ShardFaultKind::Exception
                               : ShardFaultKind::ServeError;
            se.detail = st.threw ? st.exceptionText
                                 : st.resp.error.toString();
            lastErrors.push_back(std::move(se));
        }
        return true;
    };

    for (std::size_t s = 0; s < nshards; ++s) {
        SliceState &st = batch->slices[s];
        if (!st.threw && st.resp.ok()) {
            noteSlotOutcome(st.slot, true);
            continue;
        }
        if (!st.threw && isRequestFault(st.resp.error.code))
            continue; // the request's fault; a retry would not help
        // An operational shard fault: exception, timeout, or a
        // retryable serve error. Charge the slot and fail over.
        if (st.threw) {
            shardExceptionsCtr.add();
            ShardError se;
            se.slice = s;
            se.slot = st.slot;
            se.kind = ShardFaultKind::Exception;
            se.detail = st.exceptionText;
            lastErrors.push_back(std::move(se));
            noteSlotOutcome(st.slot, false);
        } else if (st.resp.error.code != ErrorCode::ShardFailed) {
            // (Timeouts were recorded and charged at abandonment.)
            ShardError se;
            se.slice = s;
            se.slot = st.slot;
            se.kind = ShardFaultKind::ServeError;
            se.detail = st.resp.error.toString();
            lastErrors.push_back(std::move(se));
            noteSlotOutcome(st.slot, false);
        }
        shardFailuresCtr.add();
        const std::string why = st.threw
                                    ? "exception: " + st.exceptionText
                                    : st.resp.error.toString();
        for (unsigned attempt = 1; attempt <= cfg.maxSliceRetries;
             ++attempt) {
            if (!retryOnSpare(s, st, attempt,
                              attempt == 1 ? why : "retry failed"))
                break;
            if (!st.threw &&
                (st.resp.ok() || isRequestFault(st.resp.error.code)))
                break;
        }
        if (st.threw ||
            (!st.resp.ok() && !isRequestFault(st.resp.error.code))) {
            // Unrecovered: surface as the typed shard error.
            const std::string detail =
                st.threw ? "shard task threw: " + st.exceptionText
                         : st.resp.error.toString();
            st.resp.error = ServiceError::make(
                ErrorCode::ShardFailed,
                "slice " + std::to_string(s) + " unrecovered after " +
                    std::to_string(cfg.maxSliceRetries) +
                    " retries: " + detail);
            st.hits.clear();
        }
    }
    // Request-level view: pool handoff, shard kernels, recovery
    // retries all happened between the admit mark and here.
    clock.mark(telem::Stage::Kernel);

    // --- Overlap cross-check: a free end-to-end integrity check ------
    // Neighbor shards computed the k-1 overlap twice; disagreement
    // means one of them corrupted bits past its own ladder cross-check
    // (or with that check off). Re-execute both suspects on spares; an
    // unresolved disagreement fails the request typed rather than
    // stitching unverified bits.
    if (cfg.overlapCheck && nshards > 1 && overlap > 0) {
        std::size_t repairs = 0;
        const std::size_t max_repairs =
            nshards * (static_cast<std::size_t>(cfg.maxSliceRetries) + 1);
        for (std::size_t s = 1; s < nshards; ++s) {
            SliceState &cur = batch->slices[s];
            SliceState &left = batch->slices[s - 1];
            if (!cur.resp.ok() || !left.resp.ok() || left.rightExt == 0)
                continue;
            overlapChecksCtr.add();
            // Global positions [starts[s], starts[s] + ext) were
            // computed twice with full history: as the left slice's
            // right extension and as the current slice's first kept
            // bits. Any disagreement is a real fault, not warm-up.
            const std::size_t ext = left.rightExt;
            const std::size_t left_base = left.overlapLen + left.keepLen;
            const auto pairAgrees = [&] {
                return cur.hits.rangeEquals(cur.overlapLen, left.hits,
                                            left_base, ext);
            };
            if (pairAgrees())
                continue;
            overlapMismatchesCtr.add();
            ShardError se;
            se.slice = s;
            se.slot = cur.slot;
            se.kind = ShardFaultKind::OverlapMismatch;
            se.detail = "overlap bits disagree with slice " +
                        std::to_string(s - 1);
            lastErrors.push_back(std::move(se));
            telem::FlightEvent ev;
            ev.kind = telem::FlightKind::OverlapMismatch;
            ev.shard = cur.slot;
            ev.requestId = req.id;
            ev.offset = starts[s];
            ev.code = errorCodeName(ErrorCode::ShardFailed);
            ev.caseId = sliceCaseId(cur);
            ev.note = "slices " + std::to_string(s - 1) + "/" +
                      std::to_string(s) + " disagree on " +
                      std::to_string(ext) + " overlap bits";
            flight.trip("overlap mismatch", std::move(ev));
            const bool can_repair =
                cfg.spareShards > 0 && repairs + 2 <= max_repairs;
            bool repaired = false;
            if (can_repair) {
                repairs += 2;
                retryOnSpare(s - 1, left, 1, "overlap mismatch suspect");
                retryOnSpare(s, cur, 1, "overlap mismatch suspect");
                repaired = !left.threw && left.resp.ok() && !cur.threw &&
                           cur.resp.ok() && pairAgrees();
            }
            if (!repaired) {
                cur.resp.error = ServiceError::make(
                    ErrorCode::ShardFailed,
                    "overlap mismatch between slices " +
                        std::to_string(s - 1) + " and " +
                        std::to_string(s) + " unresolved");
                cur.hits.clear();
            } else if (s >= 2) {
                // The repaired left slice must still agree with *its*
                // left neighbor; rewind to re-check that pair.
                s -= 2;
            }
        }
    }
    clock.mark(telem::Stage::CrossCheck);

    // --- Stitch ------------------------------------------------------
    // Slices stay packed: each one's kept range is appended a shifted
    // word at a time, and the request's result is unpacked once.
    MatchResponse out;
    BitVec hits;
    hits.reserve(n);
    out.id = req.id;
    out.backend = batch->slices[0].resp.backend;
    lastCritical = 0;
    lastTotal = 0;
    for (std::size_t s = 0; s < nshards; ++s) {
        const SliceState &st = batch->slices[s];
        const MatchResponse &r = st.resp;
        if (!r.ok() && out.ok()) {
            out.error = r.error;
            if (nshards > 1)
                out.error.detail =
                    "shard " + std::to_string(s) + ": " + r.error.detail;
        }
        if (r.backend != out.backend)
            out.backend += "+" + r.backend;
        out.degradations += r.degradations;
        out.chunks += r.chunks;
        out.checkpoints += r.checkpoints;
        out.watchdogTrips += r.watchdogTrips;
        out.crossCheckFailures += r.crossCheckFailures;
        lastTotal += st.attemptBeats;
        lastCritical = std::max(lastCritical, r.beats);
        out.busSeconds = std::max(out.busSeconds, r.busSeconds);
        if (out.ok()) {
            // Keep only the slice's own positions: the warm-up prefix
            // belongs to shard s-1, the right extension to shard s+1.
            hits.append(st.hits, st.overlapLen, st.keepLen);
        }
    }
    // The host waits for the slowest shard, not the sum.
    out.beats = lastCritical;
    batch_span.setBeat(lastCritical);
    if (out.ok())
        hits.unpack(out.result);

    clock.mark(telem::Stage::Commit);
    clock.addBeats(out.beats);
    const char *reason = nullptr;
    for (const ShardError &se : lastErrors)
        if (se.kind == ShardFaultKind::OverlapMismatch)
            reason = "overlap mismatch";
    if (!reason && !lastErrors.empty())
        reason = "shard fault";
    if (!reason && out.watchdogTrips > 0)
        reason = "watchdog trip";
    reqObs.observe(clock, req.id, reason != nullptr, reason, [&] {
        return telem::literalCaseId(cfg.base.alphabetBits, req.pattern,
                                    req.text);
    });
    return out;
}

telem::Snapshot
ShardedMatchService::metricsSnapshot() const
{
    telem::Snapshot snap;
    for (const auto &shard : shards)
        snap.merge(shard->metricsSnapshot());
    // The shards' own request observers measure *slices*; re-key them
    // under "shard." so they don't read as a whole-request service
    // next to the request-level "sharded.req.*" histograms below, and
    // restore the name order the snapshot's setters rely on.
    for (auto &entry : snap.histograms)
        if (entry.first.rfind("req.", 0) == 0)
            entry.first = "shard." + entry.first;
    std::sort(snap.histograms.begin(), snap.histograms.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    std::size_t quarantined = 0;
    {
        std::lock_guard<std::mutex> lock(healthMu);
        for (const SlotHealth &h : slotHealth)
            if (h.state == BreakerState::Open)
                ++quarantined;
    }
    snap.setGauge("threads", static_cast<double>(threadCount()));
    snap.setGauge("last_shards", static_cast<double>(nLastShards));
    snap.setGauge("spares", static_cast<double>(cfg.spareShards));
    snap.setGauge("quarantined_now", static_cast<double>(quarantined));
    const telem::Snapshot sup = supMetrics.snapshot();
    for (const auto &[name, value] : sup.counters)
        snap.setCounter("sharded." + name, value);
    for (const auto &[name, hist] : sup.histograms)
        snap.setHistogram("sharded." + name, hist);
    return snap;
}

std::string
ShardedMatchService::statsDump() const
{
    std::string s;
    s += "sharded.threads = " + std::to_string(threadCount()) + "\n";
    s += "sharded.spares = " + std::to_string(cfg.spareShards) + "\n";
    s += "sharded.last_shards = " + std::to_string(nLastShards) + "\n";
    s += "sharded.last_critical_beats = " + std::to_string(lastCritical) +
         "\n";
    s += "sharded.last_total_beats = " + std::to_string(lastTotal) + "\n";
    const telem::Snapshot sup = supMetrics.snapshot();
    for (const auto &[name, value] : sup.counters)
        s += "sharded." + name + " = " + std::to_string(value) + "\n";
    for (const auto &[name, hist] : sup.histograms)
        s += "sharded." + name + ".samples = " +
             std::to_string(hist.samples()) + "\n";
    for (std::size_t i = 0; i < shards.size(); ++i) {
        s += "sharded.shard" + std::to_string(i) + ".served = " +
             std::to_string(
                 shards[i]->stats().counter("served").value()) +
             "\n";
        if (i < slotHealth.size())
            s += "sharded.shard" + std::to_string(i) + ".breaker = " +
                 breakerStateName(breakerState(i)) + "\n";
    }
    return s;
}

} // namespace spm::service
