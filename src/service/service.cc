#include "service/service.hh"

#include <algorithm>
#include <utility>

#include "core/gatechip.hh"
#include "core/reference.hh"
#include "telemetry/telem.hh"
#include "util/logging.hh"

namespace spm::service
{

namespace
{

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string s;
    for (const std::string &n : names) {
        if (!s.empty())
            s += ",";
        s += n;
    }
    return s;
}

} // namespace

// --- StreamSession ----------------------------------------------------

StreamSession::StreamSession(MatchService &svc, MatchRequest req,
                             std::optional<Checkpoint> resume_from)
    : service(svc), request(std::move(req)),
      rungFaults(svc.ladder.size(), 0)
{
    clock.start();
    if (clock.running() && request.enqueuedNs != 0)
        clock.note(telem::Stage::QueueWait,
                   telem::nowNs() - request.enqueuedNs);
    response.id = request.id;
    if (resume_from) {
        cp = std::move(*resume_from);
        response.resumed = true;
        response.beats = cp.beats;
        service.resumesCtr.add();
        if (service.log.enabled())
            service.log.record(
                "req=" + std::to_string(request.id) + " resume offset=" +
                std::to_string(cp.offset) + " rung=" +
                std::to_string(cp.rung) + " ckpt=" +
                std::to_string(cp.digest()));
    } else if (service.log.enabled()) {
        service.log.record("req=" + std::to_string(request.id) +
                           " start n=" +
                           std::to_string(request.text.size()) + " k=" +
                           std::to_string(request.pattern.size()) +
                           " ladder=" +
                           joinNames(service.ladderNames()));
    }
    cp.emitted.reserve(request.text.size());
}

void
StreamSession::fail(ErrorCode code, const std::string &detail)
{
    response.error = ServiceError::make(code, detail);
    finished = true;
    if (service.log.enabled())
        service.log.record("req=" + std::to_string(request.id) +
                           " fail code=" + errorCodeName(code) + " " +
                           detail);
}

Beat
StreamSession::windowBudget(std::size_t window_len) const
{
    // The behavioral feed plan finishes a window of n characters in
    // 2n + phi + cells + 4 beats; the bit-serial organization adds
    // one beat per character bit of drain. The margin covers both
    // and leaves the slack that separates "slow" from "wedged".
    const ServiceConfig &cfg = service.cfg;
    const double plan_beats = 2.0 * static_cast<double>(window_len) +
                              static_cast<double>(cfg.cells) +
                              static_cast<double>(request.pattern.size()) +
                              static_cast<double>(cfg.alphabetBits) + 8.0;
    return static_cast<Beat>(plan_beats * cfg.watchdogMargin);
}

bool
StreamSession::step()
{
    if (finished)
        return false;

    const std::size_t n = request.text.size();
    const std::size_t k = request.pattern.size();
    if (cp.offset >= n) {
        // Fully served; finish() publishes the accumulated stream.
        response.backend = service.ladder.empty()
            ? "none"
            : service.ladder[cp.rung]->name();
        finished = true;
        if (service.log.enabled())
            service.log.record("req=" + std::to_string(request.id) +
                               " done ok backend=" + response.backend +
                               " beats=" +
                               std::to_string(response.beats));
        return false;
    }

    ServiceConfig &cfg = service.cfg;
    const std::size_t chunk =
        std::min(cfg.chunkChars, n - cp.offset);

    // The window re-presents the k-1 checkpointed tail characters so
    // the first result bit of this chunk sees its full substring. A
    // chunk that is the whole request has no tail, so the request text
    // is the window as it stands. Otherwise the window is assembled in
    // a session member whose capacity survives across chunks, so the
    // steady state allocates nothing per chunk.
    const bool whole = cp.offset == 0 && chunk == n;
    if (!whole) {
        window.assign(cp.tail.begin(), cp.tail.end());
        window.insert(window.end(),
                      request.text.begin() +
                          static_cast<std::ptrdiff_t>(cp.offset),
                      request.text.begin() +
                          static_cast<std::ptrdiff_t>(cp.offset + chunk));
    }
    const std::vector<Symbol> &win = whole ? request.text : window;

    SPM_TSPAN_NAMED(chunk_span, "service.chunk", telem::cat::service,
                    response.beats, request.id);

    // The flight recorder's replay handle for this chunk: the window
    // and pattern as a self-contained conformance case.
    auto chunkCaseId = [&] {
        return telem::literalCaseId(cfg.alphabetBits, request.pattern,
                                    win);
    };
    auto flightEvent = [&](telem::FlightKind kind) {
        telem::FlightEvent ev;
        ev.kind = kind;
        ev.beat = response.beats;
        ev.shard = cfg.shardId;
        ev.requestId = request.id;
        ev.offset = cp.offset;
        return ev;
    };

    // Everything up to here -- queue pop, window assembly, budget
    // math -- is admission work.
    clock.mark(telem::Stage::Admit);

    bool last_fail_watchdog = false;
    std::size_t rung = cp.rung;
    while (rung < service.ladder.size()) {
        ServiceBackend &backend = *service.ladder[rung];
        if (!backend.supports(request.pattern)) {
            if (service.log.enabled())
                service.log.record("req=" + std::to_string(request.id) +
                                   " skip rung=" + backend.name() +
                                   " reason=unsupported");
            cp.rung = ++rung;
            continue;
        }

        Beat budget = windowBudget(win.size());
        if (request.deadlineBeats > 0) {
            if (response.beats >= request.deadlineBeats) {
                fail(ErrorCode::DeadlineExceeded,
                     "request deadline of " +
                         std::to_string(request.deadlineBeats) +
                         " beats exhausted at offset " +
                         std::to_string(cp.offset));
                return false;
            }
            budget = std::min(budget,
                              request.deadlineBeats - response.beats);
        }

        service.dog.arm(budget);
        WindowResult wr =
            backend.matchWindow(win, request.pattern, service.dog);
        response.beats += wr.beats;
        clock.mark(telem::Stage::Kernel);
        clock.addBeats(wr.beats);

        if (!wr.completed) {
            last_fail_watchdog = service.dog.tripped();
            if (last_fail_watchdog) {
                ++response.watchdogTrips;
                service.watchdogTripsCtr.add();
                telem::FlightEvent trip =
                    flightEvent(telem::FlightKind::WatchdogTrip);
                trip.beat = response.beats;
                trip.code = errorCodeName(ErrorCode::DeadlineExceeded);
                trip.caseId = chunkCaseId();
                trip.note = "rung=" + backend.name() + " budget=" +
                            std::to_string(budget);
                service.flight.trip("watchdog trip", std::move(trip));
                SPM_TINSTANT("service.watchdog_trip",
                             telem::cat::service, response.beats,
                             request.id);
            }
            if (service.log.enabled())
                service.log.record(
                    "req=" + std::to_string(request.id) +
                    " cancel rung=" + backend.name() + " offset=" +
                    std::to_string(cp.offset) + " " +
                    (wr.note.empty() ? "failed" : wr.note));
            ++response.degradations;
            service.degradationsCtr.add();
            telem::FlightEvent fall =
                flightEvent(telem::FlightKind::LadderTransition);
            fall.beat = response.beats;
            fall.code = errorCodeName(last_fail_watchdog
                                          ? ErrorCode::DeadlineExceeded
                                          : ErrorCode::BackendFailed);
            fall.caseId = chunkCaseId();
            fall.note = "fall from=" + backend.name() + " to_rung=" +
                        std::to_string(rung + 1);
            service.flight.trip("ladder transition", std::move(fall));
            SPM_TINSTANT("service.ladder_fall", telem::cat::service,
                         response.beats, rung + 1);
            cp.rung = ++rung;
            continue;
        }

        if (cfg.crossCheck) {
            core::ReferenceMatcher().matchInto(win, request.pattern,
                                               expect);
            clock.mark(telem::Stage::CrossCheck);
            if (wr.bits != expect) {
                ++response.crossCheckFailures;
                service.crossCheckFailuresCtr.add();
                const unsigned faults = ++rungFaults[rung];
                telem::FlightEvent mismatch =
                    flightEvent(telem::FlightKind::CrossCheckMismatch);
                mismatch.code = errorCodeName(ErrorCode::BackendFailed);
                mismatch.caseId = chunkCaseId();
                mismatch.note =
                    "rung=" + backend.name() + " faults=" +
                    std::to_string(faults) + "/" +
                    std::to_string(cfg.rungFaultBudget);
                service.flight.record(std::move(mismatch));
                if (service.log.enabled())
                    service.log.record(
                        "req=" + std::to_string(request.id) +
                        " crosscheck-mismatch rung=" + backend.name() +
                        " offset=" + std::to_string(cp.offset) +
                        " faults=" + std::to_string(faults) + "/" +
                        std::to_string(cfg.rungFaultBudget));
                if (faults > cfg.rungFaultBudget) {
                    last_fail_watchdog = false;
                    ++response.degradations;
                    service.degradationsCtr.add();
                    telem::FlightEvent fall = flightEvent(
                        telem::FlightKind::LadderTransition);
                    fall.code =
                        errorCodeName(ErrorCode::BackendFailed);
                    fall.caseId = chunkCaseId();
                    fall.note = "fault budget burned from=" +
                                backend.name() + " to_rung=" +
                                std::to_string(rung + 1);
                    service.flight.trip("ladder transition",
                                        std::move(fall));
                    SPM_TINSTANT("service.ladder_fall",
                                 telem::cat::service, response.beats,
                                 rung + 1);
                    cp.rung = ++rung;
                }
                // Within budget: re-run the same rung (a transient
                // clears on the re-run; a permanent fault burns the
                // budget and forces the fall).
                continue;
            }
        }

        // Commit: pace the chunk over the bus as one batched handoff
        // (parity checked end to end; same counters as the per-char
        // path), append the new result bits -- the window's last
        // `chunk` positions, moved a shifted word at a time -- and cut
        // a checkpoint.
        service.cfg.bus.transferChunk(request.text.data() + cp.offset,
                                      request.text.data() + cp.offset,
                                      chunk);
        cp.emitted.append(wr.bits, win.size() - chunk, chunk);

        cp.offset += chunk;
        const std::size_t tail_len =
            std::min(k > 0 ? k - 1 : 0, cp.offset);
        cp.tail.assign(request.text.begin() +
                           static_cast<std::ptrdiff_t>(cp.offset -
                                                       tail_len),
                       request.text.begin() +
                           static_cast<std::ptrdiff_t>(cp.offset));
        cp.rung = rung;
        cp.beats = response.beats;
        ++response.chunks;
        ++response.checkpoints;
        service.checkpointsCtr.add();
        SPM_THIST(service.chunkBeatsHist,
                  static_cast<double>(wr.beats));
        chunk_span.setBeat(response.beats);
        service.flight.record(
            flightEvent(telem::FlightKind::ChunkCommit));
        clock.mark(telem::Stage::Commit);
        if (service.log.enabled()) {
            service.log.record(
                "req=" + std::to_string(request.id) + " chunk offset=" +
                std::to_string(cp.offset) + "/" + std::to_string(n) +
                " rung=" + backend.name() + " beats=" +
                std::to_string(wr.beats) + " ckpt=" +
                std::to_string(cp.digest()));
            clock.mark(telem::Stage::Journal);
        }
        // Even when this was the last chunk, one more step() call
        // publishes the response; callers loop on the return value.
        return true;
    }

    // Every rung skipped, cancelled or out of fault budget.
    if (last_fail_watchdog)
        fail(ErrorCode::DeadlineExceeded,
             "watchdog cancelled every remaining rung at offset " +
                 std::to_string(cp.offset));
    else
        fail(ErrorCode::BackendFailed,
             "degradation ladder exhausted at offset " +
                 std::to_string(cp.offset));
    return false;
}

MatchResponse
StreamSession::finish()
{
    BitVec hits;
    MatchResponse resp = finishPacked(hits);
    if (resp.ok())
        hits.unpack(resp.result);
    return resp;
}

MatchResponse
StreamSession::finishPacked(BitVec &hits)
{
    if (!finished) {
        if (cp.offset >= request.text.size()) {
            // All chunks done; step() once more to publish.
            step();
        } else {
            cancel("finish() before completion");
        }
    }
    // The session ends here, so its stream moves out, not copies.
    if (response.ok())
        hits = std::move(cp.emitted);
    else
        hits.clear();
    clock.mark(telem::Stage::Commit);
    service.servedCtr.add();
    if (response.ok())
        service.completedCtr.add();
    else
        service.failedCtr.add();
    if (!observed) {
        observed = true;
        // Watchdog trips and ladder falls force-retain their trace;
        // the whole request replays as one conformance case.
        const char *reason = nullptr;
        if (response.watchdogTrips > 0)
            reason = "watchdog trip";
        else if (response.crossCheckFailures > 0)
            reason = "cross-check mismatch";
        else if (response.degradations > 0)
            reason = "ladder fall";
        service.reqObs.observe(
            clock, request.id, reason != nullptr, reason, [this] {
                return telem::literalCaseId(service.cfg.alphabetBits,
                                            request.pattern,
                                            request.text);
            });
    }
    return response;
}

void
StreamSession::cancel(const std::string &reason)
{
    if (finished)
        return;
    fail(ErrorCode::Cancelled, reason);
}

// --- MatchService -----------------------------------------------------

MatchService::MatchService(ServiceConfig config)
    : MatchService(std::move(config), {})
{
}

MatchService::MatchService(
    ServiceConfig config,
    std::vector<std::unique_ptr<ServiceBackend>> ladder_rungs)
    : cfg(std::move(config)), ladder(std::move(ladder_rungs)),
      queue(cfg.queueCapacity, cfg.policy), log(cfg.journalEnabled),
      servedCtr(metrics.counter("served")),
      completedCtr(metrics.counter("completed")),
      failedCtr(metrics.counter("failed")),
      degradationsCtr(metrics.counter("degradations")),
      watchdogTripsCtr(metrics.counter("watchdogTrips")),
      crossCheckFailuresCtr(metrics.counter("crossCheckFailures")),
      checkpointsCtr(metrics.counter("checkpoints")),
      resumesCtr(metrics.counter("resumes")),
      queueDepthGauge(metrics.gauge("queue_depth")),
      chunkBeatsHist(metrics.histogram("chunk_beats")),
      flight(cfg.flightCapacity),
      reqObs(metrics, "stream", &exemplarStore)
{
    spm_assert(cfg.cells > 0, "service needs at least one cell");
    spm_assert(cfg.chunkChars > 0, "service needs a nonzero chunk size");
    spm_assert(cfg.alphabetBits >= 1 && cfg.alphabetBits <= 16,
               "alphabet width must be in [1, 16] bits");
    if (ladder.empty())
        ladder = makeDefaultLadder(cfg);
    spm_assert(!ladder.empty(), "service needs at least one backend");
}

std::vector<std::string>
MatchService::ladderNames() const
{
    std::vector<std::string> names;
    names.reserve(ladder.size());
    for (const auto &b : ladder)
        names.push_back(b->name());
    return names;
}

std::optional<ServiceError>
MatchService::validate(const MatchRequest &req) const
{
    return validateRequest(cfg, req);
}

namespace
{

/**
 * Whether any symbol of @p syms is outside an alphabet of @p sigma
 * symbols: >= sigma, or the wild card when !WildOk (text).  One
 * branch-free OR over fixed-size blocks, so the compiler vectorises
 * it; the validators rescan for the first offender only when this
 * says there is one.  Below 16 bits the wild card 0xFFFF is itself
 * >= sigma; at 16 bits every symbol fits, so only a wild card in text
 * can be outside.
 */
template <bool WildOk>
bool
anyOutside(const std::vector<Symbol> &syms, std::uint32_t sigma)
{
    const Symbol high = static_cast<Symbol>(~(sigma - 1)); // bits >= sigma
    if (high == 0)
        return !WildOk && std::find(syms.begin(), syms.end(),
                                    wildcardSymbol) != syms.end();
    auto literal = [](Symbol c) {
        return WildOk && c == wildcardSymbol ? Symbol(0) : c;
    };
    constexpr std::size_t block = 64;
    const Symbol *s = syms.data();
    const std::size_t n = syms.size();
    Symbol acc = 0;
    std::size_t i = 0;
    for (; i + block <= n; i += block)
        for (std::size_t j = 0; j < block; ++j)
            acc = static_cast<Symbol>(acc | literal(s[i + j]));
    for (; i < n; ++i)
        acc = static_cast<Symbol>(acc | literal(s[i]));
    return (acc & high) != 0;
}

} // namespace

std::optional<ServiceError>
validatePattern(const ServiceConfig &cfg, const std::vector<Symbol> &pattern,
                const std::string &label)
{
    if (pattern.empty())
        return ServiceError::make(ErrorCode::InvalidPattern,
                                  "empty " + label);
    if (pattern.size() > cfg.maxPatternLen)
        return ServiceError::make(
            ErrorCode::OversizedRequest,
            label + " of " + std::to_string(pattern.size()) +
                " exceeds limit " + std::to_string(cfg.maxPatternLen));
    const std::uint32_t sigma = std::uint32_t(1) << cfg.alphabetBits;
    if (!anyOutside<true>(pattern, sigma))
        return std::nullopt;
    for (std::size_t i = 0; i < pattern.size(); ++i)
        if (pattern[i] != wildcardSymbol && pattern[i] >= sigma)
            return ServiceError::make(
                ErrorCode::AlphabetOverflow,
                label + "[" + std::to_string(i) + "]=" +
                    std::to_string(pattern[i]) + " outside alphabet of " +
                    std::to_string(sigma));
    return std::nullopt;
}

std::optional<ServiceError>
validateText(const ServiceConfig &cfg, const std::vector<Symbol> &text,
             std::uint64_t already_seen, const std::string &label)
{
    if (already_seen + text.size() > cfg.maxTextLen)
        return ServiceError::make(
            ErrorCode::OversizedRequest,
            label + " of " + std::to_string(already_seen + text.size()) +
                " chars exceeds limit " + std::to_string(cfg.maxTextLen));
    const std::uint32_t sigma = std::uint32_t(1) << cfg.alphabetBits;
    if (!anyOutside<false>(text, sigma))
        return std::nullopt;
    for (std::size_t i = 0; i < text.size(); ++i)
        if (text[i] >= sigma || text[i] == wildcardSymbol)
            return ServiceError::make(
                ErrorCode::AlphabetOverflow,
                label + "[" + std::to_string(i) + "]=" +
                    std::to_string(text[i]) + " outside alphabet of " +
                    std::to_string(sigma));
    return std::nullopt;
}

std::optional<ServiceError>
validateRequest(const ServiceConfig &cfg, const MatchRequest &req)
{
    if (auto err = validatePattern(cfg, req.pattern))
        return err;
    return validateText(cfg, req.text);
}

StreamSession
MatchService::startSession(const MatchRequest &req)
{
    return openSession(MatchRequest(req));
}

StreamSession
MatchService::openSession(MatchRequest &&req)
{
    StreamSession session(*this, std::move(req), std::nullopt);
    if (auto err = validate(session.request))
        session.fail(err->code, err->detail);
    return session;
}

MatchResponse
MatchService::serve(const MatchRequest &req)
{
    BitVec hits;
    MatchResponse resp = servePacked(req, hits);
    if (resp.ok())
        hits.unpack(resp.result);
    return resp;
}

MatchResponse
MatchService::servePacked(const MatchRequest &req, BitVec &hits)
{
    return servePacked(MatchRequest(req), hits);
}

MatchResponse
MatchService::servePacked(MatchRequest &&req, BitVec &hits)
{
    StreamSession session = openSession(std::move(req));
    while (session.step()) {
    }
    return session.finishPacked(hits);
}

MatchResponse
MatchService::resume(const MatchRequest &req, const Checkpoint &from)
{
    StreamSession session(*this, req, from);
    if (auto err = validate(req)) {
        session.fail(err->code, err->detail);
        return session.finish();
    }
    const std::size_t k = req.pattern.size();
    const std::size_t want_tail = std::min(k > 0 ? k - 1 : 0, from.offset);
    if (from.offset > req.text.size() ||
        from.emitted.size() != from.offset ||
        from.tail.size() != want_tail || from.rung >= ladder.size()) {
        session.fail(ErrorCode::InvalidCheckpoint,
                     "checkpoint inconsistent with request (offset " +
                         std::to_string(from.offset) + ", " +
                         std::to_string(from.emitted.size()) +
                         " emitted, tail " +
                         std::to_string(from.tail.size()) + ")");
        return session.finish();
    }
    while (session.step()) {
    }
    return session.finish();
}

MatchService::SubmitResult
MatchService::submit(MatchRequest req)
{
    SubmitResult out;
    if (auto err = validate(req)) {
        // Invalid requests never consume queue space; the rejection
        // is typed just like an admission rejection.
        out.error = *err;
        if (log.enabled())
            log.record("req=" + std::to_string(req.id) +
                       " rejected at validation: " + err->toString());
        return out;
    }

#ifndef SPM_TELEM_OFF
    if (telem::samplingEnabled() && req.enqueuedNs == 0)
        req.enqueuedNs = telem::nowNs();
#endif
    for (;;) {
        Admission adm = queue.offer(std::move(req));
        if (adm.shed) {
            // The displaced request is answered, never dropped.
            MatchResponse shed_resp;
            shed_resp.id = adm.shed->id;
            shed_resp.error = ServiceError::make(
                ErrorCode::Shed, "evicted under shed-oldest policy");
            if (log.enabled())
                log.record("req=" + std::to_string(shed_resp.id) +
                           " shed");
            servedCtr.add();
            failedCtr.add();
            out.shedResponse = std::move(shed_resp);
        }
        if (adm.admitted) {
            out.accepted = true;
            queueDepthGauge.set(static_cast<double>(queue.size()));
            return out;
        }
        if (adm.mustDrain) {
            // Block policy: the producer stalls while the service
            // drains the queue head, then the offer is retried with
            // the bounced request.
            spm_assert(adm.bounced.has_value(),
                       "blocked offer must bounce the request");
            if (auto head = queue.pop()) {
                queueDepthGauge.set(static_cast<double>(queue.size()));
                out.drained.push_back(serve(*head));
            }
            req = std::move(*adm.bounced);
            continue;
        }
        out.error = adm.error;
        return out;
    }
}

std::vector<MatchResponse>
MatchService::drain()
{
    std::vector<MatchResponse> out;
    while (auto req = queue.pop()) {
        queueDepthGauge.set(static_cast<double>(queue.size()));
        out.push_back(serve(*req));
    }
    return out;
}

telem::Snapshot
MatchService::metricsSnapshot() const
{
    telem::Snapshot snap = metrics.snapshot();
    snap.setCounter("queue.offered", queue.offered());
    snap.setCounter("queue.admitted", queue.admitted());
    snap.setCounter("queue.rejected", queue.rejected());
    snap.setCounter("queue.shed", queue.shedCount());
    snap.setCounter("queue.blockedOffers", queue.blockedOffers());
    return snap;
}

std::string
MatchService::statsDump() const
{
    return metricsSnapshot().renderText("service.") +
           cfg.bus.statsDump();
}

std::vector<std::unique_ptr<ServiceBackend>>
makeDefaultLadder(const ServiceConfig &config)
{
    std::vector<std::unique_ptr<ServiceBackend>> ladder;

    auto gate = std::make_unique<core::GateLevelMatcher>(
        config.cells, config.alphabetBits);
    core::GateLevelMatcher *gate_raw = gate.get();
    ladder.push_back(std::make_unique<MatcherBackend>(
        std::move(gate), config.cells,
        [gate_raw] { return gate_raw->lastBeats(); }));

    ladder.push_back(std::make_unique<BehavioralBackend>(config.cells));
    ladder.push_back(std::make_unique<SoftwareBackend>());
    return ladder;
}

} // namespace spm::service
