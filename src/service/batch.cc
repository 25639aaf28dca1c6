#include "service/batch.hh"

#include <algorithm>
#include <utility>

#include "core/reference.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/telem.hh"
#include "util/logging.hh"

namespace spm::service
{

BatchMatchService::BatchMatchService(BatchServiceConfig config)
    : BatchMatchService(std::move(config), core::bestSimdIsa())
{
}

BatchMatchService::BatchMatchService(BatchServiceConfig config,
                                     core::SimdIsa isa)
    : cfg(std::move(config)), engine(isa),
      batchesCtr(metrics.counter("batches")),
      streamsCtr(metrics.counter("streams")),
      streamCharsCtr(metrics.counter("streamChars")),
      kernelPassesCtr(metrics.counter("kernelPasses")),
      rejectedCtr(metrics.counter("rejected")),
      crossChecksCtr(metrics.counter("crossChecks")),
      crossCheckFailuresCtr(metrics.counter("crossCheckFailures")),
      batchWidthHist(metrics.histogram("batch_width")),
      reqObs(metrics, "batch", &exemplarStore)
{
    spm_assert(cfg.maxBatchStreams > 0,
               "batch service needs room for at least one stream");
    spm_assert(cfg.base.alphabetBits >= 1 && cfg.base.alphabetBits <= 16,
               "alphabet width must be in [1, 16] bits");
}

std::vector<std::vector<bool>>
BatchMatchService::runPass(
    std::vector<core::StreamCarry> &carries,
    const std::vector<const std::vector<Symbol> *> &chunks,
    const std::vector<Symbol> &pattern, bool &checked,
    std::uint64_t &mismatches, telem::StageClock &clock)
{
    // A sampled cross-check needs the pre-pass carries; snapshot them
    // only on the passes that audit.
    const std::uint64_t pass = kernelPassesCtr.value();
    checked = cfg.crossCheckEvery != 0 &&
              pass % cfg.crossCheckEvery == 0;
    std::vector<core::StreamCarry> before;
    if (checked)
        before = carries;

    auto bits = engine.feedChunks(carries, chunks, pattern);
    kernelPassesCtr.add();
    clock.mark(telem::Stage::Kernel);
    SPM_THIST(batchWidthHist,
              static_cast<double>(engine.lastBatchWidth()));

    mismatches = 0;
    if (checked) {
        crossChecksCtr.add();
        core::ReferenceMatcher ref;
        const std::size_t k = pattern.size();
        for (std::size_t i = 0; i < chunks.size(); ++i) {
            std::vector<Symbol> window = before[i].tail;
            window.insert(window.end(), chunks[i]->begin(),
                          chunks[i]->end());
            const std::vector<bool> expect = ref.match(window, pattern);
            const std::size_t skip = before[i].tail.size();
            bool bad = false;
            for (std::size_t c = 0; c < chunks[i]->size(); ++c) {
                const bool want = before[i].seen + c + 1 >= k &&
                                  expect[skip + c];
                if (bits[i][c] != want) {
                    bad = true;
                    break;
                }
            }
            if (bad)
                ++mismatches;
        }
        if (mismatches != 0) {
            crossCheckFailuresCtr.add(mismatches);
            SPM_TCOUNT_GLOBAL("batch.cross_check_failures", mismatches);
        }
        clock.mark(telem::Stage::CrossCheck);
    }
    return bits;
}

std::vector<MatchResponse>
BatchMatchService::serveBatch(const std::vector<MatchRequest> &batch)
{
    batchesCtr.add();
    std::vector<MatchResponse> out(batch.size());

    // One stage clock for the whole call: the kernel pass is shared,
    // so per-pass attribution is the honest granularity. Per-member
    // queue waits feed the stage histogram directly (noteQueueWait).
    telem::StageClock clock;
    clock.start();

    // Validate independently; collect the admissible requests.
    std::vector<std::size_t> admitted;
    admitted.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        out[i].id = batch[i].id;
        if (admitted.size() >= cfg.maxBatchStreams) {
            out[i].error = ServiceError::make(
                ErrorCode::QueueOverflow,
                "batch width limit of " +
                    std::to_string(cfg.maxBatchStreams) + " streams");
            rejectedCtr.add();
            continue;
        }
        if (auto err = validateRequest(cfg.base, batch[i])) {
            out[i].error = *err;
            rejectedCtr.add();
            continue;
        }
        if (clock.running() && batch[i].enqueuedNs != 0)
            reqObs.noteQueueWait(telem::nowNs() - batch[i].enqueuedNs);
        admitted.push_back(i);
    }
    streamsCtr.add(admitted.size());
    clock.mark(telem::Stage::Admit);

    // One kernel pass per distinct pattern among the admitted
    // requests; requests sharing a pattern pack into the same pass.
    std::vector<bool> served(batch.size(), false);
    std::uint64_t totalMismatches = 0;
    for (std::size_t a = 0; a < admitted.size(); ++a) {
        const std::size_t lead = admitted[a];
        if (served[lead])
            continue;
        const std::vector<Symbol> &pattern = batch[lead].pattern;
        std::vector<std::size_t> members;
        std::vector<const std::vector<Symbol> *> texts;
        for (std::size_t b = a; b < admitted.size(); ++b) {
            const std::size_t idx = admitted[b];
            if (!served[idx] && batch[idx].pattern == pattern) {
                served[idx] = true;
                members.push_back(idx);
                texts.push_back(&batch[idx].text);
            }
        }

        std::vector<core::StreamCarry> carries(texts.size());
        bool checked = false;
        std::uint64_t mismatches = 0;
        auto bits =
            runPass(carries, texts, pattern, checked, mismatches, clock);
        totalMismatches += mismatches;

        const std::string backend =
            "batch+" + engine.kernel().name();
        for (std::size_t m = 0; m < members.size(); ++m) {
            const std::size_t idx = members[m];
            MatchResponse &resp = out[idx];
            const std::size_t n = batch[idx].text.size();
            cfg.base.bus.transferChunk(batch[idx].text.data(),
                                       batch[idx].text.data(), n);
            resp.result = std::move(bits[m]);
            resp.backend = backend;
            resp.chunks = 1;
            // The steady-rate contract: one text character per beat.
            resp.beats = static_cast<Beat>(n);
            resp.busSeconds = cfg.base.bus.secondsForBeats(resp.beats);
            streamCharsCtr.add(n);
            clock.addBeats(resp.beats);
            if (checked && mismatches != 0)
                resp.error = ServiceError::make(
                    ErrorCode::BackendFailed,
                    "sampled cross-check caught a kernel mismatch in "
                    "this pass");
        }
        clock.mark(telem::Stage::Commit);
    }
    if (!admitted.empty()) {
        const std::size_t lead = admitted.front();
        reqObs.observe(clock, batch[lead].id, totalMismatches != 0,
                       "cross-check mismatch", [&] {
                           return telem::literalCaseId(
                               cfg.base.alphabetBits, batch[lead].pattern,
                               batch[lead].text);
                       });
    }
    return out;
}

BatchStreamGroup
BatchMatchService::openGroup(std::vector<Symbol> pattern,
                             std::size_t width, ServiceError &err)
{
    BatchStreamGroup group;
    err = ServiceError::ok();
    if (width > cfg.maxBatchStreams) {
        err = ServiceError::make(
            ErrorCode::QueueOverflow,
            "group of " + std::to_string(width) +
                " streams exceeds batch width limit " +
                std::to_string(cfg.maxBatchStreams));
        rejectedCtr.add();
        return group;
    }
    if (auto verr = validatePattern(cfg.base, pattern)) {
        err = *verr;
        rejectedCtr.add();
        return group;
    }
    group.pattern = std::move(pattern);
    group.carries.assign(width, core::StreamCarry{});
    streamsCtr.add(width);
    return group;
}

BatchMatchService::GroupFeedResult
BatchMatchService::feedGroup(BatchStreamGroup &group,
                             const std::vector<std::vector<Symbol>> &chunks)
{
    GroupFeedResult res;
    if (group.pattern.empty()) {
        res.error = ServiceError::make(ErrorCode::InvalidPattern,
                                       "group was never opened");
        return res;
    }
    if (chunks.size() != group.carries.size()) {
        res.error = ServiceError::make(
            ErrorCode::BatchMismatch,
            std::to_string(chunks.size()) + " chunks for a group of " +
                std::to_string(group.carries.size()) + " streams");
        return res;
    }

    telem::StageClock clock;
    clock.start();

    // Admission through the shared rule set (service.hh), checked
    // before any carry advances (a rejected feed is a no-op).
    for (std::size_t i = 0; i < chunks.size(); ++i)
        if (auto verr =
                validateText(cfg.base, chunks[i], group.carries[i].seen,
                             "stream[" + std::to_string(i) + "]")) {
            res.error = *verr;
            return res;
        }

    batchesCtr.add();
    std::vector<const std::vector<Symbol> *> ptrs;
    ptrs.reserve(chunks.size());
    std::size_t total = 0;
    for (const std::vector<Symbol> &c : chunks) {
        ptrs.push_back(&c);
        total += c.size();
        cfg.base.bus.transferChunk(c.data(), c.data(), c.size());
    }
    streamCharsCtr.add(total);
    clock.mark(telem::Stage::Admit);

    bool checked = false;
    std::uint64_t mismatches = 0;
    res.bits = runPass(group.carries, ptrs, group.pattern, checked,
                       mismatches, clock);
    if (checked && mismatches != 0)
        res.error = ServiceError::make(
            ErrorCode::BackendFailed,
            "sampled cross-check caught a kernel mismatch in this pass");
    clock.mark(telem::Stage::Commit);
    clock.addBeats(static_cast<Beat>(total));
    reqObs.observe(clock, 0, mismatches != 0, "cross-check mismatch", [&] {
        return telem::literalCaseId(cfg.base.alphabetBits, group.pattern,
                                    chunks.empty() ? std::vector<Symbol>{}
                                                   : chunks.front());
    });
    return res;
}

telem::Snapshot
BatchMatchService::metricsSnapshot() const
{
    return metrics.snapshot();
}

std::string
BatchMatchService::statsDump() const
{
    return metricsSnapshot().renderText("batch.") + cfg.base.bus.statsDump();
}

} // namespace spm::service
