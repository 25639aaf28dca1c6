/**
 * @file
 * Tests for the resilient streaming match service: the typed error
 * taxonomy and request validation, the bounded admission queue under
 * all three backpressure policies, the beat-budget watchdog and
 * cancellation semantics, checkpoint/resume determinism, the
 * degradation ladder under injected faults, and journal determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/behavioral.hh"
#include "core/reference.hh"
#include "core/simdpar.hh"
#include "fault/injector.hh"
#include "fault/model.hh"
#include "service/backend.hh"
#include "service/checkpoint.hh"
#include "service/error.hh"
#include "service/queue.hh"
#include "service/service.hh"
#include "service/watchdog.hh"
#include "tests/helpers.hh"
#include "util/rng.hh"

namespace spm::service
{
namespace
{

/**
 * A deliberately wedged backend: it eats its entire beat budget
 * without ever producing a result, the way a fault that corrupts the
 * validity choreography starves the result stream.
 */
class WedgedBackend : public ServiceBackend
{
  public:
    std::string name() const override { return "wedged-fake"; }

    WindowResult matchWindow(const std::vector<Symbol> &,
                             const std::vector<Symbol> &,
                             BeatWatchdog &dog) override
    {
        WindowResult wr;
        while (dog.tick(1))
            ++wr.beats;
        wr.note = "wedged: consumed the whole budget";
        return wr;
    }
};

/** A backend that always answers all-true: silently wrong. */
class LyingBackend : public ServiceBackend
{
  public:
    std::string name() const override { return "lying-fake"; }

    WindowResult matchWindow(const std::vector<Symbol> &window,
                             const std::vector<Symbol> &,
                             BeatWatchdog &dog) override
    {
        WindowResult wr;
        wr.bits.assign(window.size(), true);
        wr.beats = window.size();
        dog.tick(wr.beats);
        wr.completed = true;
        return wr;
    }
};

ServiceConfig
smallConfig()
{
    ServiceConfig cfg;
    cfg.cells = 8;
    cfg.alphabetBits = 2;
    cfg.chunkChars = 16;
    cfg.queueCapacity = 2;
    return cfg;
}

std::vector<std::unique_ptr<ServiceBackend>>
behavioralLadder(std::size_t cells)
{
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<BehavioralBackend>(cells));
    ladder.push_back(std::make_unique<SoftwareBackend>());
    return ladder;
}

MatchRequest
seededRequest(std::uint64_t id, std::uint64_t seed, BitWidth bits,
              std::size_t text_len, std::size_t pattern_len,
              double wildcard_prob = 0.25)
{
    WorkloadGen gen(seed, bits);
    MatchRequest req;
    req.id = id;
    req.pattern = gen.randomPattern(pattern_len, wildcard_prob);
    req.text = gen.textWithPlants(text_len, req.pattern,
                                  pattern_len * 2 + 1);
    return req;
}

TEST(ServiceError, CodesHaveStableNames)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidPattern),
                 "invalid_pattern");
    EXPECT_STREQ(errorCodeName(ErrorCode::AlphabetOverflow),
                 "alphabet_overflow");
    EXPECT_STREQ(errorCodeName(ErrorCode::OversizedRequest),
                 "oversized_request");
    EXPECT_STREQ(errorCodeName(ErrorCode::QueueOverflow),
                 "queue_overflow");
    EXPECT_STREQ(errorCodeName(ErrorCode::Shed), "shed");
    EXPECT_STREQ(errorCodeName(ErrorCode::DeadlineExceeded),
                 "deadline_exceeded");
    EXPECT_STREQ(errorCodeName(ErrorCode::BackendFailed),
                 "backend_failed");
    EXPECT_STREQ(errorCodeName(ErrorCode::Cancelled), "cancelled");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidCheckpoint),
                 "invalid_checkpoint");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidDictionary),
                 "invalid_dictionary");

    const ServiceError e =
        ServiceError::make(ErrorCode::Shed, "queue full");
    EXPECT_TRUE(bool(e));
    EXPECT_EQ(e.toString(), "shed: queue full");
    EXPECT_FALSE(bool(ServiceError::ok()));
}

TEST(ServiceValidation, TypedRejections)
{
    MatchService svc(smallConfig(), behavioralLadder(8));

    MatchRequest req;
    req.text = {0, 1, 2};
    auto err = svc.validate(req); // empty pattern
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::InvalidPattern);

    req.pattern = {0, 3}; // fine
    EXPECT_FALSE(svc.validate(req).has_value());

    req.text = {0, 1, 7}; // 7 outside 2-bit alphabet
    err = svc.validate(req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::AlphabetOverflow);

    req.text = {0, 1, 2};
    req.pattern = {0, 9}; // 9 outside alphabet, not the wild card
    err = svc.validate(req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::AlphabetOverflow);

    req.pattern = {0, wildcardSymbol}; // wild card is always legal
    EXPECT_FALSE(svc.validate(req).has_value());

    ServiceConfig tiny = smallConfig();
    tiny.maxTextLen = 4;
    tiny.maxPatternLen = 2;
    MatchService bounded(tiny, behavioralLadder(8));
    req.text = {0, 1, 2, 3, 0};
    req.pattern = {0, 1};
    err = bounded.validate(req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::OversizedRequest);

    req.text = {0, 1};
    req.pattern = {0, 1, 2};
    err = bounded.validate(req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::OversizedRequest);

    // An invalid request is refused at submit() without queueing.
    MatchRequest bad;
    bad.id = 42;
    auto sub = bounded.submit(bad);
    EXPECT_FALSE(sub.accepted);
    EXPECT_EQ(sub.error.code, ErrorCode::InvalidPattern);
    EXPECT_EQ(bounded.queuedRequests(), 0u);
}

TEST(ServiceMatch, AgreesWithReferenceOnSeededWorkloads)
{
    core::ReferenceMatcher ref;
    for (std::uint64_t i = 0; i < 12; ++i) {
        const test::Workload w = test::makeWorkload(i);
        ServiceConfig cfg = smallConfig();
        cfg.alphabetBits = w.bits;
        // Size the array (even cell count) and the pattern limit to
        // the workload so no request degrades off the systolic rung.
        const std::size_t k = w.pattern.size();
        cfg.cells = std::max<std::size_t>(16, k + k % 2);
        cfg.maxPatternLen = std::max<std::size_t>(cfg.maxPatternLen, k);
        cfg.chunkChars = 8 + i % 13;
        MatchService svc(cfg, behavioralLadder(cfg.cells));

        MatchRequest req;
        req.id = i;
        req.text = w.text;
        req.pattern = w.pattern;
        const MatchResponse resp = svc.serve(req);
        ASSERT_TRUE(resp.ok()) << resp.error.toString();
        EXPECT_EQ(resp.result, ref.match(w.text, w.pattern))
            << "workload " << i;
        EXPECT_EQ(resp.degradations, 0u);
        EXPECT_EQ(resp.backend, "systolic-behavioral");
        EXPECT_GT(resp.checkpoints, 0u);
    }
}

TEST(ServiceMatch, EmptyTextServesEmptyResult)
{
    MatchService svc(smallConfig(), behavioralLadder(8));
    MatchRequest req;
    req.pattern = {0, 1};
    const MatchResponse resp = svc.serve(req);
    EXPECT_TRUE(resp.ok());
    EXPECT_TRUE(resp.result.empty());
}

TEST(ServiceMatch, DefaultLadderStartsAtGateLevel)
{
    ServiceConfig cfg = smallConfig();
    cfg.chunkChars = 12;
    MatchService svc(cfg); // default ladder: gate -> behavioral -> sw
    const auto names = svc.ladderNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "systolic-gatelevel");
    EXPECT_EQ(names[1], "systolic-behavioral");
    EXPECT_EQ(names[2], "software-baseline");

    const MatchRequest req = seededRequest(1, 7, 2, 24, 3);
    const MatchResponse resp = svc.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.toString();
    EXPECT_EQ(resp.backend, "systolic-gatelevel");
    EXPECT_EQ(resp.result,
              core::ReferenceMatcher().match(req.text, req.pattern));
}

TEST(Watchdog, TripsOnceArmedBudgetIsExhausted)
{
    BeatWatchdog dog(10);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(dog.tick(1));
    EXPECT_FALSE(dog.tripped());
    EXPECT_FALSE(dog.tick(1));
    EXPECT_TRUE(dog.tripped());
    EXPECT_EQ(dog.trips(), 1u);

    dog.arm(5);
    EXPECT_FALSE(dog.tripped());
    EXPECT_FALSE(dog.tick(6));
    EXPECT_EQ(dog.trips(), 2u);
}

TEST(Watchdog, WedgedBackendIsCancelledWithinBudget)
{
    // A ladder with only the wedged rung: the watchdog must cancel
    // within the armed beat budget and return deadline_exceeded.
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<WedgedBackend>());
    ServiceConfig cfg = smallConfig();
    cfg.watchdogMargin = 1.5;
    MatchService svc(cfg, std::move(ladder));

    const MatchRequest req = seededRequest(9, 11, 2, 40, 4);
    const MatchResponse resp = svc.serve(req);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::DeadlineExceeded);
    EXPECT_GE(resp.watchdogTrips, 1u);

    // The cancellation consumed no more than the armed budget: the
    // per-window budget is margin * (2w + cells + k + bits + 8).
    const Beat budget = static_cast<Beat>(
        1.5 * (2.0 * (cfg.chunkChars + req.pattern.size() - 1) +
               cfg.cells + req.pattern.size() + cfg.alphabetBits + 8));
    EXPECT_LE(resp.beats, budget + 1);
}

TEST(Watchdog, ServiceServesNextRequestAfterCancellation)
{
    // Wedged primary, healthy floor: the first request degrades and
    // completes; a ladder of only the wedge fails the request but the
    // *service* stays up and serves the next one.
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<WedgedBackend>());
    ladder.push_back(std::make_unique<SoftwareBackend>());
    MatchService svc(smallConfig(), std::move(ladder));

    const MatchRequest req = seededRequest(1, 23, 2, 40, 4);
    const MatchResponse first = svc.serve(req);
    ASSERT_TRUE(first.ok()) << first.error.toString();
    EXPECT_EQ(first.backend, "software-baseline");
    EXPECT_GE(first.degradations, 1u);
    EXPECT_EQ(first.result,
              core::ReferenceMatcher().match(req.text, req.pattern));

    const MatchRequest req2 = seededRequest(2, 29, 2, 32, 3);
    const MatchResponse second = svc.serve(req2);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.result,
              core::ReferenceMatcher().match(req2.text, req2.pattern));
}

TEST(Ladder, LyingBackendNeverCorruptsSilently)
{
    // The lying rung answers instantly but wrongly; the cross-check
    // must catch every chunk and the request must degrade to the
    // software floor with a correct final result.
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<LyingBackend>());
    ladder.push_back(std::make_unique<SoftwareBackend>());
    ServiceConfig cfg = smallConfig();
    cfg.rungFaultBudget = 1;
    MatchService svc(cfg, std::move(ladder));

    const MatchRequest req = seededRequest(5, 31, 2, 48, 4);
    const MatchResponse resp = svc.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.toString();
    EXPECT_EQ(resp.backend, "software-baseline");
    EXPECT_GE(resp.crossCheckFailures, 2u); // budget + the last straw
    EXPECT_GE(resp.degradations, 1u);
    EXPECT_EQ(resp.result,
              core::ReferenceMatcher().match(req.text, req.pattern));
}

TEST(Ladder, InjectedPermanentFaultDegradesToSoftware)
{
    // A stuck-at-1 compare latch makes the behavioral rung lie; the
    // cross-check burns its fault budget and the service falls to the
    // software floor, still answering correctly.
    fault::FaultInjector inj(2);
    fault::Fault f;
    f.kind = fault::FaultKind::StuckAt1;
    f.point = systolic::FaultPoint::CompareLatch;
    f.cell = 1;
    inj.addFault(f);

    auto faulty = std::make_unique<BehavioralBackend>(8);
    faulty->setChipPrep([&inj](core::BehavioralChip &chip) {
        inj.attach(chip.engine(), fault::behavioralResolver(chip));
    });
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::move(faulty));
    ladder.push_back(std::make_unique<SoftwareBackend>());

    ServiceConfig cfg = smallConfig();
    cfg.rungFaultBudget = 1;
    MatchService svc(cfg, std::move(ladder));

    const MatchRequest req = seededRequest(6, 37, 2, 48, 4, 0.0);
    const MatchResponse resp = svc.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.toString();
    EXPECT_EQ(resp.result,
              core::ReferenceMatcher().match(req.text, req.pattern));
    EXPECT_GT(inj.injections(), 0u);
    // The fault either corrupts results (cross-check catches it) or
    // is masked by this workload; it must never corrupt silently.
    if (resp.crossCheckFailures > 0) {
        EXPECT_EQ(resp.backend, "software-baseline");
    }
}

TEST(Deadline, WholeRequestBudgetIsEnforced)
{
    MatchService svc(smallConfig(), behavioralLadder(8));
    MatchRequest req = seededRequest(8, 41, 2, 64, 4);
    req.deadlineBeats = 10; // far below one window's protocol cost
    const MatchResponse resp = svc.serve(req);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::DeadlineExceeded);
}

TEST(Checkpoint, ResumeIsBitIdenticalAtEveryKillOffset)
{
    // Metamorphic: kill the stream after 1, 2 and 4 committed chunks
    // and resume; every resumed run must be bit-identical to the
    // uninterrupted one.
    const MatchRequest req = seededRequest(77, 0xFEED, 2, 96, 5);
    ServiceConfig cfg = smallConfig();
    cfg.chunkChars = 16;

    MatchService uninterrupted(cfg, behavioralLadder(8));
    const MatchResponse golden = uninterrupted.serve(req);
    ASSERT_TRUE(golden.ok());
    EXPECT_EQ(golden.result,
              core::ReferenceMatcher().match(req.text, req.pattern));

    for (const std::size_t kill_after : {1u, 2u, 4u}) {
        MatchService svc(cfg, behavioralLadder(8));
        StreamSession session = svc.startSession(req);
        for (std::size_t i = 0; i < kill_after; ++i)
            ASSERT_TRUE(session.step());
        const Checkpoint cp = session.checkpoint();
        EXPECT_EQ(cp.offset, kill_after * cfg.chunkChars);
        session.cancel("killed by test");
        const MatchResponse killed = session.finish();
        EXPECT_EQ(killed.error.code, ErrorCode::Cancelled);

        // A fresh service (fresh chips, fresh journal) resumes from
        // the checkpoint alone.
        MatchService resumed_svc(cfg, behavioralLadder(8));
        const MatchResponse resumed = resumed_svc.resume(req, cp);
        ASSERT_TRUE(resumed.ok()) << resumed.error.toString();
        EXPECT_TRUE(resumed.resumed);
        EXPECT_EQ(resumed.result, golden.result)
            << "kill after " << kill_after << " chunks";
        // The resumed run must not have re-scanned the killed prefix.
        EXPECT_EQ(resumed.chunks,
                  golden.chunks - kill_after);
    }
}

TEST(Checkpoint, InconsistentResumeTokenIsRejected)
{
    const MatchRequest req = seededRequest(3, 0xABC, 2, 40, 4);
    MatchService svc(smallConfig(), behavioralLadder(8));
    Checkpoint bogus;
    bogus.offset = 17; // but no emitted bits / tail
    const MatchResponse resp = svc.resume(req, bogus);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::InvalidCheckpoint);
}

TEST(Checkpoint, DigestChangesWithContents)
{
    Checkpoint a;
    a.offset = 8;
    a.tail = {1, 2, 3};
    a.emitted = BitVec::pack(
        {false, true, false, false, true, false, false, false});
    Checkpoint b = a;
    EXPECT_EQ(a.digest(), b.digest());
    b.emitted.set(3, true);
    EXPECT_NE(a.digest(), b.digest());
    b = a;
    b.tail[0] = 2;
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Checkpoint, DigestIsPinnedAcrossStorage)
{
    // Values computed when emitted was a std::vector<bool>: the packed
    // storage must leave every journal's ckpt= digest unchanged.
    Checkpoint a;
    a.offset = 150;
    a.rung = 2;
    a.beats = 1234;
    a.tail = {3, 1, 2};
    a.emitted = BitVec(150);
    for (std::size_t i = 0; i < 150; ++i)
        a.emitted.set(i, (i * 7 + 3) % 5 == 0 || i == 63 || i == 64);
    EXPECT_EQ(a.digest(), 16856549448568972002ULL);
    EXPECT_EQ(Checkpoint().digest(), 9354609568656401157ULL);
    Checkpoint b;
    b.offset = 128;
    b.emitted = BitVec(128);
    for (std::size_t i = 0; i < 128; i += 3)
        b.emitted.set(i, true);
    EXPECT_EQ(b.digest(), 9287510966159816960ULL);
}

std::vector<std::unique_ptr<ServiceBackend>>
simdLadder()
{
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<MatcherBackend>(
        std::make_unique<core::SimdParallelMatcher>()));
    return ladder;
}

TEST(Checkpoint, PackedCarryResumesBitIdenticalMidStream)
{
    // Chunks of 100 (not a multiple of 64) on the packed SIMD rung:
    // every checkpoint's emitted bits are the golden stream's prefix,
    // and a resume from any of them finishes bit-identically.
    const MatchRequest req = seededRequest(91, 0x91, 2, 1000, 9);
    ServiceConfig cfg = smallConfig();
    cfg.chunkChars = 100;
    MatchService plain(cfg, simdLadder());
    const MatchResponse golden = plain.serve(req);
    ASSERT_TRUE(golden.ok()) << golden.error.toString();
    const std::vector<bool> want =
        core::ReferenceMatcher().match(req.text, req.pattern);
    ASSERT_EQ(golden.result, want);
    const BitVec packed_want = BitVec::pack(want);

    BitVec packed;
    const MatchResponse p = plain.servePacked(req, packed);
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(p.result.empty());
    EXPECT_EQ(packed, packed_want);

    for (const std::size_t kill_after : {1u, 3u, 7u}) {
        MatchService svc(cfg, simdLadder());
        StreamSession session = svc.startSession(req);
        for (std::size_t i = 0; i < kill_after; ++i)
            ASSERT_TRUE(session.step());
        const Checkpoint cp = session.checkpoint();
        ASSERT_EQ(cp.emitted.size(), kill_after * cfg.chunkChars);
        EXPECT_TRUE(cp.emitted.rangeEquals(0, packed_want, 0, cp.offset));
        session.cancel("killed by test");
        EXPECT_EQ(session.finish().error.code, ErrorCode::Cancelled);

        MatchService resumed_svc(cfg, simdLadder());
        const MatchResponse resumed = resumed_svc.resume(req, cp);
        ASSERT_TRUE(resumed.ok()) << resumed.error.toString();
        EXPECT_EQ(resumed.result, want) << "kill after " << kill_after;
    }
}

TEST(ServiceValidation, SixteenBitAlphabetAdmitsEverySymbolButTheWildCard)
{
    ServiceConfig cfg = smallConfig();
    cfg.alphabetBits = 16;
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<SoftwareBackend>());
    MatchService svc(cfg, std::move(ladder));

    MatchRequest req;
    req.id = 16;
    req.pattern = {0xFFFE, wildcardSymbol, 7};
    req.text = {1, 0xFFFE, 2, 7, 40000, 0xFFFE, 9, 7, 0};
    EXPECT_FALSE(svc.validate(req).has_value());
    const MatchResponse resp = svc.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.toString();
    EXPECT_EQ(resp.result,
              core::ReferenceMatcher().match(req.text, req.pattern));
    EXPECT_EQ(resp.result[3], true);

    // The wild card stays out of text even when every other 16-bit
    // value is a character.
    req.text[4] = wildcardSymbol;
    const auto err = svc.validate(req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::AlphabetOverflow);
    EXPECT_EQ(err->detail, "text[4]=65535 outside alphabet of 65536");
    EXPECT_EQ(svc.serve(req).error.code, ErrorCode::AlphabetOverflow);
}

TEST(ServiceValidation, NarrowAlphabetDetailsAreUnchanged)
{
    ServiceConfig cfg = smallConfig(); // 2 bits
    MatchRequest req;
    req.pattern = {0, 9};
    req.text = {0, 1, 2};
    auto err = validateRequest(cfg, req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->detail, "pattern[1]=9 outside alphabet of 4");

    req.pattern = {0, wildcardSymbol};
    req.text = {0, 1, 7};
    err = validateRequest(cfg, req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->detail, "text[2]=7 outside alphabet of 4");

    req.text = {wildcardSymbol};
    err = validateRequest(cfg, req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->detail, "text[0]=65535 outside alphabet of 4");

    cfg.alphabetBits = 8;
    err = validateText(cfg, {255, 256}, 0, "chunk");
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::AlphabetOverflow);
    EXPECT_EQ(err->detail, "chunk[1]=256 outside alphabet of 256");
}

TEST(AdmissionQueue, RejectPolicyBouncesWithTypedError)
{
    AdmissionQueue q(2, BackpressurePolicy::Reject);
    MatchRequest r;
    r.pattern = {0};
    r.id = 1;
    EXPECT_TRUE(q.offer(r).admitted);
    r.id = 2;
    EXPECT_TRUE(q.offer(r).admitted);
    r.id = 3;
    const Admission adm = q.offer(r);
    EXPECT_FALSE(adm.admitted);
    EXPECT_EQ(adm.error.code, ErrorCode::QueueOverflow);
    ASSERT_TRUE(adm.bounced.has_value());
    EXPECT_EQ(adm.bounced->id, 3u);
    EXPECT_EQ(q.rejected(), 1u);
    EXPECT_EQ(q.size(), 2u);
}

TEST(AdmissionQueue, ShedOldestEvictsTheHead)
{
    AdmissionQueue q(2, BackpressurePolicy::ShedOldest);
    MatchRequest r;
    r.pattern = {0};
    for (std::uint64_t id = 1; id <= 3; ++id) {
        r.id = id;
        q.offer(r);
    }
    EXPECT_EQ(q.shedCount(), 1u);
    EXPECT_EQ(q.size(), 2u);
    // Head is now request 2; request 1 was shed.
    const auto head = q.pop();
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->id, 2u);
}

TEST(Service, ShedOldestSurfacesTypedShedResponse)
{
    ServiceConfig cfg = smallConfig();
    cfg.policy = BackpressurePolicy::ShedOldest;
    cfg.queueCapacity = 2;
    MatchService svc(cfg, behavioralLadder(8));

    for (std::uint64_t id = 1; id <= 2; ++id)
        EXPECT_TRUE(svc.submit(seededRequest(id, id, 2, 24, 3)).accepted);
    const auto third = svc.submit(seededRequest(3, 3, 2, 24, 3));
    EXPECT_TRUE(third.accepted);
    ASSERT_TRUE(third.shedResponse.has_value());
    EXPECT_EQ(third.shedResponse->id, 1u);
    EXPECT_EQ(third.shedResponse->error.code, ErrorCode::Shed);

    const auto responses = svc.drain();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].id, 2u);
    EXPECT_EQ(responses[1].id, 3u);
    for (const auto &resp : responses)
        EXPECT_TRUE(resp.ok());
}

TEST(Service, BlockPolicyDrainsInline)
{
    ServiceConfig cfg = smallConfig();
    cfg.policy = BackpressurePolicy::Block;
    cfg.queueCapacity = 2;
    MatchService svc(cfg, behavioralLadder(8));

    for (std::uint64_t id = 1; id <= 2; ++id)
        EXPECT_TRUE(svc.submit(seededRequest(id, id, 2, 24, 3)).accepted);
    const auto third = svc.submit(seededRequest(3, 3, 2, 24, 3));
    EXPECT_TRUE(third.accepted);
    ASSERT_EQ(third.drained.size(), 1u); // producer waited for one drain
    EXPECT_EQ(third.drained[0].id, 1u);
    EXPECT_TRUE(third.drained[0].ok());
    EXPECT_EQ(svc.admission().blockedOffers(), 1u);

    const auto rest = svc.drain();
    EXPECT_EQ(rest.size(), 2u);
}

TEST(Service, JournalIsDeterministic)
{
    auto run = [] {
        ServiceConfig cfg = smallConfig();
        MatchService svc(cfg, behavioralLadder(8));
        svc.serve(seededRequest(1, 0x5EED, 2, 40, 4));
        svc.serve(seededRequest(2, 0x5EEE, 2, 32, 3));
        return svc.journal().dump();
    };
    const std::string a = run();
    const std::string b = run();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Service, StatsDumpCountsServing)
{
    MatchService svc(smallConfig(), behavioralLadder(8));
    svc.serve(seededRequest(1, 1, 2, 24, 3));
    const auto &s = svc.stats();
    EXPECT_EQ(s.counter("served").value(), 1u);
    EXPECT_EQ(s.counter("completed").value(), 1u);
    EXPECT_EQ(s.counter("failed").value(), 0u);
    EXPECT_GT(s.counter("checkpoints").value(), 0u);
    const std::string dump = svc.statsDump();
    EXPECT_NE(dump.find("service.completed = 1"), std::string::npos);
    EXPECT_NE(dump.find("hostbus.charsTransferred"), std::string::npos);
}

} // namespace
} // namespace spm::service
