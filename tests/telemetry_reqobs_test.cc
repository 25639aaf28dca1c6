/**
 * @file
 * Unit tests for the request-observability layer: StageClock
 * attribution, the deterministic exemplar reservoir, the
 * RequestObserver fold, and Snapshot::delta interval arithmetic.
 *
 * Under SPM_TELEM_OFF the StageClock and RequestObserver compile to
 * no-ops; those tests flip to asserting exactly that, so the telem-off
 * CI job proves the contract instead of skipping it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "telemetry/metrics.hh"
#include "telemetry/reqobs.hh"

namespace spm::telem
{
namespace
{

TEST(SnapshotDelta, SubtractsCountersAndHistograms)
{
    Registry reg;
    Counter &c = reg.counter("served");
    Histogram &h = reg.histogram("lat");
    c.add(5);
    h.sample(10.0);
    h.sample(20.0);
    const Snapshot earlier = reg.snapshot();
    c.add(3);
    h.sample(1000.0);
    h.sample(std::numeric_limits<double>::quiet_NaN());
    reg.gauge("depth").set(7.0);
    const Snapshot now = reg.snapshot();

    const Snapshot d = now.delta(earlier);
    EXPECT_EQ(d.counterValue("served"), 3u);
    // Gauges are levels, not rates: the delta keeps the current one.
    EXPECT_EQ(d.gaugeValue("depth"), 7.0);
    const Snapshot::HistogramData *ld = d.histogram("lat");
    ASSERT_NE(ld, nullptr);
    EXPECT_EQ(ld->samples(), 1u);
    EXPECT_EQ(ld->invalid, 1u);
    EXPECT_EQ(ld->sum, 1000.0);
    // Interval percentiles see only the interval's sample, to within
    // the log-bucket's 12.5% relative-error bound.
    EXPECT_NEAR(ld->quantile(0.5), 1000.0, 1000.0 / 8.0);
}

TEST(SnapshotDelta, CounterResetClampsToCurrent)
{
    Registry a;
    a.counter("served").add(10);
    const Snapshot earlier = a.snapshot();
    a.reset();
    a.counter("served").add(4);
    const Snapshot now = a.snapshot();
    // A restarted process would otherwise render an underflowed rate.
    EXPECT_EQ(now.delta(earlier).counterValue("served"), 4u);
}

#ifndef SPM_TELEM_OFF

TEST(StageClock, AttributesTimeToMarkedStages)
{
    setSamplingEnabled(true);
    StageClock clock;
    clock.start();
    ASSERT_TRUE(clock.running());
    clock.mark(Stage::Admit);
    clock.note(Stage::QueueWait, 12345);
    clock.mark(Stage::Kernel);
    clock.addBeats(99);
    EXPECT_EQ(clock.stageNs(Stage::QueueWait), 12345u);
    EXPECT_GT(clock.stageNs(Stage::Kernel) + clock.stageNs(Stage::Admit),
              0u);
    EXPECT_EQ(clock.stageNs(Stage::Journal), 0u);
    EXPECT_EQ(clock.beats(), 99u);
    EXPECT_GT(clock.totalNs(), 0u);
    setSamplingEnabled(false);
}

TEST(StageClock, DisabledSamplingDisarms)
{
    setSamplingEnabled(false);
    StageClock clock;
    clock.start();
    EXPECT_FALSE(clock.running());
    clock.mark(Stage::Kernel);
    clock.note(Stage::QueueWait, 1000);
    clock.addBeats(5);
    EXPECT_EQ(clock.stageNs(Stage::Kernel), 0u);
    EXPECT_EQ(clock.stageNs(Stage::QueueWait), 0u);
    EXPECT_EQ(clock.beats(), 0u);
    EXPECT_EQ(clock.totalNs(), 0u);
}

TEST(RequestObserver, FoldsClocksIntoReqHistograms)
{
    setSamplingEnabled(true);
    Registry reg;
    RequestObserver obs(reg, "test", nullptr);
    StageClock clock;
    clock.start();
    clock.note(Stage::QueueWait, 500);
    clock.mark(Stage::Kernel);
    clock.addBeats(64);
    obs.observe(clock, 1, false, nullptr, [] { return std::string(); });
    obs.noteQueueWait(700);
    setSamplingEnabled(false);

    const Snapshot snap = reg.snapshot();
    const Snapshot::HistogramData *lat =
        snap.histogram("req.latency_ns");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->samples(), 1u);
    EXPECT_NEAR(snap.histogram("req.latency_beats")->quantile(0.5), 64.0,
                64.0 / 8.0);
    const Snapshot::HistogramData *qw =
        snap.histogram("req.stage.queue_wait_ns");
    ASSERT_NE(qw, nullptr);
    // One wait from the clock, one from noteQueueWait.
    EXPECT_EQ(qw->samples(), 2u);
    // Unmarked stages record nothing (no zero-spam).
    EXPECT_EQ(snap.histogram("req.stage.journal_ns")->samples(), 0u);
}

TEST(ExemplarReservoir, SlowestClassKeepsTheLargestLatencies)
{
    ExemplarReservoir res(4, 0, 0);
    int built = 0;
    // Descending latencies: the first four offers fill the class and
    // nothing after them ever displaces an entry.
    for (std::uint64_t i = 100; i >= 1; --i) {
        Exemplar e;
        e.requestId = i;
        e.latencyNs = i * 10;
        res.offer(std::move(e), [&] {
            ++built;
            return "case-" + std::to_string(i);
        });
    }
    const std::vector<Exemplar> slow = res.slowest();
    ASSERT_EQ(slow.size(), 4u);
    EXPECT_EQ(slow[0].latencyNs, 1000u);
    EXPECT_EQ(slow[3].latencyNs, 970u);
    EXPECT_EQ(slow[0].caseId, "case-100");
    // The case-id builder ran only for the four retained offers.
    EXPECT_EQ(built, 4);
    EXPECT_EQ(res.offered(), 100u);
}

TEST(ExemplarReservoir, UniformClassIsDeterministic)
{
    const auto run = [] {
        ExemplarReservoir res(0, 8, 0, 0x5eed);
        for (std::uint64_t i = 0; i < 500; ++i) {
            Exemplar e;
            e.requestId = i;
            e.latencyNs = 42;
            res.offer(std::move(e), [] { return std::string("c"); });
        }
        std::vector<std::uint64_t> ids;
        for (const Exemplar &e : res.uniform())
            ids.push_back(e.requestId);
        return ids;
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.size(), 8u);
    // Same seed, same offer sequence -> identical retained sample.
    EXPECT_EQ(a, b);
}

TEST(ExemplarReservoir, ForcedRingNeverDropsForRegularTraffic)
{
    ExemplarReservoir res(2, 2, 3);
    for (std::uint64_t i = 0; i < 50; ++i) {
        Exemplar e;
        e.requestId = i;
        e.latencyNs = 1000000; // every regular offer is "slow"
        res.offer(std::move(e), [] { return std::string("r"); });
    }
    for (std::uint64_t i = 100; i < 105; ++i) {
        Exemplar e;
        e.requestId = i;
        e.latencyNs = 1; // fast, would never be tail-sampled
        e.forced = true;
        e.reason = "watchdog trip";
        res.offer(std::move(e), [] { return std::string("f"); });
    }
    const std::vector<Exemplar> forced = res.forced();
    // Ring of 3: the newest three forced requests, oldest first.
    ASSERT_EQ(forced.size(), 3u);
    EXPECT_EQ(forced[0].requestId, 102u);
    EXPECT_EQ(forced[2].requestId, 104u);
    EXPECT_EQ(forced[0].reason, "watchdog trip");
    EXPECT_NE(res.renderText().find("watchdog trip"), std::string::npos);
}

#else // SPM_TELEM_OFF

TEST(StageClock, CompilesToNothing)
{
    setSamplingEnabled(true);
    StageClock clock;
    clock.start();
    EXPECT_FALSE(clock.running());
    clock.mark(Stage::Kernel);
    clock.addBeats(77);
    EXPECT_EQ(clock.stageNs(Stage::Kernel), 0u);
    EXPECT_EQ(clock.beats(), 0u);
    setSamplingEnabled(false);
}

TEST(RequestObserver, RegistersNothing)
{
    Registry reg;
    RequestObserver obs(reg, "test", nullptr);
    StageClock clock;
    clock.start();
    obs.observe(clock, 1, true, "forced", [] { return std::string("c"); });
    obs.noteQueueWait(123);
    EXPECT_EQ(reg.metricCount(), 0u);
    EXPECT_EQ(reg.snapshot().histogram("req.latency_ns"), nullptr);
}

#endif // SPM_TELEM_OFF

} // namespace
} // namespace spm::telem
