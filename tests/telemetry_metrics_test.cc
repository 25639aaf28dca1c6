/**
 * @file
 * Unit tests for the metrics registry: log-scaled bucketing and
 * exact-count quantiles against a sorted reference, striped
 * aggregation under concurrent writers, snapshot merge semantics (the
 * sharded service's aggregation path), and the four render formats
 * round-tripping through trace_view's JSON reader.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "telemetry/metrics.hh"

namespace spm::telem
{
namespace
{

TEST(Counter, AddAndValue)
{
    Registry reg;
    Counter &c = reg.counter("beats");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, GetOrCreateReturnsSameInstance)
{
    Registry reg;
    Counter &a = reg.counter("x");
    Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.metricCount(), 1u);
}

TEST(Counter, ConstLookupPanicsWhenMissing)
{
    Registry reg;
    const Registry &cref = reg;
    EXPECT_THROW(cref.counter("nonexistent"), std::logic_error);
}

TEST(Counter, ConcurrentWritersSumExactly)
{
    Registry reg(8);
    Counter &c = reg.counter("hits");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i)
                c.add();
        });
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, LastWriteWins)
{
    Registry reg;
    Gauge &g = reg.gauge("depth");
    EXPECT_EQ(g.value(), 0.0);
    g.set(7.0);
    g.set(3.5);
    EXPECT_EQ(g.value(), 3.5);
}

TEST(Histogram, LowRangeIsExact)
{
    Registry reg;
    Histogram &h = reg.histogram("lat");
    // With subBits=3 every integer below 2*8=16 has its own bucket.
    for (int v = 0; v < 16; ++v)
        h.sample(static_cast<double>(v));
    for (std::uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(Histogram::bucketFloor(Histogram::bucketIndex(v)), v);
        EXPECT_EQ(h.bucketValue(Histogram::bucketIndex(v)), 1u);
    }
    EXPECT_EQ(h.samples(), 16u);
}

TEST(Histogram, BucketFloorInvertsBucketIndex)
{
    // The floor of the bucket holding u is <= u, and the next
    // bucket's floor is > u: the index function is a monotone
    // partition of the integers.
    std::vector<std::uint64_t> probes = {0,    1,     15,      16,
                                         17,   100,   1000,    4095,
                                         4096, 65535, 1u << 20, 0};
    probes.push_back((std::uint64_t{1} << 62) + 12345);
    for (std::uint64_t u : probes) {
        const std::size_t idx = Histogram::bucketIndex(u);
        EXPECT_LE(Histogram::bucketFloor(idx), u);
        EXPECT_GT(Histogram::bucketFloor(idx + 1), u);
    }
    // The largest value lands in the last dense bucket.
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}),
              Histogram::bucketCount - 1);
}

TEST(Histogram, RelativeErrorIsBounded)
{
    // subBits=3 promises every recorded value lands in a bucket whose
    // width is at most 2^-3 = 12.5% of its floor.
    std::mt19937_64 rng(20);
    for (int i = 0; i < 2000; ++i) {
        // Shift by at least one: at msb 63 the *next* bucket's floor
        // exceeds 2^64 and the inversion check below has no meaning.
        const std::uint64_t u = rng() >> (1 + rng() % 50);
        const std::size_t idx = Histogram::bucketIndex(u);
        const std::uint64_t lo = Histogram::bucketFloor(idx);
        const std::uint64_t hi = Histogram::bucketFloor(idx + 1);
        ASSERT_LE(lo, u);
        ASSERT_GT(hi, u);
        if (lo >= 16) {
            EXPECT_LE(static_cast<double>(hi - lo),
                      static_cast<double>(lo) / 8.0 + 1.0);
        }
    }
}

TEST(Histogram, QuantilesTrackASortedReference)
{
    Registry reg;
    Histogram &h = reg.histogram("lat");
    std::mt19937_64 rng(77);
    std::vector<double> values;
    // Log-uniform latencies across six decades, like real tails.
    std::uniform_real_distribution<double> exp10(0.0, 6.0);
    for (int i = 0; i < 20000; ++i) {
        const double v = std::floor(std::pow(10.0, exp10(rng)));
        values.push_back(v);
        h.sample(v);
    }
    std::sort(values.begin(), values.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(values.size())));
        const double exact = values[std::min(rank, values.size()) - 1];
        const double approx = h.quantile(q);
        // Within the 2^-subBits relative-error contract (plus one for
        // the integer rounding of bucket representatives).
        EXPECT_NEAR(approx, exact, exact / 8.0 + 1.0)
            << "q=" << q;
    }
}

TEST(Histogram, SumAndMeanTrackSamples)
{
    Registry reg;
    Histogram &h = reg.histogram("v");
    h.sample(10.0);
    h.sample(20.0);
    h.sample(30.4); // rounds to 30
    EXPECT_EQ(h.sum(), 60.0);
    const Snapshot snap = reg.snapshot();
    const Snapshot::HistogramData *d = snap.histogram("v");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->mean(), 20.0);
}

TEST(Histogram, InvalidSamplesAreCountedApart)
{
    Registry reg;
    Histogram &h = reg.histogram("lat");
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(-5.0);
    h.sample(3.0);
    // NaN and negative samples are counted apart and excluded from the
    // sample count, the sum and the quantiles (they would otherwise
    // poison all three).
    EXPECT_EQ(h.invalids(), 2u);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_EQ(h.sum(), 3.0);
    EXPECT_EQ(h.quantile(0.5), 3.0);
    h.reset();
    EXPECT_EQ(h.invalids(), 0u);
    EXPECT_EQ(h.samples(), 0u);
}

TEST(Histogram, SnapshotQuantileMatchesLive)
{
    Registry reg;
    Histogram &h = reg.histogram("lat");
    for (int i = 1; i <= 1000; ++i)
        h.sample(static_cast<double>(i));
    const Snapshot snap = reg.snapshot();
    const Snapshot::HistogramData *d = snap.histogram("lat");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->samples(), 1000u);
    // Zero buckets above the largest sample are trimmed.
    EXPECT_EQ(d->buckets.size(), Histogram::bucketIndex(1000) + 1);
    for (double q : {0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(d->quantile(q), h.quantile(q));
}

TEST(Histogram, EdgeCountersSurviveEveryRender)
{
    Registry reg;
    Histogram &h = reg.histogram("lat");
    h.sample(-1.0);
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(5.0);
    const Snapshot snap = reg.snapshot();
    const Snapshot::HistogramData *d = snap.histogram("lat");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->invalid, 2u);

    const std::string text = snap.renderText();
    EXPECT_NE(text.find("lat = samples:1 mean:5 p50:5"), std::string::npos);
    EXPECT_NE(text.find("invalid:2"), std::string::npos);
    const std::string table = snap.renderTable();
    EXPECT_NE(table.find("invalid=2"), std::string::npos);
    const std::string prom = snap.renderPrometheus();
    EXPECT_NE(prom.find("spm_lat_edge{kind=\"invalid\"} 2"),
              std::string::npos);
    EXPECT_NE(snap.toJson().find("\"invalid\":2"), std::string::npos);
}

TEST(Snapshot, MergeAddsCountersAndHistogramCells)
{
    Registry a;
    Registry b;
    a.counter("served").add(3);
    b.counter("served").add(4);
    b.counter("only_b").add(1);
    a.histogram("lat").sample(1.0);
    b.histogram("lat").sample(1.0);
    b.histogram("lat").sample(700.0);
    b.histogram("lat").sample(std::numeric_limits<double>::quiet_NaN());
    a.gauge("depth").set(2.0);
    b.gauge("depth").set(3.0);
    b.gauge("threads").set(4.0);

    Snapshot s = a.snapshot();
    s.merge(b.snapshot());

    EXPECT_EQ(s.counterValue("served"), 7u);
    EXPECT_EQ(s.counterValue("only_b"), 1u);
    const Snapshot::HistogramData *d = s.histogram("lat");
    ASSERT_NE(d, nullptr);
    // The shorter (trimmed) side grows to the longer one's length.
    ASSERT_EQ(d->buckets.size(), Histogram::bucketIndex(700) + 1);
    EXPECT_EQ(d->buckets[1], 2u);
    EXPECT_EQ(d->buckets[Histogram::bucketIndex(700)], 1u);
    EXPECT_EQ(d->samples(), 3u);
    EXPECT_EQ(d->invalid, 1u);
    EXPECT_EQ(d->sum, 702.0);
    // Gauges sum when both sides have the entry (queue depths across
    // shards); absent entries are taken as-is.
    EXPECT_EQ(s.gaugeValue("depth"), 5.0);
    EXPECT_EQ(s.gaugeValue("threads"), 4.0);
}

TEST(Snapshot, RenderTextMatchesLegacyDumpFormat)
{
    Registry reg;
    reg.counter("beats").add(12);
    reg.counter("evaluations").add(48);
    const std::string text = reg.snapshot().renderText("engine.");
    EXPECT_NE(text.find("engine.beats = 12"), std::string::npos);
    EXPECT_NE(text.find("engine.evaluations = 48"), std::string::npos);
}

TEST(Snapshot, RenderPrometheusSanitizesNames)
{
    Registry reg;
    reg.counter("engine.beats").add(5);
    reg.gauge("queue depth").set(2);
    reg.histogram("lat").sample(1.0);
    const std::string prom = reg.snapshot().renderPrometheus();
    EXPECT_NE(prom.find("spm_engine_beats 5"), std::string::npos);
    EXPECT_NE(prom.find("spm_queue_depth 2"), std::string::npos);
    // Histograms export as summaries: quantile lines, sum and count.
    EXPECT_NE(prom.find("# TYPE spm_lat summary"), std::string::npos);
    EXPECT_NE(prom.find("spm_lat{quantile=\"0.99\"} 1"), std::string::npos);
    EXPECT_NE(prom.find("spm_lat_count 1"), std::string::npos);
}

TEST(Snapshot, JsonRoundTripIsLossless)
{
    Registry reg(4);
    reg.counter("served").add(1234567);
    reg.gauge("depth").set(3.25);
    Histogram &h = reg.histogram("req.latency_ns");
    h.sample(17.0);
    h.sample(123456.0);
    h.sample(std::numeric_limits<double>::quiet_NaN());

    const Snapshot before = reg.snapshot();
    const std::string json = before.toJson();
    const std::optional<Snapshot> after = Snapshot::fromJson(json);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->counterValue("served"), 1234567u);
    EXPECT_EQ(after->gaugeValue("depth"), 3.25);
    const Snapshot::HistogramData *d = after->histogram("req.latency_ns");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->buckets, before.histogram("req.latency_ns")->buckets);
    EXPECT_EQ(d->samples(), 2u);
    EXPECT_EQ(d->invalid, 1u);
    EXPECT_EQ(d->sum, 123473.0);
    // Quantiles computed from the round-tripped buckets match the
    // live histogram's bucket-midpoint answers exactly.
    EXPECT_DOUBLE_EQ(d->quantile(0.5), h.quantile(0.5));
    EXPECT_DOUBLE_EQ(d->quantile(0.99), h.quantile(0.99));
    // And the round trip is a fixed point.
    EXPECT_EQ(after->toJson(), json);
}

TEST(Snapshot, FromJsonRejectsGarbage)
{
    EXPECT_FALSE(Snapshot::fromJson("").has_value());
    EXPECT_FALSE(Snapshot::fromJson("not json").has_value());
    EXPECT_FALSE(Snapshot::fromJson("[1,2,3]").has_value());
    EXPECT_FALSE(Snapshot::fromJson("{\"counters\":7}").has_value());
    // The retired fixed-bucket encoding: its linear buckets must not
    // be read as log-scaled ones.
    EXPECT_FALSE(Snapshot::fromJson(
                     "{\"counters\":{},\"gauges\":{},\"histograms\":{"
                     "\"lat\":{\"lo\":0,\"hi\":4,\"buckets\":[1,0],"
                     "\"under\":0,\"over\":0,\"invalid\":0,\"sum\":1}}}")
                     .has_value());
    // The retired separate key for log-scaled histograms.
    EXPECT_FALSE(Snapshot::fromJson(
                     "{\"counters\":{},\"gauges\":{},\"histograms\":{},"
                     "\"loghistograms\":{\"lat\":{\"subbits\":3,"
                     "\"buckets\":[1],\"invalid\":0,\"sum\":0}}}")
                     .has_value());
    // More buckets than the uint64 range has.
    std::string tooLong = "{\"histograms\":{\"lat\":{\"buckets\":[0";
    for (std::size_t i = 0; i < Histogram::bucketCount; ++i)
        tooLong += ",0";
    tooLong += "],\"invalid\":0,\"sum\":0}}}";
    EXPECT_FALSE(Snapshot::fromJson(tooLong).has_value());
}

TEST(Registry, ResetZeroesEverything)
{
    Registry reg;
    reg.counter("c").add(5);
    reg.gauge("g").set(5);
    reg.histogram("h").sample(1.0);
    reg.histogram("h").sample(-1.0);
    reg.reset();
    EXPECT_EQ(reg.counter("c").value(), 0u);
    EXPECT_EQ(reg.gauge("g").value(), 0.0);
    EXPECT_EQ(reg.histogram("h").samples(), 0u);
    EXPECT_EQ(reg.histogram("h").invalids(), 0u);
    EXPECT_EQ(reg.histogram("h").sum(), 0.0);
}

TEST(Registry, HistogramGetOrCreateReturnsSameInstance)
{
    Registry reg;
    Histogram &a = reg.histogram("h");
    EXPECT_EQ(&a, &reg.histogram("h"));
    const Registry &cref = reg;
    EXPECT_EQ(&a, &cref.histogram("h"));
    EXPECT_THROW(cref.histogram("nonexistent"), std::logic_error);
    EXPECT_EQ(reg.metricCount(), 1u);
}

TEST(Registry, GlobalIsUsableAndStable)
{
    Counter &c = Registry::global().counter("test.metrics.global");
    const std::uint64_t before = c.value();
    c.add(2);
    EXPECT_EQ(Registry::global().counter("test.metrics.global").value(),
              before + 2);
}

TEST(Snapshot, RenderPrometheusEscapesHostileMetricNames)
{
    Registry reg;
    reg.counter("bad\"name{with}\nnewline").add(1);
    const std::string prom = reg.snapshot().renderPrometheus();
    // Every non-[a-zA-Z0-9_] byte is replaced, so no quote, brace or
    // newline from the metric name can corrupt the exposition format.
    EXPECT_NE(prom.find("spm_bad_name_with__newline 1"),
              std::string::npos);
    std::size_t pos = prom.find("spm_bad");
    ASSERT_NE(pos, std::string::npos);
    const std::string metricLine =
        prom.substr(pos, prom.find('\n', pos) - pos);
    EXPECT_EQ(metricLine.find('"'), std::string::npos);
    EXPECT_EQ(metricLine.find('{'), std::string::npos);
}

TEST(Snapshot, ConcurrentSnapshotWhileWritingIsCoherent)
{
    // The registry contract: snapshot() may run concurrently with
    // writers and must see a value no larger than the true total and
    // no tearing (TSan runs this test in CI).
    Registry reg(4);
    Counter &c = reg.counter("served");
    Histogram &h = reg.histogram("lat_ns");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kPerThread; ++i) {
                c.add();
                h.sample(static_cast<double>(i));
            }
        });
    go.store(true);
    const std::uint64_t total =
        static_cast<std::uint64_t>(kThreads) * kPerThread;
    for (int i = 0; i < 50; ++i) {
        const Snapshot snap = reg.snapshot();
        EXPECT_LE(snap.counterValue("served"), total);
        const Snapshot::HistogramData *d = snap.histogram("lat_ns");
        ASSERT_NE(d, nullptr);
        EXPECT_LE(d->samples(), total);
    }
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(reg.counter("served").value(), total);
    EXPECT_EQ(h.samples(), total);
    EXPECT_EQ(reg.snapshot().histogram("lat_ns")->samples(), total);
}

} // namespace
} // namespace spm::telem
