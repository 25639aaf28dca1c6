/**
 * @file
 * Flight recorder tests: the bounded event ring, trip dumps and their
 * sinks, and the frozen case-ID format — telem::literalCaseId must
 * stay byte-identical to conformance::encodeLiteral so every dump
 * line replays with `conformance_fuzz --replay`.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "conformance/case.hh"
#include "telemetry/flightrec.hh"
#include "util/rng.hh"

namespace spm::telem
{
namespace
{

FlightEvent
chunkEvent(std::uint64_t req, std::uint64_t offset)
{
    FlightEvent ev;
    ev.kind = FlightKind::ChunkCommit;
    ev.beat = offset * 3;
    ev.shard = 2;
    ev.requestId = req;
    ev.offset = offset;
    return ev;
}

TEST(FlightRecorder, RingIsBoundedOldestFirst)
{
    FlightRecorder rec(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        rec.record(chunkEvent(1, i));
    const std::vector<FlightEvent> events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(rec.recordedTotal(), 10u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].offset, 6 + i);
        EXPECT_EQ(events[i].seq, 6 + i); // sequence numbers persist
    }
}

TEST(FlightRecorder, RingWraparoundIsExactAtBoundaries)
{
    FlightRecorder rec(4);
    // Exactly full: nothing evicted yet.
    for (std::uint64_t i = 0; i < 4; ++i)
        rec.record(chunkEvent(1, i));
    ASSERT_EQ(rec.events().size(), 4u);
    EXPECT_EQ(rec.events().front().offset, 0u);

    // One past capacity: exactly the oldest event falls out.
    rec.record(chunkEvent(1, 4));
    std::vector<FlightEvent> events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().offset, 1u);
    EXPECT_EQ(events.back().offset, 4u);

    // Several complete wraps: order and sequence numbers stay exact.
    for (std::uint64_t i = 5; i < 21; ++i)
        rec.record(chunkEvent(1, i));
    events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(rec.recordedTotal(), 21u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].offset, 17 + i);
        EXPECT_EQ(events[i].seq, 17 + i);
    }

    // A trip after wrapping reports only the retained history.
    rec.setDumpSink([](const std::string &) {});
    const std::string dump = rec.trip("wrap check", chunkEvent(1, 21));
    EXPECT_NE(dump.find("(4 prior"), std::string::npos);
}

TEST(FlightRecorder, TripDumpCarriesHistoryAndTrigger)
{
    FlightRecorder rec(8);
    std::vector<std::string> sunk;
    rec.setDumpSink([&sunk](const std::string &d) { sunk.push_back(d); });

    rec.record(chunkEvent(7, 0));
    rec.record(chunkEvent(7, 16));

    FlightEvent trip;
    trip.kind = FlightKind::WatchdogTrip;
    trip.beat = 99;
    trip.shard = 2;
    trip.requestId = 7;
    trip.code = "deadline_exceeded";
    trip.caseId = "l1:2:1.2:0.1.2.3";
    const std::string dump = rec.trip("watchdog trip", trip);

    EXPECT_EQ(rec.tripCount(), 1u);
    EXPECT_EQ(rec.lastDump(), dump);
    ASSERT_EQ(sunk.size(), 1u);
    EXPECT_EQ(sunk[0], dump);

    // Header names the reason and counts the prior events.
    EXPECT_NE(dump.find("=== flight dump: watchdog trip (2 prior"),
              std::string::npos);
    // History renders oldest first, then the trigger, marked.
    EXPECT_NE(dump.find("chunk_commit"), std::string::npos);
    EXPECT_NE(dump.find("watchdog_trip"), std::string::npos);
    EXPECT_NE(dump.find("<-- trigger"), std::string::npos);
    // Structured fields all present: beat, shard, taxonomy code, and
    // the replayable case ID.
    EXPECT_NE(dump.find("beat=99"), std::string::npos);
    EXPECT_NE(dump.find("shard=2"), std::string::npos);
    EXPECT_NE(dump.find("code=deadline_exceeded"), std::string::npos);
    EXPECT_NE(dump.find("case=l1:2:1.2:0.1.2.3"), std::string::npos);
}

TEST(FlightRecorder, ClearForgetsHistoryKeepsTotals)
{
    FlightRecorder rec(8);
    rec.setDumpSink([](const std::string &) {});
    rec.record(chunkEvent(1, 0));
    rec.trip("test", chunkEvent(1, 1));
    rec.clear();
    EXPECT_TRUE(rec.events().empty());
    EXPECT_TRUE(rec.lastDump().empty());
    EXPECT_EQ(rec.tripCount(), 1u);
    EXPECT_EQ(rec.recordedTotal(), 2u);
}

TEST(FlightRecorder, KindNamesAreStableTokens)
{
    EXPECT_STREQ(flightKindName(FlightKind::ChunkCommit), "chunk_commit");
    EXPECT_STREQ(flightKindName(FlightKind::WatchdogTrip),
                 "watchdog_trip");
    EXPECT_STREQ(flightKindName(FlightKind::CrossCheckMismatch),
                 "crosscheck_mismatch");
    EXPECT_STREQ(flightKindName(FlightKind::LadderTransition),
                 "ladder_transition");
    EXPECT_STREQ(flightKindName(FlightKind::ConformanceFailure),
                 "conformance_failure");
    EXPECT_STREQ(flightKindName(FlightKind::Note), "note");
}

TEST(LiteralCaseId, MatchesConformanceEncodingExactly)
{
    struct Shape
    {
        BitWidth bits;
        std::vector<Symbol> pattern;
        std::vector<Symbol> text;
    };
    const std::vector<Shape> shapes = {
        {2, {1, 2, 3}, {0, 1, 2, 3, 1, 2, 3}},
        {1, {0, wildcardSymbol, 1}, {1, 0, 1, 0}},
        {3, {7, wildcardSymbol}, {}},
        {2, {}, {1, 2}},
        {4, {15, 0, wildcardSymbol, 9}, {15, 0, 3, 9, 15}},
    };
    for (const Shape &s : shapes) {
        conformance::Case c;
        c.bits = s.bits;
        c.pattern = s.pattern;
        c.text = s.text;
        EXPECT_EQ(literalCaseId(s.bits, s.pattern, s.text),
                  conformance::encodeLiteral(c))
            << "bits=" << int(s.bits);
    }
}

TEST(LiteralCaseId, RoundTripsThroughDecodeCase)
{
    const std::vector<Symbol> pattern = {1, wildcardSymbol, 3};
    const std::vector<Symbol> text = {0, 1, 2, 3, 1, 0, 3};
    const std::string id = literalCaseId(2, pattern, text);
    const std::optional<conformance::Case> c =
        conformance::decodeCase(id);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->bits, 2);
    EXPECT_EQ(c->pattern, pattern);
    EXPECT_EQ(c->text, text);
}

/** The case-ID encoder as first written, one snprintf per symbol:
 *  the byte-for-byte reference for the table-driven one. */
std::string
snprintfStream(const std::vector<Symbol> &syms)
{
    if (syms.empty())
        return "-";
    std::string out;
    char buf[20];
    for (std::size_t i = 0; i < syms.size(); ++i) {
        if (i != 0)
            out += '.';
        if (syms[i] == wildcardSymbol) {
            out += '*';
        } else {
            std::snprintf(buf, sizeof(buf), "%llx",
                          static_cast<unsigned long long>(syms[i]));
            out += buf;
        }
    }
    return out;
}

TEST(LiteralCaseId, TableEncoderMatchesSnprintfOnRandomStreams)
{
    // Every digit-count boundary, the largest literal and the wild card.
    const std::vector<Symbol> edges = {0,      0xf,    0x10,  0xff,
                                       0x100,  0xfff,  0x1000, 0xfffe,
                                       wildcardSymbol};
    Rng rng(0xCA5Eu);
    for (int round = 0; round < 200; ++round) {
        const BitWidth bits = static_cast<BitWidth>(1 + rng.nextBelow(16));
        std::vector<Symbol> streams[2];
        for (auto &syms : streams) {
            // Round 0 covers the empty pattern and text.
            const std::size_t n = round == 0 ? 0 : rng.nextBelow(40);
            for (std::size_t i = 0; i < n; ++i)
                syms.push_back(
                    rng.nextBelow(2) == 0
                        ? edges[rng.nextBelow(edges.size())]
                        : static_cast<Symbol>(rng.nextBelow(0xffff)));
        }
        const std::vector<Symbol> &pattern = streams[0];
        const std::vector<Symbol> &text = streams[1];
        const std::string id = literalCaseId(bits, pattern, text);
        ASSERT_EQ(id, "l1:" + std::to_string(bits) + ":" +
                          snprintfStream(pattern) + ":" +
                          snprintfStream(text))
            << "round " << round;
        const std::optional<conformance::Case> c =
            conformance::decodeCase(id);
        ASSERT_TRUE(c.has_value()) << id;
        EXPECT_EQ(c->bits, bits);
        EXPECT_EQ(c->pattern, pattern);
        EXPECT_EQ(c->text, text);
    }
}

TEST(FlightRecorder, GlobalIsUsable)
{
    const std::uint64_t before = FlightRecorder::global().recordedTotal();
    FlightEvent ev;
    ev.kind = FlightKind::Note;
    ev.note = "flightrec test marker";
    FlightRecorder::global().record(ev);
    EXPECT_EQ(FlightRecorder::global().recordedTotal(), before + 1);
}

} // namespace
} // namespace spm::telem
