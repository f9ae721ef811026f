// SpanAssembler: watermark-based span-to-trace assembly edge cases —
// out-of-order arrival, duplicate span ids, late-after-watermark
// stragglers, traces interleaved across payload boundaries, malformed
// traces, backpressure — and the canonical-output determinism contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "online/assembler.h"
#include "test_helpers.h"
#include "util/rng.h"

using namespace sleuth;
using namespace sleuth::testing;
using online::AssemblerConfig;
using online::SpanAssembler;
using online::SpanEvent;

namespace {

AssemblerConfig
tightConfig()
{
    AssemblerConfig cfg;
    cfg.latenessUs = 1'000;
    cfg.quietGapUs = 500;
    return cfg;
}

SpanEvent
ev(const std::string &trace_id, const trace::Span &span)
{
    return SpanEvent{trace_id, span};
}

/** The figure-2 trace exploded into one event per span. */
std::vector<SpanEvent>
figure2Events(const std::string &trace_id, int64_t shift = 0)
{
    std::vector<SpanEvent> out;
    for (trace::Span s : figure2Trace().spans) {
        s.startUs += shift;
        s.endUs += shift;
        out.push_back(ev(trace_id, s));
    }
    return out;
}

} // namespace

TEST(SpanAssembler, AssemblesOutOfOrderSpans)
{
    SpanAssembler a(tightConfig());
    std::vector<SpanEvent> events = figure2Events("t1");
    // Children before root.
    std::reverse(events.begin(), events.end());
    for (const SpanEvent &e : events)
        EXPECT_TRUE(a.add(e));
    EXPECT_EQ(a.pendingTraces(), 1u);
    EXPECT_EQ(a.pendingSpans(), 3u);

    // Watermark (now - lateness) must pass lastEnd + quietGap = 100.6k.
    EXPECT_TRUE(a.drain(1'000).empty());
    std::vector<trace::Trace> done = a.drain(2'000);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].traceId, "t1");
    ASSERT_EQ(done[0].spans.size(), 3u);
    // Canonical span order: (startUs, spanId).
    EXPECT_EQ(done[0].spans[0].spanId, "p");
    EXPECT_EQ(done[0].spans[1].spanId, "a");
    EXPECT_EQ(done[0].spans[2].spanId, "b");
    EXPECT_EQ(a.stats().tracesAccepted, 1u);
    EXPECT_EQ(a.stats().spansAccepted, 3u);
    EXPECT_EQ(a.pendingSpans(), 0u);
}

// Regression: Pending's quiet-horizon anchor used a 0 sentinel, so a
// trace whose spans all end before the epoch had its anchor pinned at
// 0 and never went quiet under a (correctly negative) watermark.
TEST(SpanAssembler, PreEpochTraceCompletesAtNegativeWatermark)
{
    SpanAssembler a(tightConfig());
    for (const SpanEvent &e : figure2Events("t1", -1'000'000))
        EXPECT_TRUE(a.add(e));
    // Same clocks as AssemblesOutOfOrderSpans, one epoch earlier.
    EXPECT_TRUE(a.drain(-999'000).empty());
    std::vector<trace::Trace> done = a.drain(-998'000);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].traceId, "t1");
    EXPECT_EQ(a.stats().tracesAccepted, 1u);
}

TEST(SpanAssembler, ArrivalOrderDoesNotChangeOutput)
{
    std::vector<SpanEvent> events;
    for (int t = 0; t < 5; ++t) {
        std::vector<SpanEvent> es =
            figure2Events("t" + std::to_string(t), t * 10);
        events.insert(events.end(), es.begin(), es.end());
    }
    util::Rng rng(99);
    std::vector<trace::Trace> reference;
    for (int round = 0; round < 6; ++round) {
        SpanAssembler a(tightConfig());
        std::vector<SpanEvent> shuffled = events;
        rng.shuffle(shuffled);
        for (const SpanEvent &e : shuffled)
            EXPECT_TRUE(a.add(e));
        std::vector<trace::Trace> done = a.drain(5'000);
        ASSERT_EQ(done.size(), 5u);
        if (round == 0) {
            reference = done;
            continue;
        }
        for (size_t i = 0; i < done.size(); ++i) {
            EXPECT_EQ(done[i].traceId, reference[i].traceId);
            ASSERT_EQ(done[i].spans.size(),
                      reference[i].spans.size());
            for (size_t j = 0; j < done[i].spans.size(); ++j) {
                EXPECT_EQ(done[i].spans[j].spanId,
                          reference[i].spans[j].spanId);
                EXPECT_EQ(done[i].spans[j].startUs,
                          reference[i].spans[j].startUs);
            }
        }
    }
}

TEST(SpanAssembler, DuplicateSpanIdsDropped)
{
    SpanAssembler a(tightConfig());
    for (const SpanEvent &e : figure2Events("t1"))
        EXPECT_TRUE(a.add(e));
    // Re-deliver every span (collector retry).
    for (const SpanEvent &e : figure2Events("t1"))
        EXPECT_FALSE(a.add(e));
    EXPECT_EQ(a.stats().droppedDuplicate, 3u);
    EXPECT_EQ(a.stats().spansRejected, 3u);

    std::vector<trace::Trace> done = a.drain(2'000);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].spans.size(), 3u);
}

TEST(SpanAssembler, LateAfterCompletionClassifiedAndDropped)
{
    SpanAssembler a(tightConfig());
    for (const SpanEvent &e : figure2Events("t1"))
        EXPECT_TRUE(a.add(e));
    ASSERT_EQ(a.drain(2'000).size(), 1u);

    // A straggler of the completed trace: late after eviction.
    EXPECT_FALSE(
        a.add(ev("t1", makeSpan("x", "p", "svc-x", "late", 50, 70))));
    EXPECT_EQ(a.stats().droppedLate, 1u);

    // A brand-new trace entirely behind the watermark: also late (it
    // could never assemble — it would complete incomplete instantly).
    EXPECT_FALSE(
        a.add(ev("t9", makeSpan("r", "", "svc-y", "old", 0, 100))));
    EXPECT_EQ(a.stats().droppedLate, 2u);
}

TEST(SpanAssembler, ClosedMemoryForgetsEventually)
{
    AssemblerConfig cfg = tightConfig();
    cfg.closedMemoryUs = 3'000;
    SpanAssembler a(cfg);
    for (const SpanEvent &e : figure2Events("t1"))
        EXPECT_TRUE(a.add(e));
    ASSERT_EQ(a.drain(2'000).size(), 1u);
    // Far past closedMemoryUs the ghost entry is pruned; a straggler
    // is still dropped, but now by the watermark check.
    a.drain(10'000);
    EXPECT_FALSE(
        a.add(ev("t1", makeSpan("y", "p", "svc-x", "late", 50, 70))));
    EXPECT_EQ(a.stats().droppedLate, 1u);
}

TEST(SpanAssembler, InterleavedCrossPayloadTraces)
{
    // Two traces delivered span-by-span, interleaved — the case the
    // batch collector cannot handle (it drops split traces).
    SpanAssembler a(tightConfig());
    std::vector<SpanEvent> t1 = figure2Events("t1");
    std::vector<SpanEvent> t2 = figure2Events("t2", 40);
    for (size_t i = 0; i < t1.size(); ++i) {
        EXPECT_TRUE(a.add(t1[i]));
        EXPECT_TRUE(a.add(t2[i]));
    }
    EXPECT_EQ(a.pendingTraces(), 2u);
    std::vector<trace::Trace> done = a.drain(3'000);
    ASSERT_EQ(done.size(), 2u);
    // Canonical trace order: (root start, traceId).
    EXPECT_EQ(done[0].traceId, "t1");
    EXPECT_EQ(done[1].traceId, "t2");
    EXPECT_EQ(done[0].spans.size(), 3u);
    EXPECT_EQ(done[1].spans.size(), 3u);
}

TEST(SpanAssembler, PartialTraceCompletesIncompleteAndIsRejected)
{
    SpanAssembler a(tightConfig());
    // Only the children arrive; the root never does.
    std::vector<SpanEvent> events = figure2Events("t1");
    EXPECT_TRUE(a.add(events[1]));
    EXPECT_TRUE(a.add(events[2]));
    std::vector<trace::Trace> done = a.drain(2'000);
    EXPECT_TRUE(done.empty());
    EXPECT_EQ(a.stats().tracesRejected, 1u);
    EXPECT_EQ(a.stats().droppedOrphan, 2u);
    EXPECT_EQ(a.stats().spansRejected, 2u);
}

TEST(SpanAssembler, MalformedEventsRejectedOutright)
{
    SpanAssembler a(tightConfig());
    EXPECT_FALSE(a.add(ev("", makeSpan("s", "", "svc", "op", 0, 10))));
    EXPECT_FALSE(a.add(ev("t1", makeSpan("", "", "svc", "op", 0, 10))));
    EXPECT_EQ(a.stats().droppedMalformed, 2u);
}

TEST(SpanAssembler, BackpressureRejectsNewTracesButNotPendingOnes)
{
    AssemblerConfig cfg = tightConfig();
    cfg.maxPendingSpans = 2;
    SpanAssembler a(cfg);
    std::vector<SpanEvent> t1 = figure2Events("t1");
    EXPECT_TRUE(a.add(t1[0]));
    EXPECT_TRUE(a.add(t1[1]));
    // Budget exhausted: a new trace is turned away...
    EXPECT_FALSE(
        a.add(ev("t2", makeSpan("r", "", "svc", "op", 0, 10))));
    EXPECT_EQ(a.stats().droppedBackpressure, 1u);
    // ...but the in-flight trace may still complete.
    EXPECT_TRUE(a.add(t1[2]));
    std::vector<trace::Trace> done = a.drain(2'000);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].spans.size(), 3u);
}

TEST(SpanAssembler, FlushCompletesEverythingPending)
{
    SpanAssembler a(tightConfig());
    for (const SpanEvent &e : figure2Events("t1"))
        EXPECT_TRUE(a.add(e));
    std::vector<trace::Trace> done = a.flush();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(a.pendingTraces(), 0u);
    // Stats invariant: every ingested span is accounted for.
    const collector::CollectorStats &s = a.stats();
    EXPECT_EQ(s.spansAccepted + s.spansRejected + a.pendingSpans(), 3u);
}

TEST(SpanAssembler, LargeShuffledTraceDeliveredTwice)
{
    // 3,000 spans outgrow the duplicate index's first table many times
    // over; every span arrives twice, in shuffled order, and each
    // startUs is shared by three spans so the spanId tie-break decides
    // their order ("s10" sorts before "s9").
    constexpr size_t kSpans = 3'000;
    trace::Trace t;
    for (size_t i = 0; i < kSpans; ++i) {
        std::string parent = i == 0 ? "" : "s" + std::to_string((i - 1) / 4);
        int64_t start = static_cast<int64_t>(i / 3);
        t.spans.push_back(makeSpan("s" + std::to_string(i), parent, "svc",
                                   "op", start, start + 100));
    }
    std::vector<SpanEvent> deliveries;
    for (int copy = 0; copy < 2; ++copy)
        for (const trace::Span &s : t.spans)
            deliveries.push_back(ev("wide", s));
    util::Rng rng(7);
    rng.shuffle(deliveries);

    SpanAssembler a(tightConfig());
    size_t buffered = 0;
    for (SpanEvent &e : deliveries)
        buffered += a.add(std::move(e)) ? 1 : 0;
    EXPECT_EQ(buffered, kSpans);
    EXPECT_EQ(a.stats().droppedDuplicate, kSpans);
    EXPECT_EQ(a.pendingSpans(), kSpans);

    // The last span ends at 999 + 100; the watermark must pass it plus
    // the quiet gap.
    std::vector<trace::Trace> done = a.drain(3'000);
    ASSERT_EQ(done.size(), 1u);
    std::vector<trace::Span> reference = t.spans;
    std::sort(reference.begin(), reference.end(),
              [](const trace::Span &x, const trace::Span &y) {
                  if (x.startUs != y.startUs)
                      return x.startUs < y.startUs;
                  return x.spanId < y.spanId;
              });
    ASSERT_EQ(done[0].spans.size(), kSpans);
    for (size_t i = 0; i < kSpans; ++i) {
        EXPECT_EQ(done[0].spans[i].spanId, reference[i].spanId);
        EXPECT_EQ(done[0].spans[i].parentSpanId, reference[i].parentSpanId);
        EXPECT_EQ(done[0].spans[i].startUs, reference[i].startUs);
    }
    EXPECT_EQ(a.pendingSpans(), 0u);
    EXPECT_EQ(a.pendingTraces(), 0u);
    EXPECT_EQ(a.stats().tracesAccepted, 1u);
    EXPECT_EQ(a.stats().spansAccepted, kSpans);
}

TEST(SpanAssembler, ClosedIdsExpireInCloseOrder)
{
    AssemblerConfig cfg = tightConfig();
    cfg.closedMemoryUs = 3'000;
    SpanAssembler a(cfg);
    for (const SpanEvent &e : figure2Events("t1"))
        EXPECT_TRUE(a.add(e));
    ASSERT_EQ(a.drain(2'000).size(), 1u); // t1 closes at watermark 1k
    for (const SpanEvent &e : figure2Events("t2", 2'000))
        EXPECT_TRUE(a.add(e));
    ASSERT_EQ(a.drain(4'000).size(), 1u); // t2 closes at watermark 3k

    // At watermark 4.5k only t1 (1k + 3k) has expired: a t1 span that
    // ends ahead of the watermark opens a new trace, while t2's id is
    // still remembered.
    a.drain(5'500);
    EXPECT_TRUE(
        a.add(ev("t1", makeSpan("x", "", "svc-x", "new", 9'000, 9'100))));
    EXPECT_FALSE(
        a.add(ev("t2", makeSpan("y", "", "svc-y", "late", 9'000, 9'100))));
    EXPECT_EQ(a.stats().droppedLate, 1u);
}

TEST(SpanAssembler, FlushBeforeFirstDrainDoesNotDelayLaterExpiry)
{
    // A flush before any drain closes its traces at watermark 0; a
    // later drain at a negative watermark closes others below it. Each
    // id still expires on its own close watermark.
    AssemblerConfig cfg = tightConfig();
    cfg.closedMemoryUs = 3'000;
    SpanAssembler a(cfg);
    for (const SpanEvent &e : figure2Events("t1"))
        EXPECT_TRUE(a.add(e));
    ASSERT_EQ(a.flush().size(), 1u); // t1 closes at 0
    for (const SpanEvent &e : figure2Events("t2", -20'000))
        EXPECT_TRUE(a.add(e));
    ASSERT_EQ(a.drain(-18'000).size(), 1u); // t2 closes at -19k

    // Watermark -15k: t2 (-19k + 3k) has expired, t1 (0 + 3k) has not.
    a.drain(-14'000);
    EXPECT_TRUE(
        a.add(ev("t2", makeSpan("x", "", "svc-x", "new", -9'000, -8'900))));
    EXPECT_FALSE(
        a.add(ev("t1", makeSpan("y", "", "svc-y", "late", -9'000, -8'900))));
    EXPECT_EQ(a.stats().droppedLate, 1u);
}
