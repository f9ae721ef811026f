// Columnar span storage: encode/materialize round trips, root
// metadata, and the memory accounting behind the store's
// bytes-per-span figure.

#include <gtest/gtest.h>

#include <memory>

#include "test_helpers.h"
#include "trace/columnar.h"

using namespace sleuth;
using sleuth::testing::makeSpan;
using trace::ColumnarTrace;
using trace::SpanColumns;
using trace::StringInterner;

namespace {

trace::Trace
sampleTrace()
{
    trace::Trace t;
    t.traceId = "sample";
    t.spans.push_back(makeSpan("p", "", "frontend", "handle", 0, 100,
                               trace::SpanKind::Server,
                               trace::StatusCode::Ok));
    t.spans.push_back(makeSpan("a", "p", "svc-a", "opA", 10, 60,
                               trace::SpanKind::Client,
                               trace::StatusCode::Error));
    t.spans.push_back(makeSpan("b", "p", "svc-b", "opB", 30, 80,
                               trace::SpanKind::Producer,
                               trace::StatusCode::Unset));
    return t;
}

} // namespace

TEST(SpanColumns, AppendAndAccessors)
{
    StringInterner in;
    SpanColumns cols;
    trace::Trace t = sampleTrace();
    for (const trace::Span &s : t.spans)
        cols.append(s, in);
    ASSERT_EQ(cols.size(), 3u);
    EXPECT_EQ(cols.spanId(1), "a");
    EXPECT_EQ(cols.parentSpanId(1), "p");
    EXPECT_EQ(in.name(cols.serviceId(1)), "svc-a");
    EXPECT_EQ(in.name(cols.nameId(2)), "opB");
    EXPECT_EQ(cols.kind(1), trace::SpanKind::Client);
    EXPECT_EQ(cols.status(1), trace::StatusCode::Error);
    EXPECT_EQ(cols.startUs(2), 30);
    EXPECT_EQ(cols.endUs(2), 80);
    EXPECT_EQ(cols.durationUs(0), 100);
    EXPECT_TRUE(cols.hasError(1));
    EXPECT_FALSE(cols.hasError(2));
}

TEST(SpanColumns, SharedVocabularyIsInternedOnce)
{
    StringInterner in;
    SpanColumns cols;
    trace::Trace t = sampleTrace();
    for (const trace::Span &s : t.spans)
        cols.append(s, in);
    size_t vocab = in.size();
    // A second identical trace adds zero new vocabulary entries.
    for (const trace::Span &s : t.spans)
        cols.append(s, in);
    EXPECT_EQ(in.size(), vocab);
    EXPECT_EQ(cols.serviceId(0), cols.serviceId(3));
    EXPECT_EQ(cols.nameId(1), cols.nameId(4));
}

TEST(ColumnarTrace, MaterializeRoundTripsEveryField)
{
    auto in = std::make_shared<StringInterner>();
    trace::Trace t = sampleTrace();
    ColumnarTrace ct(t, in);
    trace::Trace back = ct.toTrace();
    ASSERT_EQ(back.spans.size(), t.spans.size());
    EXPECT_EQ(back.traceId, t.traceId);
    for (size_t i = 0; i < t.spans.size(); ++i) {
        const trace::Span &x = t.spans[i];
        const trace::Span &y = back.spans[i];
        EXPECT_EQ(y.spanId, x.spanId);
        EXPECT_EQ(y.parentSpanId, x.parentSpanId);
        EXPECT_EQ(y.service, x.service);
        EXPECT_EQ(y.name, x.name);
        EXPECT_EQ(y.kind, x.kind);
        EXPECT_EQ(y.status, x.status);
        EXPECT_EQ(y.startUs, x.startUs);
        EXPECT_EQ(y.endUs, x.endUs);
        EXPECT_EQ(y.container, x.container);
        EXPECT_EQ(y.pod, x.pod);
        EXPECT_EQ(y.node, x.node);
    }
}

TEST(ColumnarTrace, RootMetadataMatchesLegacyTrace)
{
    auto in = std::make_shared<StringInterner>();
    trace::Trace t = sampleTrace();
    ColumnarTrace ct(t, in);
    EXPECT_EQ(ct.rootIndex(), 0);
    EXPECT_EQ(ct.rootStartUs(), 0);
    EXPECT_EQ(ct.rootDurationUs(), t.rootDurationUs());
    EXPECT_FALSE(ct.rootError());
    EXPECT_TRUE(ct.hasError());  // child "a" errored
    EXPECT_EQ(ct.spanCount(), 3u);
    EXPECT_EQ(ct.traceId(), "sample");
}

TEST(ColumnarTrace, TouchesServiceUsesInternedIds)
{
    auto in = std::make_shared<StringInterner>();
    ColumnarTrace ct(sampleTrace(), in);
    auto id = in->find("svc-a");
    ASSERT_TRUE(id.has_value());
    EXPECT_TRUE(ct.touchesService(*id));
    uint32_t absent = static_cast<uint32_t>(in->size()) + 7;
    EXPECT_FALSE(ct.touchesService(absent));
}

TEST(ColumnarTrace, ColumnarBeatsLegacyMemoryEstimate)
{
    // The whole point of the layout: with a shared vocabulary, many
    // traces of the same shape must cost less per span than the AoS
    // Span estimate. One interner across 100 identical-shape traces.
    auto in = std::make_shared<StringInterner>();
    size_t columnar = 0, legacy = 0;
    for (int i = 0; i < 100; ++i) {
        trace::Trace t = sampleTrace();
        t.traceId = "t" + std::to_string(i);
        legacy += trace::approxTraceMemoryBytes(t);
        columnar += ColumnarTrace(t, in).memoryBytes();
    }
    columnar += in->memoryBytes();
    EXPECT_LT(columnar, legacy);
}

TEST(ColumnarTrace, MaterializeSingleSpan)
{
    auto in = std::make_shared<StringInterner>();
    trace::Trace t = sampleTrace();
    ColumnarTrace ct(t, in);
    trace::Span s = ct.span(1);
    EXPECT_EQ(s.spanId, "a");
    EXPECT_EQ(s.service, "svc-a");
    EXPECT_EQ(s.startUs, 10);
    EXPECT_EQ(s.endUs, 60);
}
