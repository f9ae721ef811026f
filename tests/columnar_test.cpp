// Columnar span storage: encode/materialize round trips, root
// metadata, checked decoding of untrusted columns, and the memory
// accounting behind the store's bytes-per-span figure.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "test_helpers.h"
#include "trace/columnar.h"

using namespace sleuth;
using sleuth::testing::makeSpan;
using sleuth::testing::patched;
using sleuth::testing::peek;
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

/** True when ColumnarTrace::decode accepts `bytes` against `in`. */
bool
decodes(const std::string &bytes,
        const std::shared_ptr<StringInterner> &in)
{
    util::BinaryReader r(bytes);
    ColumnarTrace back;
    return back.decode(r, in);
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
    trace::Span s = ct.toTrace().spans[1];
    EXPECT_EQ(s.spanId, "a");
    EXPECT_EQ(s.service, "svc-a");
    EXPECT_EQ(s.startUs, 10);
    EXPECT_EQ(s.endUs, 60);
}

TEST(ColumnarTrace, DecodeRoundTripsRootedAndRootlessTraces)
{
    auto in = std::make_shared<StringInterner>();
    trace::Trace rootless = sampleTrace();
    rootless.spans.erase(rootless.spans.begin()); // "a", "b" keep "p"
    for (const trace::Trace &t : {sampleTrace(), rootless}) {
        ColumnarTrace ct(t, in);
        util::BinaryWriter w;
        ct.encode(w);
        util::BinaryReader r(w.buffer());
        ColumnarTrace back;
        ASSERT_TRUE(back.decode(r, in)) << t.spans.size();
        EXPECT_EQ(back.rootIndex(), ct.rootIndex());
        EXPECT_EQ(back.toTrace().spans.size(), t.spans.size());
    }
}

TEST(ColumnarTrace, DecodeRefusesCorruptColumns)
{
    // Recovery decodes columns from disk, where a valid CRC proves only
    // that the bytes were written, not that they are sane. Trusted,
    // these defects crashed `sleuth wal` or `sleuth infer` (SIGSEGV) or
    // aborted on an interner lookup; decode must refuse each one.
    auto in = std::make_shared<StringInterner>();
    trace::Trace t = sampleTrace();
    util::BinaryWriter w;
    ColumnarTrace(t, in).encode(w);
    const std::string good = w.buffer();
    ASSERT_TRUE(decodes(good, in));

    // Pin the layout the patches below rely on.
    const sleuth::testing::ColumnarOffsets at =
        sleuth::testing::columnarOffsets(t);
    ASSERT_EQ(peek<int64_t>(good, at.root), 0);
    ASSERT_EQ(peek<uint32_t>(good, at.spanIds + 4), 1u); // "p"
    ASSERT_EQ(peek<uint32_t>(good, at.parentIds + 12), 1u); // a -> "p"
    ASSERT_EQ(peek<uint8_t>(good, at.kinds + 2),
              static_cast<uint8_t>(trace::SpanKind::Producer));
    ASSERT_EQ(peek<uint8_t>(good, at.statuses + 1),
              static_cast<uint8_t>(trace::StatusCode::Error));
    ASSERT_EQ(at.statuses + 3 + 2 * 3 * 8, good.size());

    const uint32_t vocab = static_cast<uint32_t>(in->size());
    struct Case
    {
        const char *what;
        std::string bytes;
    };
    const std::vector<Case> cases = {
        {"root index 10^6", patched(good, at.root, int64_t{1'000'000})},
        {"root on a child span", patched(good, at.root, int64_t{1})},
        {"no root though span 0 has no parent",
         patched(good, at.root, int64_t{-1})},
        {"span id at offset 2^30",
         patched(good, at.spanIds, uint32_t{1} << 30)},
        {"span id end wraps past 2^32",
         patched(good, at.spanIds, uint32_t{0xFFFFFFFF})},
        {"parent id longer than the arena",
         patched(good, at.parentIds + 12, uint32_t{1000})},
        {"service id past the interner",
         patched(good, at.services, vocab)},
        {"node id past the interner",
         patched(good, at.nodes + 8, vocab)},
        {"kind past Local", patched(good, at.kinds, uint8_t{5})},
        {"status past Error", patched(good, at.statuses + 2, uint8_t{3})},
    };
    for (const Case &c : cases)
        EXPECT_FALSE(decodes(c.bytes, in)) << c.what;
}
