// Unit tests for the multi-protocol trace collectors (paper §4).

#include <gtest/gtest.h>

#include "collector/collector.h"
#include "test_helpers.h"
#include "trace/trace_json.h"

using namespace sleuth;
using namespace sleuth::collector;

namespace {

const char *kZipkinPayload = R"([
  {"traceId": "t1", "id": "a", "name": "get /orders",
   "kind": "SERVER", "timestamp": 1000, "duration": 500,
   "localEndpoint": {"serviceName": "front-end"}},
  {"traceId": "t1", "id": "b", "parentId": "a", "name": "CreateOrder",
   "kind": "CLIENT", "timestamp": 1100, "duration": 300,
   "localEndpoint": {"serviceName": "front-end"},
   "tags": {"error": "timeout"}},
  {"traceId": "t2", "id": "x", "name": "GET /cart",
   "kind": "SERVER", "timestamp": 9000, "duration": 120,
   "localEndpoint": {"serviceName": "front-end"}}
])";

const char *kJaegerPayload = R"({
  "data": [{
    "traceID": "jt1",
    "processes": {
      "p1": {"serviceName": "nginx"},
      "p2": {"serviceName": "compose-post"}
    },
    "spans": [
      {"spanID": "s1", "operationName": "POST /compose",
       "startTime": 5000, "duration": 900, "processID": "p1",
       "tags": [{"key": "span.kind", "value": "server"}]},
      {"spanID": "s2", "operationName": "ComposePost",
       "startTime": 5100, "duration": 700, "processID": "p2",
       "references": [{"refType": "CHILD_OF", "spanID": "s1"}],
       "tags": [{"key": "span.kind", "value": "server"},
                {"key": "error", "value": true}]}
    ]
  }]
})";

} // namespace

TEST(ZipkinParser, GroupsByTraceAndMapsFields)
{
    std::string err;
    util::Json doc = util::Json::parse(kZipkinPayload, &err);
    ASSERT_TRUE(err.empty()) << err;
    auto traces = parseZipkin(doc);
    ASSERT_EQ(traces.size(), 2u);

    const trace::Trace &t1 =
        traces[0].traceId == "t1" ? traces[0] : traces[1];
    ASSERT_EQ(t1.spans.size(), 2u);
    const trace::Span &root = t1.spans[0];
    EXPECT_EQ(root.service, "front-end");
    EXPECT_EQ(root.name, "get /orders");
    EXPECT_EQ(root.kind, trace::SpanKind::Server);
    EXPECT_EQ(root.startUs, 1000);
    EXPECT_EQ(root.endUs, 1500);
    EXPECT_FALSE(root.hasError());
    const trace::Span &child = t1.spans[1];
    EXPECT_EQ(child.parentSpanId, "a");
    EXPECT_EQ(child.kind, trace::SpanKind::Client);
    EXPECT_TRUE(child.hasError());
}

TEST(ZipkinParser, LowercaseKindAccepted)
{
    std::string err;
    util::Json doc = util::Json::parse(
        R"([{"traceId":"t","id":"a","name":"op","kind":"producer",
             "timestamp":0,"duration":5,
             "localEndpoint":{"serviceName":"s"}}])",
        &err);
    ASSERT_TRUE(err.empty());
    auto traces = parseZipkin(doc);
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].spans[0].kind, trace::SpanKind::Producer);
}

TEST(JaegerParser, ResolvesProcessesAndReferences)
{
    std::string err;
    util::Json doc = util::Json::parse(kJaegerPayload, &err);
    ASSERT_TRUE(err.empty()) << err;
    auto traces = parseJaeger(doc);
    ASSERT_EQ(traces.size(), 1u);
    ASSERT_EQ(traces[0].spans.size(), 2u);
    EXPECT_EQ(traces[0].traceId, "jt1");
    EXPECT_EQ(traces[0].spans[0].service, "nginx");
    EXPECT_EQ(traces[0].spans[0].parentSpanId, "");
    EXPECT_EQ(traces[0].spans[1].service, "compose-post");
    EXPECT_EQ(traces[0].spans[1].parentSpanId, "s1");
    EXPECT_TRUE(traces[0].spans[1].hasError());
    // Parsed trace builds a valid graph.
    trace::TraceGraph g;
    std::string why;
    EXPECT_TRUE(trace::TraceGraph::tryBuild(traces[0], &g, &why))
        << why;
}

TEST(OtelParser, RoundTripsNativeFormat)
{
    std::vector<trace::Trace> corpus = {
        sleuth::testing::figure2Trace()};
    std::string payload = trace::toJson(corpus).dump();
    std::string err;
    util::Json doc = util::Json::parse(payload, &err);
    ASSERT_TRUE(err.empty());
    auto traces = parseOtel(doc);
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].spans.size(), 3u);
}

TEST(TraceCollector, IngestsAllProtocolsIntoStore)
{
    storage::TraceStore store;
    TraceCollector collector(&store);

    EXPECT_EQ(collector.ingest(kZipkinPayload, Protocol::Zipkin, 1000),
              2u);
    EXPECT_EQ(collector.ingest(kJaegerPayload, Protocol::Jaeger), 1u);
    std::vector<trace::Trace> native = {
        sleuth::testing::figure2Trace()};
    EXPECT_EQ(collector.ingest(trace::toJson(native).dump(),
                               Protocol::Otel),
              1u);

    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(collector.stats().tracesAccepted, 4u);
    EXPECT_EQ(collector.stats().tracesRejected, 0u);
    EXPECT_GT(collector.stats().spansAccepted, 6u);

    // Stored zipkin records carry the SLO for anomaly queries.
    storage::Query q;
    q.service = "front-end";
    auto hits = store.query(q);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0]->sloUs, 1000);
}

TEST(TraceCollector, RejectsMalformedJson)
{
    storage::TraceStore store;
    TraceCollector collector(&store);
    EXPECT_EQ(collector.ingest("{not json", Protocol::Zipkin), 0u);
    EXPECT_EQ(collector.stats().tracesRejected, 1u);
    EXPECT_EQ(store.size(), 0u);

    // Valid JSON that breaks the protocol's schema is rejected the
    // same way: one Malformed unit per payload, nothing stored. These
    // used to abort, overflow int64 (9e18) or store garbage (1e300).
    const std::pair<Protocol, const char *> schema_breakers[] = {
        {Protocol::Zipkin, R"([{"id":"a","timestamp":1,"duration":2}])"},
        {Protocol::Zipkin,
         R"([{"traceId":"t","id":"a","timestamp":"x","duration":2}])"},
        {Protocol::Zipkin,
         R"([{"traceId":"t","id":"a","timestamp":9e18,"duration":9e18}])"},
        {Protocol::Zipkin,
         R"([{"traceId":"t","id":"a","timestamp":1e300,"duration":1}])"},
        {Protocol::Jaeger,
         R"({"data":[{"traceID":"t","processes":{},"spans":[{"spanID":"a",
             "operationName":"o","startTime":1,"duration":2,"processID":"p",
             "tags":[{"key":"span.kind","value":7}]}]}]})"},
        {Protocol::Otel, "[[]]"},
        {Protocol::Otel, R"([{"traceId":"t","spans":[{"spanId":"a",
             "service":"s","name":"n","kind":"server","startUs":0,
             "endUs":5,"status":"ok"}]}])"},
        {Protocol::Otel,
         R"([{"traceId":"t","spans":[{"spanId":"a","parentSpanId":"",
             "service":"s","name":"n","kind":"SERVER","startUs":0,
             "endUs":5,"status":"ok"}]}])"},
    };
    size_t malformed = collector.stats().droppedMalformed;
    for (const auto &[protocol, payload] : schema_breakers) {
        EXPECT_EQ(collector.ingest(payload, protocol), 0u) << payload;
        EXPECT_EQ(collector.stats().droppedMalformed, ++malformed)
            << payload;
        EXPECT_EQ(store.size(), 0u) << payload;
    }
    EXPECT_EQ(collector.stats().tracesAccepted, 0u);

    // The collector keeps working after the rejections.
    EXPECT_EQ(collector.ingest(kZipkinPayload, Protocol::Zipkin), 2u);
    EXPECT_EQ(store.size(), 2u);
}

TEST(TraceCollector, RejectsStructurallyInvalidTraces)
{
    // A zipkin trace whose parent never arrives is dropped, while the
    // valid trace in the same payload is kept.
    const char *payload = R"([
      {"traceId": "bad", "id": "b", "parentId": "ghost",
       "name": "op", "timestamp": 0, "duration": 5,
       "localEndpoint": {"serviceName": "s"}},
      {"traceId": "ok", "id": "a", "name": "op",
       "timestamp": 0, "duration": 5,
       "localEndpoint": {"serviceName": "s"}}
    ])";
    storage::TraceStore store;
    TraceCollector collector(&store);
    EXPECT_EQ(collector.ingest(payload, Protocol::Zipkin), 1u);
    EXPECT_EQ(collector.stats().tracesRejected, 1u);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.at(0).trace().traceId, "ok");
}

TEST(CollectorStats, CountsDropsByReason)
{
    CollectorStats s;
    s.countDrop(DropReason::Orphan, 2);
    s.countDrop(DropReason::Duplicate, 1);
    s.countDrop(DropReason::LateAfterEviction, 3);
    s.countDrop(DropReason::Malformed, 4);
    s.countDrop(DropReason::Backpressure, 5);
    EXPECT_EQ(s.spansRejected, 15u);
    EXPECT_EQ(s.droppedOrphan, 2u);
    EXPECT_EQ(s.droppedDuplicate, 1u);
    EXPECT_EQ(s.droppedLate, 3u);
    EXPECT_EQ(s.droppedMalformed, 4u);
    EXPECT_EQ(s.droppedBackpressure, 5u);

    CollectorStats other;
    other.countDrop(DropReason::Orphan, 1);
    other.spansAccepted = 7;
    other.tracesAccepted = 2;
    s.merge(other);
    EXPECT_EQ(s.droppedOrphan, 3u);
    EXPECT_EQ(s.spansRejected, 16u);
    EXPECT_EQ(s.spansAccepted, 7u);
    EXPECT_EQ(s.tracesAccepted, 2u);
}

TEST(CollectorStats, ClassifyDefectOrdersChecks)
{
    using sleuth::testing::makeSpan;
    trace::Trace empty;
    EXPECT_EQ(classifyDefect(empty), DropReason::Malformed);

    trace::Trace dup;
    dup.spans.push_back(makeSpan("x", "", "s", "op", 0, 10));
    dup.spans.push_back(makeSpan("x", "x", "s", "op2", 1, 5));
    EXPECT_EQ(classifyDefect(dup), DropReason::Duplicate);

    trace::Trace orphan;
    orphan.spans.push_back(makeSpan("a", "", "s", "op", 0, 10));
    orphan.spans.push_back(makeSpan("b", "ghost", "s", "op2", 1, 5));
    EXPECT_EQ(classifyDefect(orphan), DropReason::Orphan);

    trace::Trace two_roots;
    two_roots.spans.push_back(makeSpan("a", "", "s", "op", 0, 10));
    two_roots.spans.push_back(makeSpan("b", "", "s", "op2", 1, 5));
    EXPECT_EQ(classifyDefect(two_roots), DropReason::Malformed);
}

TEST(TraceCollector, RejectionsAreCountedByReason)
{
    // One orphan trace, one valid trace, one unparsable payload.
    const char *payload = R"([
      {"traceId": "bad", "id": "b", "parentId": "ghost",
       "name": "op", "timestamp": 0, "duration": 5,
       "localEndpoint": {"serviceName": "s"}},
      {"traceId": "ok", "id": "a", "name": "op",
       "timestamp": 0, "duration": 5,
       "localEndpoint": {"serviceName": "s"}}
    ])";
    storage::TraceStore store;
    TraceCollector collector(&store);
    collector.ingest(payload, Protocol::Zipkin);
    collector.ingest("{not json", Protocol::Zipkin);
    const CollectorStats &s = collector.stats();
    EXPECT_EQ(s.tracesAccepted, 1u);
    EXPECT_EQ(s.tracesRejected, 2u);
    EXPECT_EQ(s.droppedOrphan, 1u);
    EXPECT_EQ(s.droppedMalformed, 1u);
    EXPECT_EQ(s.spansRejected, 2u);
    EXPECT_EQ(s.spansAccepted, 1u);
}
