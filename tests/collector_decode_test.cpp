// The collectors' text decoders (collector::decode), which read payload
// text straight into trace rows. Three kinds of test stand in for a
// DOM-walking reference decoder: a metamorphic mutation test against
// util::Json::parse, a round trip of simulated traces through every
// protocol, and pinned precedence cases with exact messages.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "collector/collector.h"
#include "sim/cluster_model.h"
#include "sim/simulator.h"
#include "synth/catalog.h"
#include "synth/generator.h"
#include "trace/trace_json.h"

using namespace sleuth;
using collector::Protocol;

namespace {

/** Zipkin v2 span array (collector.h's shape), spans round-robin. */
std::string
zipkinPayload(const std::vector<trace::Trace> &traces)
{
    util::Json doc = util::Json::array();
    for (size_t k = 0;; ++k) {
        bool any = false;
        for (const trace::Trace &t : traces) {
            if (k >= t.spans.size())
                continue;
            any = true;
            const trace::Span &s = t.spans[k];
            util::Json j = util::Json::object();
            j.set("traceId", t.traceId);
            j.set("id", s.spanId);
            if (!s.parentSpanId.empty())
                j.set("parentId", s.parentSpanId);
            j.set("name", s.name);
            if (s.kind != trace::SpanKind::Local)
                j.set("kind", trace::toString(s.kind));
            j.set("timestamp", s.startUs);
            j.set("duration", s.durationUs());
            util::Json ep = util::Json::object();
            ep.set("serviceName", s.service);
            j.set("localEndpoint", std::move(ep));
            util::Json tags = util::Json::object();
            tags.set("error", s.hasError());
            j.set("tags", std::move(tags));
            doc.push(std::move(j));
        }
        if (!any)
            return doc.dump();
    }
}

/** Jaeger JSON export (collector.h's shape), one process per service. */
std::string
jaegerPayload(const std::vector<trace::Trace> &traces)
{
    util::Json data = util::Json::array();
    for (const trace::Trace &t : traces) {
        util::Json entry = util::Json::object();
        entry.set("traceID", t.traceId);
        util::Json processes = util::Json::object();
        util::Json spans = util::Json::array();
        for (const trace::Span &s : t.spans) {
            util::Json proc = util::Json::object();
            proc.set("serviceName", s.service);
            processes.set("p-" + s.service, std::move(proc));
            util::Json j = util::Json::object();
            j.set("spanID", s.spanId);
            util::Json refs = util::Json::array();
            if (!s.parentSpanId.empty()) {
                util::Json ref = util::Json::object();
                ref.set("refType", "CHILD_OF");
                ref.set("spanID", s.parentSpanId);
                refs.push(std::move(ref));
            }
            j.set("references", std::move(refs));
            j.set("operationName", s.name);
            j.set("startTime", s.startUs);
            j.set("duration", s.durationUs());
            j.set("processID", "p-" + s.service);
            util::Json tags = util::Json::array();
            util::Json kind = util::Json::object();
            kind.set("key", "span.kind");
            kind.set("value", trace::toString(s.kind));
            tags.push(std::move(kind));
            if (s.hasError()) {
                util::Json err = util::Json::object();
                err.set("key", "error");
                err.set("value", true);
                tags.push(std::move(err));
            }
            j.set("tags", std::move(tags));
            spans.push(std::move(j));
        }
        entry.set("spans", std::move(spans));
        entry.set("processes", std::move(processes));
        data.push(std::move(entry));
    }
    util::Json doc = util::Json::object();
    doc.set("data", std::move(data));
    return doc.dump();
}

/** What a decode yields: the error, or every field of every span. */
std::string
verdict(const std::vector<trace::Trace> &traces, const std::string &error)
{
    if (!error.empty())
        return "error: " + error;
    std::string out;
    for (const trace::Trace &t : traces) {
        out += "trace " + t.traceId + '\n';
        for (const trace::Span &s : t.spans)
            out += s.spanId + '|' + s.parentSpanId + '|' + s.service + '|' +
                   s.name + '|' + trace::toString(s.kind) + '|' +
                   std::to_string(s.startUs) + '|' +
                   std::to_string(s.endUs) + '|' +
                   trace::toString(s.status) + '|' + s.container + '|' +
                   s.pod + '|' + s.node + '\n';
    }
    return out;
}

std::string
decoded(Protocol protocol, std::string_view text)
{
    std::string error;
    std::vector<trace::Trace> traces =
        collector::decode(protocol, text, &error);
    return verdict(traces, error);
}

const char *kOtelBase = R"([
 {"traceId": "o1", "spans": [
   {"spanId": "r", "parentSpanId": "", "service": "frontend",
    "name": "Handle", "kind": "server", "startUs": 0, "endUs": 2000,
    "status": "ok", "container": "c1", "pod": "p1", "node": "n1"},
   {"spanId": "c", "parentSpanId": "r", "service": "backend",
    "name": "Get\u00e9", "kind": "client", "startUs": 20, "endUs": 1900,
    "status": "error"}]},
 {"spans": [{"spanId": "a", "parentSpanId": "", "service": "s",
   "name": "n", "kind": "producer", "startUs": 5, "endUs": 6,
   "status": "unset", "extra": {"k": [1, 2.5, null]}}], "traceId": "o2"},
 {"traceId": "o3", "spans": []}])";

const char *kZipkinBase = R"([
 {"traceId": "t1", "id": "a", "name": "get /orders", "kind": "SERVER",
  "timestamp": 1000, "duration": 500,
  "localEndpoint": {"serviceName": "front-end", "ipv4": "1.2.3.4"}},
 {"traceId": "t2", "id": "x", "name": "GET /cart", "kind": "server",
  "timestamp": 9000, "duration": 120,
  "localEndpoint": {"serviceName": "cart"}, "tags": {"error": false}},
 {"traceId": "t1", "id": "b", "parentId": "a", "name": "Create",
  "kind": "CLIENT", "timestamp": 1100, "duration": 300,
  "localEndpoint": {"serviceName": "front-end"},
  "tags": {"error": "timeout", "http.status": 500}},
 {"traceId": "t0", "id": "c", "timestamp": -5, "duration": 0.0,
  "debug": true, "annotations": [1, null, {"v": "w"}]}])";

const char *kJaegerBase = R"({"data": [
 {"traceID": "jt1",
  "processes": {"p1": {"serviceName": "nginx"},
                "p2": {"serviceName": "compose", "tags": []}},
  "spans": [
   {"spanID": "s1", "operationName": "POST /compose", "startTime": 5000,
    "duration": 900, "processID": "p1",
    "tags": [{"key": "span.kind", "value": "server"}]},
   {"spanID": "s2", "operationName": "ComposePost", "startTime": 5100,
    "duration": 700, "processID": "p2",
    "references": [{"refType": "FOLLOWS_FROM", "spanID": "z"},
                   {"refType": "CHILD_OF", "spanID": "s1"}],
    "tags": [{"key": "span.kind", "value": "client"},
             {"key": "error", "value": true}]}]},
 {"spans": [{"spanID": "q", "operationName": "op", "startTime": 1,
   "duration": 2, "processID": "p9", "warnings": null}],
  "traceID": "jt2", "processes": {"p9": {"serviceName": "svc"}}},
 {"traceID": "jt3", "processes": [], "spans": []}], "total": 3})";

/** Tokens and keys the mutator splices into payload text. */
const char *const kSplices[] = {
    "{", "}", "[", "]", ",", ":", "\"", "null", "true", "false", "-0",
    "1.5", "7", "1e300", "9007199254740993", "\"x\"", "\"\\u00e9\"", "\\",
    "\"traceId\":", "\"spans\":", "\"id\":", "\"traceID\":",
    "\"processes\":", "\"data\":", "\"spanId\":", "\"kind\":",
    "\"timestamp\":", "\"tags\":", "\"error\":", "\"references\":",
    "\"refType\":\"CHILD_OF\"", "\"processID\":", "\"serviceName\":",
    "\"localEndpoint\":", "\"status\":", " ", "{}", "[]", "\"span.kind\"",
    "\"value\":", "\"key\":"};

/** Strings the mutator swaps in for a quoted token (keys mostly). */
const char *const kSwaps[] = {
    "\"traceId\"", "\"spans\"", "\"id\"", "\"traceID\"", "\"processes\"",
    "\"data\"", "\"spanId\"", "\"kind\"", "\"timestamp\"", "\"duration\"",
    "\"tags\"", "\"error\"", "\"references\"", "\"refType\"",
    "\"CHILD_OF\"", "\"processID\"", "\"serviceName\"", "\"p1\"",
    "\"localEndpoint\"", "\"startUs\"", "\"endUs\"", "\"status\"",
    "\"span.kind\"", "\"value\"", "\"key\"", "\"parentSpanId\"",
    "\"parentId\"", "\"name\"", "\"t1\"", "\"false\"", "\"\"", "null",
    "true", "1.5", "-0", "{}", "[]", "7", "1e999", "[1]",
    "{\"serviceName\":5}", "\"operationName\"", "\"startTime\""};

/** One to three edits: splices, deletions, copies, truncation, swaps. */
std::string
mutate(std::mt19937_64 &rng, std::string s)
{
    auto pick = [&](size_t n) { return n == 0 ? 0 : size_t(rng() % n); };
    const int edits = 1 + int(rng() % 3);
    for (int e = 0; e < edits; ++e) {
        switch (rng() % 8) {
          case 0:
          case 1:
            s.insert(pick(s.size() + 1), kSplices[pick(std::size(kSplices))]);
            break;
          case 2:
            s.erase(pick(s.size()), 1 + pick(8));
            break;
          case 3: {
            size_t a = pick(s.size());
            std::string slice = s.substr(a, 1 + pick(60));
            s.insert(pick(s.size() + 1), slice);
            break;
          }
          case 4:
            s.resize(pick(s.size() + 1));
            break;
          case 5:
            s.insert(pick(s.size() + 1), 1,
                     "0123456789.-+eE\"{}[],: "[pick(24)]);
            break;
          default: {
            size_t a = s.find('"', pick(s.size() + 1));
            size_t b = a == std::string::npos ? a : s.find('"', a + 1);
            if (b != std::string::npos)
                s.replace(a, b - a + 1, kSwaps[pick(std::size(kSwaps))]);
            break;
          }
        }
    }
    return s;
}

} // namespace

TEST(DecodeMutants, AgreeWithTheDomParserAndItsCanonicalText)
{
    // If Json::parse rejects a mutant, decode names the same syntax
    // error; otherwise decoding the mutant equals decoding its DOM's
    // canonical dump (sorted keys, duplicates resolved, no whitespace).
    // That pins "syntax wins", last-wins duplicates and member-order
    // independence.
    const std::pair<Protocol, const char *> bases[] = {
        {Protocol::Otel, kOtelBase},
        {Protocol::Zipkin, kZipkinBase},
        {Protocol::Jaeger, kJaegerBase}};
    for (const auto &[protocol, base] : bases)
        ASSERT_EQ(decoded(protocol, base).rfind("error: ", 0),
                  std::string::npos)
            << decoded(protocol, base);
    std::mt19937_64 rng(20261018);
    size_t parsed = 0;
    size_t accepted = 0;
    for (int i = 0; i < 24000; ++i) {
        const auto &[protocol, base] = bases[i % 3];
        std::string m = mutate(rng, base);
        std::string err;
        util::Json doc = util::Json::parse(m, &err);
        std::string got = decoded(protocol, m);
        if (!err.empty()) {
            ASSERT_EQ(got, "error: " + err) << m;
            continue;
        }
        ++parsed;
        ASSERT_EQ(got, decoded(protocol, doc.dump())) << m;
        accepted += got.rfind("error: ", 0) == std::string::npos;
    }
    // The mutants reach the schema checks and the accepting path.
    EXPECT_GT(parsed, 1000u);
    EXPECT_GT(accepted, 500u);
}

TEST(DecodeRoundTrip, SimulatedTracesSurviveEveryProtocol)
{
    synth::AppConfig app = synth::generateApp(synth::syntheticParams(12, 5));
    sim::ClusterModel cluster(app, 8, 5);
    sim::Simulator simulator(app, cluster, sim::SimParams{.seed = 5});
    std::vector<trace::Trace> traces;
    std::mt19937_64 rng(5);
    for (int i = 0; i < 24; ++i) {
        trace::Trace t = simulator.simulateOne().trace;
        for (trace::Span &s : t.spans) {
            if (rng() % 5 == 0)
                s.status = trace::StatusCode::Error;
            if (rng() % 7 == 0)
                s.kind = trace::SpanKind::Local;
        }
        traces.push_back(std::move(t));
    }

    // OTel carries every field.
    std::string err;
    EXPECT_EQ(verdict(collector::decode(Protocol::Otel,
                                        trace::toJson(traces).dump(), &err),
                      err),
              verdict(traces, ""));

    // Zipkin and Jaeger carry no resource attributes and only an error
    // flag; Zipkin's traces come back in traceId order.
    std::vector<trace::Trace> expected = traces;
    for (trace::Trace &t : expected) {
        for (trace::Span &s : t.spans) {
            s.container.clear();
            s.pod.clear();
            s.node.clear();
            if (!s.hasError())
                s.status = trace::StatusCode::Ok;
        }
    }
    EXPECT_EQ(decoded(Protocol::Jaeger, jaegerPayload(traces)),
              verdict(expected, ""));
    std::sort(expected.begin(), expected.end(),
              [](const trace::Trace &a, const trace::Trace &b) {
                  return a.traceId < b.traceId;
              });
    EXPECT_EQ(decoded(Protocol::Zipkin, zipkinPayload(traces)),
              verdict(expected, ""));
}

TEST(DecodePrecedence, TraceFieldsComeBeforeSpans)
{
    // The spans (with a defect) precede the trace's missing traceId.
    EXPECT_EQ(decoded(Protocol::Otel, R"([{"spans":[{"spanId":5}]}])"),
              "error: [0].traceId: missing field");
    EXPECT_EQ(decoded(Protocol::Otel,
                      R"([{"spans":[{"spanId":"a"}],"traceId":"t"}])"),
              "error: [0].spans[0].parentSpanId: missing field");
    // Within a span, the fixed field order decides, not the text's.
    EXPECT_EQ(decoded(Protocol::Zipkin,
                      R"([{"duration":"x","id":7,"traceId":"t"}])"),
              "error: [0].id: expected a string");
}

TEST(DecodePrecedence, ASyntaxErrorAfterASchemaDefectWins)
{
    EXPECT_EQ(decoded(Protocol::Zipkin,
                      R"([{"id":"a","timestamp":1,"duration":2}, {]])"),
              "error: expected string at offset 41");
    EXPECT_EQ(decoded(Protocol::Otel, R"({"not":"an array"} x)"),
              "error: trailing characters at offset 19");
    // An overflowing literal is a syntax error too, even in a field no
    // decoder reads.
    EXPECT_EQ(decoded(Protocol::Jaeger, R"({"data":[],"total":1e999})"),
              "error: number out of range at offset 24");
}

TEST(DecodePrecedence, TheLastOfARepeatedKeyWins)
{
    const char *good = R"([{"traceId":5,"traceId":"t","id":"a",
                          "timestamp":1,"duration":2}])";
    EXPECT_EQ(decoded(Protocol::Zipkin, good),
              "trace t\na||||local|1|3|ok|||\n");
    EXPECT_EQ(decoded(Protocol::Zipkin,
                      R"([{"traceId":"t","traceId":5,"id":"a",
                          "timestamp":1,"duration":2}])"),
              "error: [0].traceId: expected a string");
    // A repeated object member replaces the whole earlier value.
    EXPECT_EQ(decoded(Protocol::Otel,
                      R"([{"traceId":"t","spans":[{"bad":1}],"spans":[]}])"),
              "trace t\n");
    EXPECT_EQ(
        decoded(Protocol::Zipkin,
                R"([{"traceId":"t","id":"a","timestamp":1,"duration":2,
                     "localEndpoint":{"serviceName":"s"},
                     "localEndpoint":7,"tags":{"error":true},"tags":{}}])"),
        "trace t\na||||local|1|3|ok|||\n");
}

TEST(DecodePrecedence, JaegerProcessesMayFollowSpans)
{
    const char *entry = R"({"data":[{"traceID":"t","spans":[
        {"spanID":"a","operationName":"o","startTime":1,"duration":2,
         "processID":"p"},
        {"spanID":"b","operationName":"o","startTime":1,"duration":2}],
        "processes":{"p":{"serviceName":7}}}]})";
    // Span 0's process lookup precedes span 1's own defect.
    EXPECT_EQ(decoded(Protocol::Jaeger, entry),
              "error: data[0].processes.p.serviceName: expected a string");
    EXPECT_EQ(decoded(Protocol::Jaeger, R"({"data":[{"traceID":"t",
        "spans":[{"spanID":"a","operationName":"o","startTime":1,
                  "duration":2,"processID":"p"}],
        "processes":{"p":{"serviceName":"svc"}}}]})"),
              "trace t\na||svc|o|server|1|3|ok|||\n");
}

TEST(DecodePrecedence, ZipkinGroupsInterleavedSpansInTraceIdOrder)
{
    EXPECT_EQ(decoded(Protocol::Zipkin, R"([
        {"traceId":"t2","id":"a","timestamp":1,"duration":1},
        {"traceId":"t1","id":"b","timestamp":2,"duration":1},
        {"traceId":"t2","id":"c","parentId":"a","timestamp":3,"duration":1},
        {"traceId":"t1","id":"d","parentId":"b","timestamp":4,"duration":1}])"),
              "trace t1\nb||||local|2|3|ok|||\nd|b|||local|4|5|ok|||\n"
              "trace t2\na||||local|1|2|ok|||\nc|a|||local|3|4|ok|||\n");
}
