#include "collector.h"

#include <map>
#include <set>
#include <unordered_map>

#include "obs/metrics.h"
#include "trace/trace_json.h"
#include "util/logging.h"
#include "util/strings.h"

namespace sleuth::collector {

namespace {

/** Per-reason drop counter (one labelled instance per DropReason). */
obs::Counter &
dropCounter(DropReason reason)
{
    static const char *help = "Spans dropped during ingestion, by reason";
    static obs::Counter &orphan = obs::counter(
        "sleuth_ingest_dropped_spans_total", help,
        {{"reason", toString(DropReason::Orphan)}});
    static obs::Counter &duplicate = obs::counter(
        "sleuth_ingest_dropped_spans_total", help,
        {{"reason", toString(DropReason::Duplicate)}});
    static obs::Counter &late = obs::counter(
        "sleuth_ingest_dropped_spans_total", help,
        {{"reason", toString(DropReason::LateAfterEviction)}});
    static obs::Counter &malformed = obs::counter(
        "sleuth_ingest_dropped_spans_total", help,
        {{"reason", toString(DropReason::Malformed)}});
    static obs::Counter &backpressure = obs::counter(
        "sleuth_ingest_dropped_spans_total", help,
        {{"reason", toString(DropReason::Backpressure)}});
    static obs::Counter &ring_full = obs::counter(
        "sleuth_ingest_dropped_spans_total", help,
        {{"reason", toString(DropReason::RingFull)}});
    static obs::Counter &shed = obs::counter(
        "sleuth_ingest_dropped_spans_total", help,
        {{"reason", toString(DropReason::Shed)}});
    switch (reason) {
      case DropReason::Orphan: return orphan;
      case DropReason::Duplicate: return duplicate;
      case DropReason::LateAfterEviction: return late;
      case DropReason::Malformed: return malformed;
      case DropReason::Backpressure: return backpressure;
      case DropReason::RingFull: return ring_full;
      case DropReason::Shed: return shed;
    }
    util::panic("invalid drop reason");
}

} // namespace

const char *
toString(Protocol p)
{
    switch (p) {
      case Protocol::Otel: return "otel";
      case Protocol::Zipkin: return "zipkin";
      case Protocol::Jaeger: return "jaeger";
    }
    util::panic("invalid protocol");
}

const char *
toString(DropReason r)
{
    switch (r) {
      case DropReason::Orphan: return "orphan";
      case DropReason::Duplicate: return "duplicate";
      case DropReason::LateAfterEviction: return "late-after-eviction";
      case DropReason::Malformed: return "malformed";
      case DropReason::Backpressure: return "backpressure";
      case DropReason::RingFull: return "ring-full";
      case DropReason::Shed: return "shed";
    }
    util::panic("invalid drop reason");
}

DropReason
classifyDefect(const trace::Trace &t)
{
    if (t.spans.empty())
        return DropReason::Malformed;
    std::set<std::string> ids;
    for (const trace::Span &s : t.spans)
        if (!ids.insert(s.spanId).second)
            return DropReason::Duplicate;
    for (const trace::Span &s : t.spans)
        if (!s.parentSpanId.empty() && !ids.count(s.parentSpanId))
            return DropReason::Orphan;
    // Root-count defects and parent cycles.
    return DropReason::Malformed;
}

void
CollectorStats::countDrop(DropReason reason, size_t spans)
{
    // Every ingest-path drop (batch collector, span assembler, online
    // admission control) funnels through here, so this is the one
    // place the process-wide drop taxonomy is recorded. merge() is
    // deliberately not instrumented: it folds already-counted blocks.
    dropCounter(reason).add(spans);
    spansRejected += spans;
    switch (reason) {
      case DropReason::Orphan: droppedOrphan += spans; break;
      case DropReason::Duplicate: droppedDuplicate += spans; break;
      case DropReason::LateAfterEviction: droppedLate += spans; break;
      case DropReason::Malformed: droppedMalformed += spans; break;
      case DropReason::Backpressure:
        droppedBackpressure += spans;
        break;
      case DropReason::RingFull: droppedRingFull += spans; break;
      case DropReason::Shed: droppedShed += spans; break;
    }
}

void
CollectorStats::merge(const CollectorStats &other)
{
    tracesAccepted += other.tracesAccepted;
    tracesRejected += other.tracesRejected;
    spansAccepted += other.spansAccepted;
    spansRejected += other.spansRejected;
    droppedOrphan += other.droppedOrphan;
    droppedDuplicate += other.droppedDuplicate;
    droppedLate += other.droppedLate;
    droppedMalformed += other.droppedMalformed;
    droppedBackpressure += other.droppedBackpressure;
    droppedRingFull += other.droppedRingFull;
    droppedShed += other.droppedShed;
}

namespace {

trace::SpanKind
zipkinKind(const std::string &kind)
{
    std::string k = util::toLower(kind);
    if (k == "client")
        return trace::SpanKind::Client;
    if (k == "server")
        return trace::SpanKind::Server;
    if (k == "producer")
        return trace::SpanKind::Producer;
    if (k == "consumer")
        return trace::SpanKind::Consumer;
    return trace::SpanKind::Local;
}

/** Zipkin tags: an error unless tags.error is false, "", "false" or absent. */
bool
readErrorTag(util::JsonReader &r)
{
    bool error = false;
    util::JsonReader::Kind kind = util::JsonReader::Kind::Null;
    std::string_view key;
    if (!r.enter(util::JsonReader::Kind::Object))
        return false;
    while (r.nextKey(&key)) {
        if (key != "error" || !r.peek(&kind)) {
            r.skipValue();
        } else if (kind == util::JsonReader::Kind::Bool) {
            r.readBool(&error);
        } else if (kind == util::JsonReader::Kind::String) {
            r.readString(&key);
            error = !key.empty() && key != "false";
        } else {
            error = r.skipValue();
        }
    }
    return error;
}

/** One Zipkin span; *why gets its first defect, relative to the span. */
void
readZipkinSpan(util::JsonReader &r, trace::Span *s, std::string *trace_id,
               std::string *why)
{
    std::string kind;
    int64_t duration = 0;
    bool error = false;
    util::JsonFields f({{"traceId", true, trace_id},
                        {"id", true, &s->spanId},
                        {"parentId", false, &s->parentSpanId},
                        {"name", false, &s->name},
                        {"kind", false, &kind},
                        {"timestamp", true, &s->startUs},
                        {"duration", true, &duration},
                        {"localEndpoint.serviceName", false}});
    auto other = [&](int, std::string_view key) {
        if (key == "tags") {
            error = readErrorTag(r);
        } else if (key != "localEndpoint") {
            r.skipValue();
        } else {
            // Only an object's serviceName counts; it may be absent.
            s->service.clear();
            util::JsonFields ep({{"serviceName", false, &s->service}});
            std::string ep_why;
            bool bad = ep.read(r, &ep_why) && ep.defect(&ep_why);
            f.mark(7, bad ? "expected a string" : nullptr);
        }
    };
    if (!f.read(r, why, other) || f.defect(why))
        return;
    s->kind = kind.empty() ? trace::SpanKind::Local : zipkinKind(kind);
    s->endUs = s->startUs + duration;
    s->status = error ? trace::StatusCode::Error : trace::StatusCode::Ok;
}

/**
 * A Zipkin v2 span array; traces come out in traceId order. (A defect
 * drops every trace, so a defective span may land anywhere.)
 */
std::vector<trace::Trace>
readZipkin(util::JsonReader &r, std::string *why)
{
    std::map<std::string, trace::Trace> by_trace;
    std::string trace_id;
    if (!r.enter(util::JsonReader::Kind::Array))
        *why = "document: expected an array";
    else
        util::readElements(r, "", why, [&](std::string *w) {
            trace::Span s;
            readZipkinSpan(r, &s, &trace_id, w);
            trace::Trace &t = by_trace[trace_id];
            t.traceId = trace_id;
            t.spans.push_back(std::move(s));
        });
    std::vector<trace::Trace> out;
    out.reserve(by_trace.size());
    for (auto &entry : by_trace)
        out.push_back(std::move(entry.second));
    return out;
}

/**
 * A Jaeger reference or tag: its `key_name` field (refType / key), and
 * its `value_name` field (spanID / value), checked only when the key is
 * `wanted` (CHILD_OF / span.kind). True when it is, with *value read.
 */
bool
readPair(util::JsonReader &r, std::string_view key_name,
         std::string_view value_name, std::string_view wanted,
         std::string *key, std::string *value, std::string *why)
{
    util::JsonFields f({{key_name, true, key}, {value_name, true, value}});
    if (!f.read(r, why))
        return false;
    if (*key != wanted)
        f.mark(1, nullptr);
    return !f.defect(why) && *key == wanted;
}

/**
 * One Jaeger span, its defects relative to the span: its own fields,
 * then references[r], then tags[g]. s->service receives the span's
 * processID, which the entry resolves once its processes are known.
 */
void
readJaegerSpan(util::JsonReader &r, trace::Span *s, std::string *why)
{
    int64_t duration = 0;
    std::string ref_why;
    std::string tag_why;
    std::string key;
    std::string value;
    s->kind = trace::SpanKind::Server;
    s->status = trace::StatusCode::Ok;
    util::JsonFields f({{"spanID", true, &s->spanId},
                        {"references", false},
                        {"operationName", true, &s->name},
                        {"startTime", true, &s->startUs},
                        {"duration", true, &duration},
                        {"processID", true, &s->service},
                        {"tags", false}});
    auto other = [&](int i, std::string_view) {
        if (i == 1) {
            s->parentSpanId.clear();
            ref_why.clear();
            if (f.enter(r, i, util::JsonReader::Kind::Array))
                util::readElements(r, "references", &ref_why,
                                   [&](std::string *w) {
                    if (readPair(r, "refType", "spanID", "CHILD_OF", &key,
                                 &value, w))
                        s->parentSpanId = value;
                });
        } else if (i == 6) {
            s->kind = trace::SpanKind::Server;
            s->status = trace::StatusCode::Ok;
            tag_why.clear();
            if (f.enter(r, i, util::JsonReader::Kind::Array))
                util::readElements(r, "tags", &tag_why, [&](std::string *w) {
                    if (readPair(r, "key", "value", "span.kind", &key,
                                 &value, w))
                        s->kind = zipkinKind(value);
                    else if (w->empty() && key == "error")
                        s->status = trace::StatusCode::Error;
                });
        } else {
            r.skipValue();
        }
    };
    if (!f.read(r, why, other) || f.defect(why))
        return;
    s->endUs = s->startUs + duration;
    *why = !ref_why.empty() ? std::move(ref_why) : std::move(tag_why);
}

/** A Jaeger process: its serviceName, or its defect. */
struct Process
{
    std::string service;
    std::string why;
};

/** An entry's processes by pid (only an object's members count). */
void
readProcesses(util::JsonReader &r,
              std::unordered_map<std::string, Process> *out)
{
    out->clear();
    std::string_view pid;
    if (!r.enter(util::JsonReader::Kind::Object))
        return;
    while (r.nextKey(&pid)) {
        Process &p = (*out)[std::string(pid)];
        p = Process{};
        util::JsonFields f({{"serviceName", true, &p.service}});
        if (f.read(r, &p.why))
            f.defect(&p.why);
    }
}

/**
 * One Jaeger entry: traceID, processes and spans, then per span its
 * own defects and its process lookup. Services resolve when the entry
 * closes, so `processes` may follow `spans`.
 */
void
readJaegerEntry(util::JsonReader &r, trace::Trace *t, std::string *why)
{
    std::unordered_map<std::string, Process> processes;
    // The first span defect of the last "spans" member.
    std::string span_why;
    util::JsonFields f({{"traceID", true, &t->traceId},
                        {"processes", true},
                        {"spans", true}});
    auto other = [&](int i, std::string_view) {
        if (i == 1) {
            f.mark(i, nullptr);
            readProcesses(r, &processes);
        } else if (i == 2) {
            t->spans.clear();
            span_why.clear();
            if (f.enter(r, i, util::JsonReader::Kind::Array))
                util::readElements(r, "spans", &span_why, [&](std::string *w) {
                    readJaegerSpan(r, &t->spans.emplace_back(), w);
                    if (!w->empty())
                        t->spans.pop_back();
                });
        } else {
            r.skipValue();
        }
    };
    if (!f.read(r, why, other) || f.defect(why))
        return;
    for (trace::Span &s : t->spans) {
        auto it = processes.find(s.service);
        if (it == processes.end()) {
            s.service.clear();
        } else if (!it->second.why.empty()) {
            *why = util::underPath("processes." + s.service, it->second.why);
            return;
        } else {
            s.service = it->second.service;
        }
    }
    *why = std::move(span_why);
}

/** A Jaeger JSON export; traces come out in document order. */
std::vector<trace::Trace>
readJaeger(util::JsonReader &r, std::string *why)
{
    std::vector<trace::Trace> out;
    // The first entry defect of the last "data" member.
    std::string data_why;
    util::JsonFields f({{"data", true}});
    auto data = [&](int i, std::string_view) {
        if (i < 0) {
            r.skipValue();
            return;
        }
        out.clear();
        data_why.clear();
        if (f.enter(r, i, util::JsonReader::Kind::Array))
            util::readElements(r, "data", &data_why, [&](std::string *w) {
                readJaegerEntry(r, &out.emplace_back(), w);
            });
    };
    if (f.read(r, why, data) && !f.defect(why))
        *why = std::move(data_why);
    return out;
}

} // namespace

std::vector<trace::Trace>
decode(Protocol protocol, std::string_view payload, std::string *error)
{
    if (protocol == Protocol::Otel)
        return trace::tracesFromText(payload, error);
    util::JsonReader r(payload);
    std::string why;
    std::vector<trace::Trace> out = protocol == Protocol::Zipkin
                                        ? readZipkin(r, &why)
                                        : readJaeger(r, &why);
    why = r.verdict(std::move(why));
    if (why.empty())
        return out;
    if (error == nullptr)
        util::fatal("collector: ", why);
    *error = why;
    return {};
}

std::vector<trace::Trace>
parseZipkin(const util::Json &doc, std::string *error)
{
    return decode(Protocol::Zipkin, doc.dump(), error);
}

std::vector<trace::Trace>
parseJaeger(const util::Json &doc, std::string *error)
{
    return decode(Protocol::Jaeger, doc.dump(), error);
}

std::vector<trace::Trace>
parseOtel(const util::Json &doc, std::string *error)
{
    return decode(Protocol::Otel, doc.dump(), error);
}

TraceCollector::TraceCollector(storage::TraceStore *store)
    : store_(store)
{
    SLEUTH_ASSERT(store != nullptr);
}

size_t
TraceCollector::ingest(std::string_view payload, Protocol protocol,
                       int64_t slo_us)
{
    std::string error;
    std::vector<trace::Trace> traces = decode(protocol, payload, &error);
    if (!error.empty()) {
        util::warn("collector: rejecting ", toString(protocol),
                   " payload: ", error);
        ++stats_.tracesRejected;
        // Span count unknown for an unparsable (or schema-breaking)
        // payload: count one unit.
        stats_.countDrop(DropReason::Malformed, 1);
        return 0;
    }
    size_t accepted = 0;
    for (trace::Trace &t : traces) {
        trace::TraceGraph graph;
        std::string why;
        if (!trace::TraceGraph::tryBuild(t, &graph, &why)) {
            util::warn("collector: dropping trace '", t.traceId,
                       "': ", why);
            ++stats_.tracesRejected;
            stats_.countDrop(classifyDefect(t), t.spans.size());
            continue;
        }
        stats_.spansAccepted += t.spans.size();
        static obs::Counter &spans = obs::counter(
            "sleuth_ingest_accepted_spans_total",
            "Spans accepted by the batch trace collector");
        spans.add(t.spans.size());
        store_->insert(std::move(t), slo_us);
        ++accepted;
        ++stats_.tracesAccepted;
    }
    static obs::Counter &payloads = obs::counter(
        "sleuth_ingest_payloads_total",
        "Collector payloads parsed (any protocol)");
    payloads.add();
    return accepted;
}

} // namespace sleuth::collector
