#include "collector.h"

#include <map>
#include <set>

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

bool
errorTag(const util::Json &tags)
{
    const util::Json *e = tags.find("error");
    if (e == nullptr)
        return false;
    if (e->type() == util::Json::Type::Bool)
        return e->asBool();
    if (e->type() == util::Json::Type::String)
        return !e->asString().empty() && e->asString() != "false";
    return true;
}

/**
 * The decoders' failure exit: report `why` through *error, or die
 * when the caller passed none.
 */
std::vector<trace::Trace>
reject(const std::string &why, std::string *error)
{
    if (error == nullptr)
        util::fatal("collector: ", why);
    *error = why;
    return {};
}

/**
 * One Jaeger span, its defects reported relative to the span. The
 * element paths of references and tags are built only for a defect.
 */
bool
jaegerSpan(const util::Json &j, trace::Span *s, std::string *pid,
           std::string *why)
{
    const util::Json::Array *refs = nullptr;
    const util::Json::Array *tags = nullptr;
    int64_t duration = 0;
    if (!util::getString(j, "", "spanID", &s->spanId, why) ||
        !util::getOptionalArray(j, "", "references", &refs, why) ||
        !util::getString(j, "", "operationName", &s->name, why) ||
        !util::getInt(j, "", "startTime", &s->startUs, why) ||
        !util::getInt(j, "", "duration", &duration, why) ||
        !util::getString(j, "", "processID", pid, why) ||
        !util::getOptionalArray(j, "", "tags", &tags, why))
        return false;
    s->endUs = s->startUs + duration;
    for (size_t r = 0; refs != nullptr && r < refs->size(); ++r) {
        std::string type;
        if (!util::getString((*refs)[r], "", "refType", &type, why) ||
            (type == "CHILD_OF" &&
             !util::getString((*refs)[r], "", "spanID", &s->parentSpanId,
                              why))) {
            *why = util::underPath(
                "references[" + std::to_string(r) + ']', *why);
            return false;
        }
    }
    s->kind = trace::SpanKind::Server;
    s->status = trace::StatusCode::Ok;
    for (size_t g = 0; tags != nullptr && g < tags->size(); ++g) {
        std::string key;
        std::string kind;
        if (!util::getString((*tags)[g], "", "key", &key, why) ||
            (key == "span.kind" &&
             !util::getString((*tags)[g], "", "value", &kind, why))) {
            *why = util::underPath("tags[" + std::to_string(g) + ']', *why);
            return false;
        }
        if (key == "span.kind")
            s->kind = zipkinKind(kind);
        if (key == "error")
            s->status = trace::StatusCode::Error;
    }
    return true;
}

} // namespace

std::vector<trace::Trace>
parseZipkin(const util::Json &doc, std::string *error)
{
    if (doc.type() != util::Json::Type::Array)
        return reject("document: expected an array", error);
    const util::Json::Array &spans = doc.asArray();
    std::map<std::string, trace::Trace> by_trace;
    std::string why;
    for (size_t i = 0; i < spans.size(); ++i) {
        const util::Json &j = spans[i];
        trace::Span s;
        std::string trace_id;
        std::string kind;
        int64_t duration = 0;
        const util::Json *ep = j.find("localEndpoint");
        if (!util::getString(j, "", "traceId", &trace_id, &why) ||
            !util::getString(j, "", "id", &s.spanId, &why) ||
            !util::getOptionalString(j, "", "parentId", &s.parentSpanId,
                                     &why) ||
            !util::getOptionalString(j, "", "name", &s.name, &why) ||
            !util::getOptionalString(j, "", "kind", &kind, &why) ||
            !util::getInt(j, "", "timestamp", &s.startUs, &why) ||
            !util::getInt(j, "", "duration", &duration, &why) ||
            (ep != nullptr && ep->has("serviceName") &&
             !util::getString(*ep, "localEndpoint", "serviceName",
                              &s.service, &why)))
            return reject(
                util::underPath('[' + std::to_string(i) + ']', why), error);
        s.kind = kind.empty() ? trace::SpanKind::Local : zipkinKind(kind);
        s.endUs = s.startUs + duration;
        const util::Json *tags = j.find("tags");
        s.status = tags != nullptr && errorTag(*tags)
                       ? trace::StatusCode::Error
                       : trace::StatusCode::Ok;
        trace::Trace &t = by_trace[trace_id];
        t.traceId = trace_id;
        t.spans.push_back(std::move(s));
    }
    std::vector<trace::Trace> out;
    out.reserve(by_trace.size());
    for (auto &[id, t] : by_trace) {
        (void)id;
        out.push_back(std::move(t));
    }
    return out;
}

std::vector<trace::Trace>
parseJaeger(const util::Json &doc, std::string *error)
{
    std::vector<trace::Trace> out;
    std::string why;
    const util::Json::Array *data = nullptr;
    if (!util::getArray(doc, "", "data", &data, &why))
        return reject(why, error);
    for (size_t k = 0; k < data->size(); ++k) {
        const util::Json &entry = (*data)[k];
        trace::Trace t;
        const util::Json *processes = nullptr;
        const util::Json::Array *spans = nullptr;
        bool ok = util::getString(entry, "", "traceID", &t.traceId, &why) &&
                  util::getField(entry, "", "processes", &processes, &why) &&
                  util::getArray(entry, "", "spans", &spans, &why);
        for (size_t i = 0; ok && i < spans->size(); ++i) {
            trace::Span s;
            std::string pid;
            if (!jaegerSpan((*spans)[i], &s, &pid, &why)) {
                why = util::underPath("spans[" + std::to_string(i) + ']', why);
                ok = false;
            } else if (const util::Json *proc = processes->find(pid);
                       proc != nullptr &&
                       !util::getString(*proc, "", "serviceName",
                                        &s.service, &why)) {
                why = util::underPath("processes." + pid, why);
                ok = false;
            } else {
                t.spans.push_back(std::move(s));
            }
        }
        if (!ok)
            return reject(
                util::underPath("data[" + std::to_string(k) + ']', why),
                error);
        out.push_back(std::move(t));
    }
    return out;
}

std::vector<trace::Trace>
parseOtel(const util::Json &doc, std::string *error)
{
    return trace::tracesFromJson(doc, error);
}

TraceCollector::TraceCollector(storage::TraceStore *store)
    : store_(store)
{
    SLEUTH_ASSERT(store != nullptr);
}

size_t
TraceCollector::ingest(const std::string &payload, Protocol protocol,
                       int64_t slo_us)
{
    std::string error;
    util::Json doc = util::Json::parse(payload, &error);
    std::vector<trace::Trace> traces;
    if (error.empty()) {
        switch (protocol) {
          case Protocol::Otel:
            traces = parseOtel(doc, &error);
            break;
          case Protocol::Zipkin:
            traces = parseZipkin(doc, &error);
            break;
          case Protocol::Jaeger:
            traces = parseJaeger(doc, &error);
            break;
        }
    }
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
