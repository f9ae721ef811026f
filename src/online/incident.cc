#include "incident.h"

#include "util/logging.h"

namespace sleuth::online {

const char *
toString(Incident::State s)
{
    switch (s) {
      case Incident::State::Open: return "open";
      case Incident::State::Analyzed: return "analyzed";
      case Incident::State::Resolved: return "resolved";
    }
    util::panic("invalid incident state");
}

util::Json
toJson(const Incident &incident)
{
    util::Json doc = util::Json::object();
    doc.set("id", incident.id);
    doc.set("state", toString(incident.state));
    doc.set("openedAtUs", incident.openedAtUs);
    doc.set("resolvedAtUs", incident.resolvedAtUs);
    util::Json endpoints = util::Json::array();
    for (const std::string &e : incident.endpoints)
        endpoints.push(util::Json(e));
    doc.set("endpoints", std::move(endpoints));
    doc.set("windowStartUs", incident.windowStartUs);
    doc.set("windowEndUs", incident.windowEndUs);
    doc.set("snapshotMaxRecordId", incident.snapshotMaxRecordId);
    doc.set("anomalousTraces", incident.anomalousTraces.size());
    doc.set("normalSample", incident.normalSample.size());
    doc.set("normalsConsidered", incident.normalsConsidered);
    doc.set("detectionLatencyUs", incident.detectionLatencyUs);
    doc.set("rcaMillis", incident.rcaMillis);

    util::Json verdicts = util::Json::array();
    for (size_t i = 0; i < incident.anomalousTraces.size(); ++i) {
        util::Json v = util::Json::object();
        v.set("traceId", incident.anomalousTraces[i].traceId);
        if (i < incident.rca.perTrace.size()) {
            const core::RcaResult &r = incident.rca.perTrace[i];
            util::Json services = util::Json::array();
            for (const std::string &svc : r.services)
                services.push(util::Json(svc));
            v.set("services", std::move(services));
            v.set("resolved", r.resolved);
            if (!r.error.empty())
                v.set("error", r.error);
        }
        verdicts.push(std::move(v));
    }
    doc.set("verdicts", std::move(verdicts));

    util::Json ranked = util::Json::array();
    for (const auto &[svc, votes] : incident.rankedRootCauses) {
        util::Json row = util::Json::object();
        row.set("service", svc);
        row.set("votes", votes);
        ranked.push(std::move(row));
    }
    doc.set("rankedRootCauses", std::move(ranked));
    return doc;
}

namespace {

/**
 * Fewest encoded bytes per item, the bound BinaryReader::count()
 * checks a decoded count against: a string is its u32 length prefix;
 * a span is seven strings, two u8 enums and two i64 timestamps; a
 * trace is its id plus a span count; a verdict is three string sets,
 * one string list, one string and a u64 + u8.
 */
constexpr size_t kMinStringBytes = 4;
constexpr size_t kMinSpanBytes = 7 * kMinStringBytes + 2 + 2 * 8;
constexpr size_t kMinTraceBytes = kMinStringBytes + 4;
constexpr size_t kMinRcaBytes = 5 * kMinStringBytes + 8 + 1;
/** One ranked root cause: service string + u64 votes. */
constexpr size_t kMinRankedBytes = kMinStringBytes + 8;

/** Row-oriented trace codec: incidents snapshot materialized traces,
    so they serialize by rows (the store's columns are logged
    separately and the two must not share an interner). */
void
encodeTrace(util::BinaryWriter &w, const trace::Trace &t)
{
    w.str(t.traceId);
    w.u32(static_cast<uint32_t>(t.spans.size()));
    for (const trace::Span &s : t.spans) {
        w.str(s.spanId);
        w.str(s.parentSpanId);
        w.str(s.service);
        w.str(s.name);
        w.u8(static_cast<uint8_t>(s.kind));
        w.i64(s.startUs);
        w.i64(s.endUs);
        w.u8(static_cast<uint8_t>(s.status));
        w.str(s.container);
        w.str(s.pod);
        w.str(s.node);
    }
}

bool
decodeTrace(util::BinaryReader &r, trace::Trace *t)
{
    t->traceId = r.str();
    uint32_t n = r.count(kMinSpanBytes);
    t->spans.clear();
    t->spans.reserve(n);
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
        trace::Span s;
        s.spanId = r.str();
        s.parentSpanId = r.str();
        s.service = r.str();
        s.name = r.str();
        uint8_t kind = r.u8();
        s.startUs = r.i64();
        s.endUs = r.i64();
        uint8_t status = r.u8();
        if (kind > static_cast<uint8_t>(trace::SpanKind::Local) ||
            status > static_cast<uint8_t>(trace::StatusCode::Error))
            return false;
        s.kind = static_cast<trace::SpanKind>(kind);
        s.status = static_cast<trace::StatusCode>(status);
        s.container = r.str();
        s.pod = r.str();
        s.node = r.str();
        t->spans.push_back(std::move(s));
    }
    return r.ok();
}

void
encodeStringVec(util::BinaryWriter &w,
                const std::vector<std::string> &v)
{
    w.u32(static_cast<uint32_t>(v.size()));
    for (const std::string &s : v)
        w.str(s);
}

bool
decodeStringVec(util::BinaryReader &r, std::vector<std::string> *v)
{
    uint32_t n = r.count(kMinStringBytes);
    v->clear();
    v->reserve(n);
    for (uint32_t i = 0; i < n && r.ok(); ++i)
        v->push_back(r.str());
    return r.ok();
}

void
encodeStringSet(util::BinaryWriter &w, const std::set<std::string> &v)
{
    w.u32(static_cast<uint32_t>(v.size()));
    for (const std::string &s : v)
        w.str(s);
}

bool
decodeStringSet(util::BinaryReader &r, std::set<std::string> *v)
{
    uint32_t n = r.u32();
    v->clear();
    for (uint32_t i = 0; i < n && r.ok(); ++i)
        v->insert(r.str());
    return r.ok();
}

void
encodeRca(util::BinaryWriter &w, const core::RcaResult &v)
{
    encodeStringVec(w, v.services);
    encodeStringSet(w, v.pods);
    encodeStringSet(w, v.nodes);
    encodeStringSet(w, v.containers);
    w.u64(v.iterations);
    w.u8(v.resolved ? 1 : 0);
    w.str(v.error);
}

bool
decodeRca(util::BinaryReader &r, core::RcaResult *v)
{
    if (!decodeStringVec(r, &v->services) ||
        !decodeStringSet(r, &v->pods) ||
        !decodeStringSet(r, &v->nodes) ||
        !decodeStringSet(r, &v->containers))
        return false;
    v->iterations = r.u64();
    v->resolved = r.u8() != 0;
    v->error = r.str();
    return r.ok();
}

void
encodePipelineResult(util::BinaryWriter &w,
                     const core::PipelineResult &v)
{
    w.u32(static_cast<uint32_t>(v.perTrace.size()));
    for (const core::RcaResult &rr : v.perTrace)
        encodeRca(w, rr);
    w.u32(static_cast<uint32_t>(v.clusterLabels.size()));
    for (int label : v.clusterLabels)
        w.i64(label);
    w.i64(v.numClusters);
    w.u64(v.rcaInvocations);
    w.u64(v.distanceEvaluations);
    w.u64(v.skippedTraces);
}

bool
decodePipelineResult(util::BinaryReader &r, core::PipelineResult *v)
{
    uint32_t n = r.count(kMinRcaBytes);
    v->perTrace.clear();
    v->perTrace.resize(n);
    for (uint32_t i = 0; i < n && r.ok(); ++i)
        if (!decodeRca(r, &v->perTrace[i]))
            return false;
    uint32_t labels = r.count(8);
    v->clusterLabels.clear();
    v->clusterLabels.reserve(labels);
    for (uint32_t i = 0; i < labels && r.ok(); ++i)
        v->clusterLabels.push_back(static_cast<int>(r.i64()));
    v->numClusters = static_cast<int>(r.i64());
    v->rcaInvocations = r.u64();
    v->distanceEvaluations = r.u64();
    v->skippedTraces = r.u64();
    return r.ok();
}

} // namespace

void
encodeIncident(util::BinaryWriter &w, const Incident &incident)
{
    w.u64(incident.id);
    w.u8(static_cast<uint8_t>(incident.state));
    w.i64(incident.openedAtUs);
    w.i64(incident.resolvedAtUs);
    encodeStringVec(w, incident.endpoints);
    w.i64(incident.windowStartUs);
    w.i64(incident.windowEndUs);
    w.u64(incident.snapshotMaxRecordId);
    w.u32(static_cast<uint32_t>(incident.anomalousTraces.size()));
    for (const trace::Trace &t : incident.anomalousTraces)
        encodeTrace(w, t);
    w.u32(static_cast<uint32_t>(incident.slos.size()));
    for (int64_t slo : incident.slos)
        w.i64(slo);
    w.u32(static_cast<uint32_t>(incident.normalSample.size()));
    for (const trace::Trace &t : incident.normalSample)
        encodeTrace(w, t);
    w.u64(incident.normalsConsidered);
    encodePipelineResult(w, incident.rca);
    w.u32(static_cast<uint32_t>(incident.rankedRootCauses.size()));
    for (const auto &[svc, votes] : incident.rankedRootCauses) {
        w.str(svc);
        w.u64(votes);
    }
    w.i64(incident.detectionLatencyUs);
    w.f64(incident.rcaMillis);
}

bool
decodeIncident(util::BinaryReader &r, Incident *incident)
{
    incident->id = r.u64();
    uint8_t state = r.u8();
    if (!r.ok() ||
        state > static_cast<uint8_t>(Incident::State::Resolved))
        return false;
    incident->state = static_cast<Incident::State>(state);
    incident->openedAtUs = r.i64();
    incident->resolvedAtUs = r.i64();
    if (!decodeStringVec(r, &incident->endpoints))
        return false;
    incident->windowStartUs = r.i64();
    incident->windowEndUs = r.i64();
    incident->snapshotMaxRecordId = r.u64();
    uint32_t nAnomalous = r.count(kMinTraceBytes);
    incident->anomalousTraces.clear();
    incident->anomalousTraces.resize(nAnomalous);
    for (uint32_t i = 0; i < nAnomalous && r.ok(); ++i)
        if (!decodeTrace(r, &incident->anomalousTraces[i]))
            return false;
    uint32_t nSlos = r.count(8);
    incident->slos.clear();
    incident->slos.reserve(nSlos);
    for (uint32_t i = 0; i < nSlos && r.ok(); ++i)
        incident->slos.push_back(r.i64());
    uint32_t nNormal = r.count(kMinTraceBytes);
    incident->normalSample.clear();
    incident->normalSample.resize(nNormal);
    for (uint32_t i = 0; i < nNormal && r.ok(); ++i)
        if (!decodeTrace(r, &incident->normalSample[i]))
            return false;
    incident->normalsConsidered = r.u64();
    if (!decodePipelineResult(r, &incident->rca))
        return false;
    uint32_t nRanked = r.count(kMinRankedBytes);
    incident->rankedRootCauses.clear();
    incident->rankedRootCauses.reserve(nRanked);
    for (uint32_t i = 0; i < nRanked && r.ok(); ++i) {
        std::string svc = r.str();
        size_t votes = r.u64();
        incident->rankedRootCauses.emplace_back(std::move(svc), votes);
    }
    incident->detectionLatencyUs = r.i64();
    incident->rcaMillis = r.f64();
    return r.ok();
}

} // namespace sleuth::online
