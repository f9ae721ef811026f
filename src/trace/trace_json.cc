#include "trace_json.h"

#include "util/logging.h"

namespace sleuth::trace {

util::Json
toJson(const Trace &trace)
{
    util::Json doc = util::Json::object();
    doc.set("traceId", trace.traceId);
    util::Json spans = util::Json::array();
    for (const Span &s : trace.spans) {
        util::Json j = util::Json::object();
        j.set("spanId", s.spanId);
        j.set("parentSpanId", s.parentSpanId);
        j.set("service", s.service);
        j.set("name", s.name);
        j.set("kind", toString(s.kind));
        j.set("startUs", s.startUs);
        j.set("endUs", s.endUs);
        j.set("status", toString(s.status));
        j.set("container", s.container);
        j.set("pod", s.pod);
        j.set("node", s.node);
        spans.push(std::move(j));
    }
    doc.set("spans", std::move(spans));
    return doc;
}

namespace {

/** A decoder's failure exit: report through *error, or die. */
Trace
reject(const std::string &why, std::string *error)
{
    if (error == nullptr)
        util::fatal("trace json: ", why);
    *error = why;
    return {};
}

} // namespace

Trace
traceFromJson(const util::Json &doc, std::string *error)
{
    Trace t;
    std::string why;
    const util::Json::Array *spans = nullptr;
    if (!util::getString(doc, "", "traceId", &t.traceId, &why) ||
        !util::getArray(doc, "", "spans", &spans, &why))
        return reject(why, error);
    t.spans.reserve(spans->size());
    for (size_t i = 0; i < spans->size(); ++i) {
        const util::Json &j = (*spans)[i];
        Span s;
        std::string kind;
        std::string status;
        bool ok =
            util::getString(j, "", "spanId", &s.spanId, &why) &&
            util::getString(j, "", "parentSpanId", &s.parentSpanId, &why) &&
            util::getString(j, "", "service", &s.service, &why) &&
            util::getString(j, "", "name", &s.name, &why) &&
            util::getString(j, "", "kind", &kind, &why) &&
            util::getInt(j, "", "startUs", &s.startUs, &why) &&
            util::getInt(j, "", "endUs", &s.endUs, &why) &&
            util::getString(j, "", "status", &status, &why) &&
            util::getOptionalString(j, "", "container", &s.container, &why) &&
            util::getOptionalString(j, "", "pod", &s.pod, &why) &&
            util::getOptionalString(j, "", "node", &s.node, &why);
        if (ok && !trySpanKindFromString(kind, &s.kind)) {
            why = "kind: unknown span kind '" + kind + "'";
            ok = false;
        } else if (ok && !tryStatusCodeFromString(status, &s.status)) {
            why = "status: unknown status code '" + status + "'";
            ok = false;
        }
        if (!ok)
            return reject(
                util::underPath("spans[" + std::to_string(i) + ']', why),
                error);
        t.spans.push_back(std::move(s));
    }
    return t;
}

util::Json
toJson(const std::vector<Trace> &traces)
{
    util::Json arr = util::Json::array();
    for (const Trace &t : traces)
        arr.push(toJson(t));
    return arr;
}

std::vector<Trace>
tracesFromJson(const util::Json &doc, std::string *error)
{
    if (doc.type() != util::Json::Type::Array) {
        reject("document: expected an array", error);
        return {};
    }
    const util::Json::Array &docs = doc.asArray();
    std::vector<Trace> out(docs.size());
    std::string why;
    for (size_t i = 0; i < docs.size(); ++i) {
        out[i] = traceFromJson(docs[i], &why);
        if (!why.empty()) {
            reject(util::underPath('[' + std::to_string(i) + ']', why),
                   error);
            return {};
        }
    }
    return out;
}

} // namespace sleuth::trace
