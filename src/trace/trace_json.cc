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

util::Json
toJson(const std::vector<Trace> &traces)
{
    util::Json arr = util::Json::array();
    for (const Trace &t : traces)
        arr.push(toJson(t));
    return arr;
}

namespace {

/** A decoder's failure exit: report through *error, or die. */
void
reject(const std::string &why, std::string *error)
{
    if (error == nullptr)
        util::fatal("trace json: ", why);
    *error = why;
}

/** One span; *why gets its first defect, relative to the span. */
void
readSpan(util::JsonReader &r, Span *s, std::string *why)
{
    std::string kind;
    std::string status;
    util::JsonFields f({{"spanId", true, &s->spanId},
                        {"parentSpanId", true, &s->parentSpanId},
                        {"service", true, &s->service},
                        {"name", true, &s->name},
                        {"kind", true, &kind},
                        {"startUs", true, &s->startUs},
                        {"endUs", true, &s->endUs},
                        {"status", true, &status},
                        {"container", false, &s->container},
                        {"pod", false, &s->pod},
                        {"node", false, &s->node}});
    if (!f.read(r, why) || f.defect(why))
        return;
    if (!trySpanKindFromString(kind, &s->kind))
        *why = "kind: unknown span kind '" + kind + "'";
    else if (!tryStatusCodeFromString(status, &s->status))
        *why = "status: unknown status code '" + status + "'";
}

/** One trace; its own fields are checked before its spans. */
void
readTrace(util::JsonReader &r, Trace *t, std::string *why)
{
    // The first span defect of the last "spans" member.
    std::string span_why;
    util::JsonFields f({{"traceId", true, &t->traceId}, {"spans", true}});
    auto spans = [&](int i, std::string_view) {
        if (i < 0) {
            r.skipValue();
            return;
        }
        t->spans.clear();
        span_why.clear();
        if (f.enter(r, i, util::JsonReader::Kind::Array))
            util::readElements(r, "spans", &span_why, [&](std::string *w) {
                readSpan(r, &t->spans.emplace_back(), w);
            });
    };
    if (f.read(r, why, spans) && !f.defect(why))
        *why = std::move(span_why);
}

} // namespace

Trace
traceFromText(std::string_view text, std::string *error)
{
    util::JsonReader r(text);
    Trace t;
    std::string why;
    readTrace(r, &t, &why);
    why = r.verdict(std::move(why));
    if (why.empty())
        return t;
    reject(why, error);
    return {};
}

std::vector<Trace>
tracesFromText(std::string_view text, std::string *error)
{
    util::JsonReader r(text);
    std::vector<Trace> out;
    std::string why;
    if (!r.enter(util::JsonReader::Kind::Array))
        why = "document: expected an array";
    else
        util::readElements(r, "", &why, [&](std::string *w) {
            readTrace(r, &out.emplace_back(), w);
        });
    why = r.verdict(std::move(why));
    if (why.empty())
        return out;
    reject(why, error);
    return {};
}

Trace
traceFromJson(const util::Json &doc, std::string *error)
{
    return traceFromText(doc.dump(), error);
}

std::vector<Trace>
tracesFromJson(const util::Json &doc, std::string *error)
{
    return tracesFromText(doc.dump(), error);
}

} // namespace sleuth::trace
