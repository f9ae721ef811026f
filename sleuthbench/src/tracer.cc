#include "tracer.h"

#include <cstdio>
#include <fstream>

#include "trace/trace_json.h"

namespace sleuthbench {

void
Tracer::beginTrace(std::string id)
{
    if (enabled_)
        traceIds_.push_back(std::move(id));
}

int64_t
Tracer::nsOf(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
}

Tracer::Span::Span(Tracer &tracer, const char *module, const char *op)
    : tracer_(tracer)
{
    if (tracer_.enabled_) {
        Rec r;
        r.trace = tracer_.traceIds_.empty()
                      ? 0
                      : static_cast<uint32_t>(tracer_.traceIds_.size() - 1);
        r.parent = tracer_.stack_.empty()
                       ? -1
                       : static_cast<int64_t>(tracer_.stack_.back());
        r.module = module;
        r.op = op;
        index_ = tracer_.spans_.size();
        tracer_.spans_.push_back(r);
        tracer_.stack_.push_back(index_);
    }
    start_ = Clock::now();
}

Tracer::Span::~Span()
{
    if (open_)
        end();
}

double
Tracer::Span::end()
{
    Clock::time_point now = Clock::now();
    if (open_) {
        open_ = false;
        if (tracer_.enabled_) {
            Rec &r = tracer_.spans_[index_];
            r.startNs = tracer_.nsOf(start_);
            r.endNs = tracer_.nsOf(now);
            tracer_.stack_.pop_back();
        }
    }
    return msBetween(start_, now);
}

double
Tracer::totalMs(const std::string &module, const std::string &op) const
{
    int64_t ns = 0;
    for (const Rec &r : spans_)
        if (module == r.module && op == r.op)
            ns += r.endNs - r.startNs;
    return static_cast<double>(ns) / 1e6;
}

std::map<std::string, double>
Tracer::selfTimeByModule() const
{
    // Children run on the same thread strictly inside their parent, so
    // the part of the parent they cover is the sum of their durations.
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endNs - spans_[i].startNs;
    for (const Rec &r : spans_)
        if (r.parent >= 0)
            self[static_cast<size_t>(r.parent)] -= r.endNs - r.startNs;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].module] += static_cast<double>(self[i]) / 1e6;
    return out;
}

void
Tracer::printSelfTimes() const
{
    std::map<std::string, double> self = selfTimeByModule();
    double total = 0.0;
    for (const auto &[module, ms] : self)
        total += ms;
    std::printf("self time by layer (%zu spans):\n", spans_.size());
    for (const auto &[module, ms] : self)
        std::printf("  %-12s %12.3f ms  %5.1f%%\n", module.c_str(), ms,
                    total > 0.0 ? 100.0 * ms / total : 0.0);
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::vector<sleuth::trace::Trace> traces(traceIds_.size());
    for (size_t t = 0; t < traceIds_.size(); ++t)
        traces[t].traceId = traceIds_[t];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Rec &r = spans_[i];
        if (r.trace >= traces.size())
            continue;
        sleuth::trace::Span s;
        s.spanId = std::to_string(i);
        if (r.parent >= 0)
            s.parentSpanId = std::to_string(r.parent);
        s.service = r.module;
        s.name = r.op;
        s.kind = s.parentSpanId.empty() ? sleuth::trace::SpanKind::Server
                                        : sleuth::trace::SpanKind::Local;
        s.startUs = r.startNs / 1000;
        s.endUs = r.endNs / 1000;
        s.status = sleuth::trace::StatusCode::Ok;
        traces[r.trace].spans.push_back(std::move(s));
    }
    std::ofstream out(path);
    out << sleuth::trace::toJson(traces).dump() << "\n";
    return static_cast<bool>(out);
}

} // namespace sleuthbench
