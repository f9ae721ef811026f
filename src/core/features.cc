#include "features.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace sleuth::core {

double
DurationScale::scaleUs(double us) const
{
    return (std::log10(std::max(us, 1.0)) - mu) / sigma;
}

double
DurationScale::unscale(double scaled) const
{
    return std::pow(10.0, sigma * scaled + mu);
}

std::string
NormalProfile::key(const std::string &service, const std::string &name,
                   trace::SpanKind kind)
{
    return service + "\x1f" + name + "\x1f" + toString(kind);
}

void
NormalProfile::add(const trace::Trace &trace)
{
    SLEUTH_ASSERT(!finalized_, "profile already finalized");
    trace::TraceGraph graph = trace::TraceGraph::build(trace);
    trace::ExclusiveMetrics m = trace::computeExclusive(trace, graph);
    for (size_t i = 0; i < trace.spans.size(); ++i) {
        const trace::Span &s = trace.spans[i];
        OpStats &st = stats_[key(s.service, s.name, s.kind)];
        st.exclusive.push_back(static_cast<double>(m.exclusiveUs[i]));
        st.duration.push_back(static_cast<double>(s.durationUs()));
    }
}

void
NormalProfile::finalize()
{
    SLEUTH_ASSERT(!finalized_, "profile already finalized");
    std::vector<double> all_excl, all_dur;
    for (auto &[k, st] : stats_) {
        (void)k;
        st.medianExclusive = util::median(st.exclusive);
        st.medianDuration = util::median(st.duration);
        all_excl.push_back(st.medianExclusive);
        all_dur.push_back(st.medianDuration);
        st.exclusive.clear();
        st.exclusive.shrink_to_fit();
        st.duration.clear();
        st.duration.shrink_to_fit();
    }
    if (!all_excl.empty()) {
        global_exclusive_ = util::median(all_excl);
        global_duration_ = util::median(all_dur);
    }
    finalized_ = true;
}

namespace {

/** Compose the lookup key into a reused per-thread buffer: these
    lookups run once per span in the RCA hot loop, where a
    fresh std::string per call is measurable. */
std::string_view
keyView(const std::string &service, const std::string &name,
        trace::SpanKind kind)
{
    thread_local std::string buf;
    buf.assign(service);
    buf += '\x1f';
    buf += name;
    buf += '\x1f';
    buf += toString(kind);
    return buf;
}

} // namespace

double
NormalProfile::medianExclusiveUs(const std::string &service,
                                 const std::string &name,
                                 trace::SpanKind kind) const
{
    SLEUTH_ASSERT(finalized_, "profile not finalized");
    auto it = stats_.find(keyView(service, name, kind));
    return it == stats_.end() ? global_exclusive_
                              : it->second.medianExclusive;
}

double
NormalProfile::medianDurationUs(const std::string &service,
                                const std::string &name,
                                trace::SpanKind kind) const
{
    SLEUTH_ASSERT(finalized_, "profile not finalized");
    auto it = stats_.find(keyView(service, name, kind));
    return it == stats_.end() ? global_duration_
                              : it->second.medianDuration;
}

FeatureEncoder::FeatureEncoder(size_t embed_dim, DurationScale scale)
    : embedder_(embed_dim), scale_(scale)
{
}

TraceBatch
FeatureEncoder::encode(const std::vector<const trace::Trace *> &traces)
{
    size_t total = 0;
    for (const trace::Trace *t : traces)
        total += t->spans.size();

    TraceBatch batch;
    batch.numNodes = total;
    const size_t dim = featureDim();
    const size_t ecols = embedder_.dim();
    batch.x = nn::Tensor(total, dim);
    batch.xExcl = nn::Tensor(total, dim);

    size_t base = 0;
    for (const trace::Trace *t : traces) {
        trace::TraceGraph graph = trace::TraceGraph::build(*t);
        trace::ExclusiveMetrics m = trace::computeExclusive(*t, graph);
        batch.traceOffset.push_back(base);
        batch.traceRoot.push_back(base +
                                  static_cast<size_t>(graph.root()));
        for (size_t i = 0; i < t->spans.size(); ++i) {
            const trace::Span &s = t->spans[i];
            size_t row = base + i;
            // Semantic embedding of service + operation + kind, cached
            // per distinct string (paper's pointer optimization).
            const std::vector<double> &emb = embedder_.embed(
                s.service + " " + s.name + " " + toString(s.kind));
            // Contiguous row copies instead of per-element at(): the
            // embedding block dominates the feature row.
            double *xrow = batch.x.data().data() + row * dim;
            double *erow = batch.xExcl.data().data() + row * dim;
            std::copy(emb.begin(), emb.begin() + ecols, xrow);
            std::copy(emb.begin(), emb.begin() + ecols, erow);
            batch.x.at(row, ecols) = scale_.scaleUs(
                static_cast<double>(s.durationUs()));
            batch.x.at(row, ecols + 1) = s.hasError() ? 1.0 : 0.0;
            batch.xExcl.at(row, ecols) = scale_.scaleUs(
                static_cast<double>(m.exclusiveUs[i]));
            batch.xExcl.at(row, ecols + 1) =
                m.exclusiveError[i] ? 1.0 : 0.0;

            int p = graph.parent(static_cast<int>(i));
            if (p >= 0) {
                batch.edgeChild.push_back(row);
                batch.edgeParent.push_back(base +
                                           static_cast<size_t>(p));
            }
        }
        base += t->spans.size();
    }
    return batch;
}

TraceBatch
FeatureEncoder::encode(const trace::Trace &trace)
{
    return encode(std::vector<const trace::Trace *>{&trace});
}

} // namespace sleuth::core
