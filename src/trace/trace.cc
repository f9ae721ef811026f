#include "trace.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "util/logging.h"

namespace sleuth::trace {

int64_t
Trace::rootDurationUs() const
{
    for (const Span &s : spans)
        if (s.parentSpanId.empty())
            return s.durationUs();
    return 0;
}

int64_t
Trace::rootStartUs() const
{
    for (const Span &s : spans)
        if (s.parentSpanId.empty())
            return s.startUs;
    return 0;
}

bool
Trace::hasError() const
{
    return std::any_of(spans.begin(), spans.end(),
                       [](const Span &s) { return s.hasError(); });
}

bool
TraceGraph::tryBuild(const Trace &trace, TraceGraph *out, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    const size_t n = trace.spans.size();
    if (n == 0)
        return fail("trace has no spans");

    std::unordered_map<std::string, int> index;
    index.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const Span &s = trace.spans[i];
        if (s.spanId.empty())
            return fail("span with empty spanId");
        if (!index.emplace(s.spanId, static_cast<int>(i)).second)
            return fail("duplicate spanId '" + s.spanId + "'");
    }

    TraceGraph g;
    g.parent_.assign(n, -1);
    g.children_.assign(n, {});
    g.depth_.assign(n, 0);
    g.root_ = -1;
    for (size_t i = 0; i < n; ++i) {
        const Span &s = trace.spans[i];
        if (s.parentSpanId.empty()) {
            if (g.root_ >= 0)
                return fail("multiple root spans");
            g.root_ = static_cast<int>(i);
            continue;
        }
        auto it = index.find(s.parentSpanId);
        if (it == index.end())
            return fail("unresolved parentSpanId '" + s.parentSpanId + "'");
        if (it->second == static_cast<int>(i))
            return fail("span '" + s.spanId + "' is its own parent");
        g.parent_[i] = it->second;
        g.children_[static_cast<size_t>(it->second)].push_back(
            static_cast<int>(i));
    }
    if (g.root_ < 0)
        return fail("no root span");

    // Breadth-first walk from the root assigns depths and detects spans
    // disconnected from the root (which also covers parent cycles).
    std::vector<int> order;
    order.reserve(n);
    order.push_back(g.root_);
    g.depth_[static_cast<size_t>(g.root_)] = 1;
    for (size_t head = 0; head < order.size(); ++head) {
        int u = order[head];
        for (int v : g.children_[static_cast<size_t>(u)]) {
            g.depth_[static_cast<size_t>(v)] =
                g.depth_[static_cast<size_t>(u)] + 1;
            order.push_back(v);
        }
    }
    if (order.size() != n)
        return fail("spans unreachable from the root (cycle or orphan)");

    // Reversed BFS order places children before parents.
    g.bottom_up_.assign(order.rbegin(), order.rend());
    *out = std::move(g);
    if (error)
        error->clear();
    return true;
}

TraceGraph
TraceGraph::build(const Trace &trace)
{
    TraceGraph g;
    std::string error;
    if (!tryBuild(trace, &g, &error))
        util::fatal("malformed trace '", trace.traceId, "': ", error);
    return g;
}

int
TraceGraph::maxDepth() const
{
    int best = 0;
    for (int d : depth_)
        best = std::max(best, d);
    return best;
}

int
TraceGraph::maxOutDegree() const
{
    size_t best = 0;
    for (const auto &c : children_)
        best = std::max(best, c.size());
    return static_cast<int>(best);
}

ExclusiveMetrics
computeExclusive(const Trace &trace, const TraceGraph &graph)
{
    const size_t n = trace.spans.size();
    ExclusiveMetrics m;
    m.exclusiveUs.assign(n, 0);
    m.exclusiveError.assign(n, false);

    for (size_t i = 0; i < n; ++i) {
        const Span &s = trace.spans[i];
        const auto &kids = graph.children(static_cast<int>(i));

        // Exclusive duration: span interval minus the union of child
        // intervals (children clipped to the span's own interval).
        std::vector<std::pair<int64_t, int64_t>> ivs;
        ivs.reserve(kids.size());
        for (int c : kids) {
            const Span &k = trace.spans[static_cast<size_t>(c)];
            int64_t lo = std::max(k.startUs, s.startUs);
            int64_t hi = std::min(k.endUs, s.endUs);
            if (lo < hi)
                ivs.emplace_back(lo, hi);
        }
        std::sort(ivs.begin(), ivs.end());
        int64_t covered = 0;
        int64_t cursor = s.startUs;
        for (const auto &[lo, hi] : ivs) {
            int64_t from = std::max(lo, cursor);
            if (hi > from) {
                covered += hi - from;
                cursor = hi;
            }
        }
        m.exclusiveUs[i] = std::max<int64_t>(0, s.durationUs() - covered);

        // Exclusive error: the span errors while none of its children do.
        if (s.hasError()) {
            bool child_error = false;
            for (int c : kids)
                child_error |=
                    trace.spans[static_cast<size_t>(c)].hasError();
            m.exclusiveError[i] = !child_error;
        }
    }
    return m;
}

CorpusStats
summarize(const std::vector<Trace> &traces)
{
    CorpusStats st;
    std::set<std::string> services;
    std::set<std::pair<std::string, std::string>> operations;
    for (const Trace &t : traces) {
        TraceGraph g = TraceGraph::build(t);
        st.maxSpans = std::max(st.maxSpans, t.spans.size());
        st.maxDepth = std::max(st.maxDepth, g.maxDepth());
        st.maxOutDegree = std::max(st.maxOutDegree, g.maxOutDegree());
        for (const Span &s : t.spans) {
            services.insert(s.service);
            operations.emplace(s.service, s.name);
        }
    }
    st.services = services.size();
    st.operations = operations.size();
    return st;
}

} // namespace sleuth::trace
