#include "trace_distance.h"

#include <algorithm>
#include <string>

namespace sleuth::distance {

namespace {

/** FNV-1a of a span's (service, name), one separator after each. */
uint64_t
pairHash(const trace::Span &s)
{
    uint64_t h = 1469598103934665603ull;
    for (const std::string *field : {&s.service, &s.name}) {
        for (char c : *field) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
        h ^= 0x1f; // field separator so ("ab","c") != ("a","bc")
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * One chaining step of a span-set key: splitmix64's finalizer over
 * h·φ + v, so every input bit reaches every output bit and the step
 * is not symmetric in (h, v).
 */
uint64_t
mixStep(uint64_t h, uint64_t v)
{
    uint64_t z = h * 0x9e3779b97f4a7c15ull + v;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

WeightedSpanSet
makeSpanSet(std::vector<std::pair<uint64_t, double>> entries)
{
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
        return a.first < b.first;
    });
    // Merge duplicate identifiers in place with summed weights.
    size_t w = 0;
    for (size_t r = 0; r < entries.size(); ++r) {
        if (w > 0 && entries[w - 1].first == entries[r].first)
            entries[w - 1].second += entries[r].second;
        else
            entries[w++] = entries[r];
    }
    entries.resize(w);
    return entries;
}

std::vector<uint64_t>
spanKeys(const trace::Trace &trace, const trace::TraceGraph &graph,
         const SpanSetOptions &opts)
{
    // Each span's names are hashed once. Its key then mixes that hash
    // with its kind and error flag, and with the hashes of its
    // ancestors within maxAncestorDistance (the calling path).
    std::vector<uint64_t> key(trace.spans.size());
    for (size_t i = 0; i < key.size(); ++i)
        key[i] = pairHash(trace.spans[i]);
    // Bottom-up order reaches a span after all of its descendants, so
    // its ancestors' slots still hold their name hashes when the span's
    // key overwrites its own.
    for (int i : graph.bottomUpOrder()) {
        const trace::Span &s = trace.spans[static_cast<size_t>(i)];
        uint64_t role = static_cast<uint64_t>(s.kind) << 2;
        if (opts.includeErrorStatus)
            role |= s.hasError() ? 3 : 2;
        uint64_t h = mixStep(key[static_cast<size_t>(i)], role);
        int up = 0;
        for (int a = graph.parent(i);
             a >= 0 && up < opts.maxAncestorDistance;
             a = graph.parent(a), ++up)
            h = mixStep(h, key[static_cast<size_t>(a)]);
        key[static_cast<size_t>(i)] = h;
    }
    return key;
}

WeightedSpanSet
encodeSpanSet(const trace::Trace &trace, const trace::TraceGraph &graph,
              const SpanSetOptions &opts)
{
    std::vector<uint64_t> key = spanKeys(trace, graph, opts);
    std::vector<std::pair<uint64_t, double>> entries;
    entries.reserve(key.size());
    for (size_t i = 0; i < key.size(); ++i)
        entries.emplace_back(key[i],
                             static_cast<double>(trace.spans[i].durationUs()));
    return makeSpanSet(std::move(entries));
}

double
jaccardDistance(const WeightedSpanSet &a, const WeightedSpanSet &b)
{
    // |A ∩ B| = Σ min(w_a, w_b); |A ∪ B| = Σ max(w_a, w_b), with missing
    // identifiers treated as weight 0. Both sets are sorted by
    // identifier, so one two-pointer merge covers the union.
    double inter = 0.0;
    double uni = 0.0;
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i].first < b[j].first) {
            uni += a[i].second;
            ++i;
        } else if (b[j].first < a[i].first) {
            uni += b[j].second;
            ++j;
        } else {
            inter += std::min(a[i].second, b[j].second);
            uni += std::max(a[i].second, b[j].second);
            ++i;
            ++j;
        }
    }
    for (; i < a.size(); ++i)
        uni += a[i].second;
    for (; j < b.size(); ++j)
        uni += b[j].second;
    if (uni <= 0.0)
        return 0.0;
    return 1.0 - inter / uni;
}

double
traceDistance(const trace::Trace &a, const trace::Trace &b,
              const SpanSetOptions &opts)
{
    trace::TraceGraph ga = trace::TraceGraph::build(a);
    trace::TraceGraph gb = trace::TraceGraph::build(b);
    return jaccardDistance(encodeSpanSet(a, ga, opts),
                           encodeSpanSet(b, gb, opts));
}

} // namespace sleuth::distance
