#pragma once

/**
 * @file
 * The Sleuth trace distance metric (paper §3.3.1, Eq. 1).
 *
 * A trace is encoded as a weighted set of span identifiers, where an
 * identifier is the tuple (service, name, kind, error status, names of
 * all ancestors within distance d_max) and the weight is the span
 * duration; spans sharing an identifier merge with summed weights. The
 * distance between two traces is the extended (weighted) Jaccard
 * distance between their sets.
 *
 * The set is stored as a vector of (identifier, weight) pairs sorted by
 * identifier, so jaccardDistance is a linear two-pointer merge over two
 * contiguous arrays — cache-friendly and allocation-free, which matters
 * on the O(n²) pairwise path of storm clustering.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "trace/trace.h"

namespace sleuth::distance {

/**
 * A trace encoded as a weighted set keyed by hashed span identifier:
 * (identifier, weight) pairs sorted ascending by identifier, keys
 * unique. Build with encodeSpanSet() or makeSpanSet().
 */
using WeightedSpanSet = std::vector<std::pair<uint64_t, double>>;

/** Options controlling span-identifier construction. */
struct SpanSetOptions
{
    /** Ancestors included in the identifier's calling-path component. */
    int maxAncestorDistance = 2;
    /** Include the span's error status in the identifier. */
    bool includeErrorStatus = true;
};

/**
 * Normalize raw (identifier, weight) entries into a WeightedSpanSet:
 * sorts by identifier and merges duplicate keys with summed weights.
 */
WeightedSpanSet makeSpanSet(
    std::vector<std::pair<uint64_t, double>> entries);

/**
 * The identifier key of every span, in span order: a 64-bit hash of
 * the span's identifier tuple. Each span's (service, name) is hashed
 * once, then mixed with its kind, its error flag (when included) and
 * the (service, name) hashes of its ancestors within
 * maxAncestorDistance. Only which spans share a key is meaningful
 * (up to 64-bit collisions, exactly the spans with equal tuples);
 * weighted Jaccard reads nothing else of the key values.
 *
 * @param graph the trace's dependency graph (from TraceGraph::build)
 */
std::vector<uint64_t> spanKeys(const trace::Trace &trace,
                               const trace::TraceGraph &graph,
                               const SpanSetOptions &opts = {});

/**
 * Encode a trace as a weighted span set: each span's spanKeys() key
 * weighted by its duration.
 *
 * @param trace the trace
 * @param graph its dependency graph (from TraceGraph::build)
 * @param opts identifier construction options
 */
WeightedSpanSet encodeSpanSet(const trace::Trace &trace,
                              const trace::TraceGraph &graph,
                              const SpanSetOptions &opts = {});

/**
 * Extended Jaccard distance between two weighted sets, normalized to
 * [0, 1]: 1 - sum(min w)/sum(max w) over the union of identifiers.
 * Two empty sets have distance 0.
 */
double jaccardDistance(const WeightedSpanSet &a, const WeightedSpanSet &b);

/** Convenience: encode both traces and return their distance. */
double traceDistance(const trace::Trace &a, const trace::Trace &b,
                     const SpanSetOptions &opts = {});

} // namespace sleuth::distance
