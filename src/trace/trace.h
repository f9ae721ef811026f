#pragma once

/**
 * @file
 * Traces, the reconstructed RPC dependency graph, and the exclusive
 * duration / exclusive error computation of paper §3.2.2.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/span.h"

namespace sleuth::trace {

/** A distributed trace: the spans of one end-to-end request. */
struct Trace
{
    /** Unique trace ID. */
    std::string traceId;
    /** All spans, in arbitrary order. */
    std::vector<Span> spans;

    /** End-to-end duration: the root span's duration (0 when empty). */
    int64_t rootDurationUs() const;

    /** The root span's start time (0 when there is no root). */
    int64_t rootStartUs() const;

    /** True when any span carries an error status. */
    bool hasError() const;
};

/**
 * The RPC dependency graph of one trace, reconstructed from parent span
 * IDs. Indices refer into Trace::spans.
 */
class TraceGraph
{
  public:
    /**
     * Build the graph for a trace.
     *
     * Validates that the trace has exactly one root, that every
     * parentSpanId resolves, that span IDs are unique, and that the
     * parent relation is acyclic. fatal() on malformed input.
     */
    static TraceGraph build(const Trace &trace);

    /**
     * As build(), but returns false instead of dying on malformed input.
     *
     * @param error receives a description of the first defect
     */
    static bool tryBuild(const Trace &trace, TraceGraph *out,
                         std::string *error);

    /** Number of spans. */
    size_t size() const { return parent_.size(); }

    /** Index of the root span. */
    int root() const { return root_; }

    /** Parent index of a span; -1 for the root. */
    int parent(int i) const { return parent_[static_cast<size_t>(i)]; }

    /** Children indices of a span, in ascending span index. */
    std::span<const int>
    children(int i) const
    {
        size_t begin = child_begin_[static_cast<size_t>(i)];
        size_t end = child_begin_[static_cast<size_t>(i) + 1];
        return {child_list_.data() + begin, end - begin};
    }

    /**
     * Indices ordered bottom-up: every span appears after all of its
     * children. The natural order for propagating predictions from leaf
     * spans toward the root.
     */
    const std::vector<int> &bottomUpOrder() const { return bottom_up_; }

    /** Depth of a span (root depth is 1). */
    int depth(int i) const { return depth_[static_cast<size_t>(i)]; }

    /** Maximum depth over all spans. */
    int maxDepth() const;

    /** Maximum number of children of any span. */
    int maxOutDegree() const;

  private:
    std::vector<int> parent_;
    /**
     * Children in one array: span i's children are
     * child_list_[child_begin_[i], child_begin_[i + 1]).
     */
    std::vector<int> child_begin_;
    std::vector<int> child_list_;
    std::vector<int> bottom_up_;
    std::vector<int> depth_;
    int root_ = -1;
};

/** Per-span exclusive metrics (paper §3.2.2). */
struct ExclusiveMetrics
{
    /**
     * Exclusive duration per span: the total time during which the span
     * does not overlap any of its child spans.
     */
    std::vector<int64_t> exclusiveUs;
    /**
     * Exclusive error per span: the span has an error of its own rather
     * than one inherited from a child (i.e. it errors while no child
     * does).
     */
    std::vector<bool> exclusiveError;
};

/**
 * Compute exclusive durations and exclusive errors for every span.
 *
 * Child intervals are clipped to the parent interval before the overlap
 * union is subtracted, so malformed timestamps cannot produce negative
 * exclusive durations.
 */
ExclusiveMetrics computeExclusive(const Trace &trace,
                                  const TraceGraph &graph);

/** Summary statistics of a trace corpus (used for Table 1). */
struct CorpusStats
{
    size_t services = 0;     ///< number of distinct services
    size_t operations = 0;   ///< number of distinct (service, name) pairs
    size_t maxSpans = 0;     ///< spans in the largest trace
    int maxDepth = 0;        ///< deepest call path
    int maxOutDegree = 0;    ///< widest fanout of a single span
};

/** Scan a corpus of traces and summarize its shape. */
CorpusStats summarize(const std::vector<Trace> &traces);

} // namespace sleuth::trace
