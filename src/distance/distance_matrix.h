#pragma once

/**
 * @file
 * Memoized pairwise distance matrix for storm-scale clustering.
 *
 * The storm pipeline needs the same trace-pair distances in four
 * places: core-distance estimation, the mutual-reachability MST,
 * representative selection, and the far-member guard. Evaluating a
 * distance oracle through a type-erased std::function at each site
 * recomputes identical weighted-Jaccard pairs many times over. A
 * DistanceMatrix is computed exactly once per batch — n(n-1)/2
 * evaluations, no more — and every consumer reads the packed
 * lower-triangular array directly.
 */

#include <cstddef>
#include <functional>
#include <vector>

#include "distance/trace_distance.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sleuth::distance {

/** Symmetric pairwise distances, packed lower-triangular storage. */
class DistanceMatrix
{
  public:
    /** Empty matrix over zero items. */
    DistanceMatrix() = default;

    /** Zero-filled matrix over n items. */
    explicit DistanceMatrix(size_t n)
        : n_(n), d_(n < 2 ? 0 : n * (n - 1) / 2, 0.0)
    {
    }

    /**
     * Materialize a matrix from a distance oracle, invoking it exactly
     * n(n-1)/2 times (each unordered pair once, never the diagonal).
     */
    static DistanceMatrix compute(
        size_t n, const std::function<double(size_t, size_t)> &dist);

    /**
     * Pairwise weighted-Jaccard distances over pre-encoded span sets —
     * the default storm-batch path, bitwise equal to jaccardDistance on
     * every pair. When every weight is a non-negative integer and every
     * set's total is below 2^52, rows go in blocks of four: the block's
     * sets are scattered by storm-local key id, and one gather pass over
     * each earlier set yields all four intersections
     * (simd::gatherMinSums4). Other batches take jaccardDistance per
     * pair.
     *
     * @param pool optional worker pool; blocks (or rows) are computed in
     *        parallel, each writing disjoint packed rows (row i holds
     *        i(i-1)/2 .. i(i+1)/2), so the result is identical for any
     *        thread count. nullptr = serial.
     */
    static DistanceMatrix fromSpanSets(
        const std::vector<WeightedSpanSet> &sets,
        util::ThreadPool *pool = nullptr);

    /** Item count. */
    size_t size() const { return n_; }

    /** Distance between items i and j (0 on the diagonal). */
    double
    at(size_t i, size_t j) const
    {
        SLEUTH_ASSERT(i < n_ && j < n_, "distance matrix index");
        if (i == j)
            return 0.0;
        return d_[pack(i, j)];
    }

    /** Set the distance between two distinct items. */
    void
    set(size_t i, size_t j, double v)
    {
        SLEUTH_ASSERT(i < n_ && j < n_ && i != j,
                      "distance matrix set index");
        d_[pack(i, j)] = v;
    }

    /** Packed storage (row i > j holds i(i-1)/2 + j), for bulk reads. */
    const std::vector<double> &packed() const { return d_; }

  private:
    static size_t
    pack(size_t i, size_t j)
    {
        if (i < j)
            std::swap(i, j);
        return i * (i - 1) / 2 + j;
    }

    size_t n_ = 0;
    std::vector<double> d_;
};

} // namespace sleuth::distance
