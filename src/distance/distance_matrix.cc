#include "distance_matrix.h"

#include <algorithm>
#include <cmath>

#include "util/simd.h"

namespace sleuth::distance {

namespace {

/**
 * Structure-of-arrays view of a batch of span sets: every set's keys as
 * storm-local dense ids (first-seen order), the weights concatenated
 * with per-set offsets, and the per-set total weight.
 *
 * The batch is *exact* when every weight is a non-negative integer and
 * every set's total is below 2^52 (production weights are span
 * durations). Then every intersection sum, total and pair union
 * (below 2^53) is exactly representable, so
 * |A u B| = totalA + totalB - |A n B| reproduces the per-pair merge of
 * jaccardDistance bit for bit, in any summation order. Other batches
 * (fractional weights from the generic makeSpanSet API, huge totals,
 * negative durations a collector accepted) take that merge itself.
 */
struct SpanSetIndex
{
    std::vector<uint32_t> ids;
    std::vector<double> weights;
    std::vector<size_t> offsets; // size n+1
    std::vector<double> totals;
    size_t vocab = 0;            // distinct keys
    bool exact = true;
};

/** Storm-local dense ids of span-set keys, in first-seen order. */
class DenseIds
{
  public:
    size_t size() const { return size_; }

    uint32_t
    operator()(uint64_t key)
    {
        if (2 * (size_ + 1) > slots_.size())
            rehash(slots_.empty() ? 256 : 2 * slots_.size());
        Slot *s = find(key);
        if (s->id == kNone)
            *s = {key, static_cast<uint32_t>(size_++)};
        return s->id;
    }

  private:
    static constexpr uint32_t kNone = UINT32_MAX;
    struct Slot
    {
        uint64_t key = 0;
        uint32_t id = kNone;
    };

    /** The key's slot, or the empty slot where it belongs. */
    Slot *
    find(uint64_t key)
    {
        const size_t mask = slots_.size() - 1;
        for (size_t h = (key * 0x9e3779b97f4a7c15ull) >> 32 & mask;;
             h = (h + 1) & mask)
            if (slots_[h].id == kNone || slots_[h].key == key)
                return &slots_[h];
    }

    void
    rehash(size_t capacity)
    {
        std::vector<Slot> old(capacity);
        old.swap(slots_);
        for (const Slot &s : old)
            if (s.id != kNone)
                *find(s.key) = s;
    }

    std::vector<Slot> slots_; // linear probing, a power of two
    size_t size_ = 0;
};

SpanSetIndex
buildIndex(const std::vector<WeightedSpanSet> &sets)
{
    constexpr double kTotalBound = 4503599627370496.0; // 2^52
    SpanSetIndex ix;
    size_t total_entries = 0;
    for (const WeightedSpanSet &s : sets)
        total_entries += s.size();
    ix.ids.reserve(total_entries);
    ix.weights.reserve(total_entries);
    ix.offsets.reserve(sets.size() + 1);
    ix.offsets.push_back(0);
    ix.totals.reserve(sets.size());
    DenseIds dense;
    for (const WeightedSpanSet &s : sets) {
        double tot = 0.0;
        for (const auto &[k, w] : s) {
            if (!(w >= 0.0 && std::floor(w) == w)) {
                ix.exact = false;
                return ix;
            }
            ix.ids.push_back(dense(k));
            ix.weights.push_back(w);
            tot += w;
        }
        if (!(tot < kTotalBound)) {
            ix.exact = false;
            return ix;
        }
        ix.totals.push_back(tot);
        ix.offsets.push_back(ix.ids.size());
    }
    ix.vocab = dense.size();
    return ix;
}

/**
 * Rows i0 .. i0+3 (those below n) of an exact batch. The block's sets
 * are scattered into `rows4` at id*4 + lane; one kernel pass over every
 * earlier set j then gathers j's keys once for all four intersections.
 * The gather for set i0+q also serves lanes r > q, so the pairs inside
 * the block come out of the same pass. `rows4` (4 * vocab doubles) is
 * all zero on entry and on return; `inter` holds 4 * n doubles.
 */
void
jaccardBlock(const SpanSetIndex &ix, size_t i0, double *rows4,
             double *inter, double *d)
{
    const size_t lanes = std::min<size_t>(4, ix.totals.size() - i0);
    for (size_t r = 0; r < lanes; ++r)
        for (size_t t = ix.offsets[i0 + r]; t < ix.offsets[i0 + r + 1]; ++t)
            rows4[size_t{ix.ids[t]} * 4 + r] = ix.weights[t];
    simd::gatherMinSums4(rows4, ix.ids.data(), ix.weights.data(),
                         ix.offsets.data(), i0 + lanes - 1, inter);
    for (size_t r = 0; r < lanes; ++r) {
        const size_t i = i0 + r;
        double *row = d + i * (i - 1) / 2;
        for (size_t j = 0; j < i; ++j) {
            const double in = inter[4 * j + r];
            const double uni = ix.totals[i] + ix.totals[j] - in;
            row[j] = uni <= 0.0 ? 0.0 : 1.0 - in / uni;
        }
    }
    for (size_t r = 0; r < lanes; ++r)
        for (size_t t = ix.offsets[i0 + r]; t < ix.offsets[i0 + r + 1]; ++t)
            rows4[size_t{ix.ids[t]} * 4 + r] = 0.0;
}

/** Legacy weighted-Jaccard row i (general weights). */
void
jaccardRow(const std::vector<WeightedSpanSet> &sets, size_t i,
           std::vector<double> &d)
{
    double *row = d.data() + i * (i - 1) / 2;
    for (size_t j = 0; j < i; ++j)
        row[j] = jaccardDistance(sets[i], sets[j]);
}

} // namespace

DistanceMatrix
DistanceMatrix::compute(size_t n,
                        const std::function<double(size_t, size_t)> &dist)
{
    DistanceMatrix m(n);
    for (size_t i = 1; i < n; ++i)
        for (size_t j = 0; j < i; ++j)
            m.d_[i * (i - 1) / 2 + j] = dist(i, j);
    return m;
}

DistanceMatrix
DistanceMatrix::fromSpanSets(const std::vector<WeightedSpanSet> &sets,
                             util::ThreadPool *pool)
{
    const size_t n = sets.size();
    DistanceMatrix m(n);
    if (n < 2)
        return m;
    const SpanSetIndex ix = buildIndex(sets);
    const size_t workers = pool != nullptr ? pool->size() : 1;
    // An exact batch runs blocks of four rows from row 1; any other
    // batch runs the legacy merge row by row.
    const size_t tasks = ix.exact ? (n + 2) / 4 : n - 1;
    std::vector<std::vector<double>> scratch(
        ix.exact ? workers : 0, std::vector<double>(4 * (ix.vocab + n)));
    auto task = [&](size_t t, size_t worker) {
        if (!ix.exact) {
            jaccardRow(sets, 1 + t, m.d_);
            return;
        }
        double *rows4 = scratch[worker].data();
        jaccardBlock(ix, 1 + 4 * t, rows4, rows4 + 4 * ix.vocab,
                     m.d_.data());
    };
    if (workers == 1) {
        for (size_t t = 0; t < tasks; ++t)
            task(t, 0);
        return m;
    }
    // Task t costs about t gathers or merges, so contiguous chunks
    // would load the last worker quadratically. Pair cheap and
    // expensive tasks (k <-> tasks-1-k) so every contiguous index chunk
    // carries ~equal work; each task writes disjoint packed rows, so
    // the matrix is identical for any thread count.
    pool->parallelFor(tasks, [&](size_t idx, size_t worker) {
        task(idx % 2 == 0 ? idx / 2 : tasks - 1 - idx / 2, worker);
    });
    return m;
}

} // namespace sleuth::distance
