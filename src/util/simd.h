#pragma once

/**
 * @file
 * Runtime-dispatched SIMD kernels for the pipeline hot loops.
 *
 * Every kernel here exists in two implementations: a scalar mirror and
 * an AVX2 body compiled with a function-level target attribute (so the
 * rest of the tree still builds for baseline x86-64). The dispatcher
 * picks AVX2 exactly once at startup when the kernels were compiled in
 * (-DSLEUTH_SIMD=ON, the default) and the CPU reports AVX2; a runtime
 * kill switch (forceScalar) lets tests and the campaign
 * online-differential invariant pin the scalar path without a rebuild.
 *
 * Determinism contract: for each kernel the scalar mirror performs the
 * same IEEE-754 operations in the same order as the AVX2 body's lane
 * structure (no FMA, no reassociated reductions beyond the documented
 * 4-lane split), so scalar and AVX2 results are bitwise identical for
 * all finite inputs. DistanceMatrix, which must stay bitwise-equal to
 * the per-pair jaccardDistance merge, takes the union from the identity
 * |A u B| = |A| + |B| - |A n B| around gatherMinSums4, and so calls it
 * only on batches where every sum is exact (non-negative integer
 * weights, set totals below 2^52); see distance/distance_matrix.cc.
 */

#include <cstddef>
#include <cstdint>

namespace sleuth::simd {

/** True when the AVX2 kernel bodies were compiled in (-DSLEUTH_SIMD=ON). */
bool compiledAvx2();

/** True when the running CPU supports AVX2 (independent of the build). */
bool cpuAvx2();

/** True when dispatch currently selects the AVX2 bodies. */
bool active();

/**
 * Force the scalar mirrors regardless of CPU/build support. Used by the
 * SIMD equivalence tests and the campaign SIMD-off differential leg;
 * not intended to be toggled while kernels run on other threads.
 */
void forceScalar(bool on);

/** "avx2" or "scalar" — whatever dispatch currently selects. */
const char *activeIsaName();

/** RAII guard that forces the scalar mirrors for its lifetime. */
class ScopedForceScalar
{
  public:
    ScopedForceScalar() { forceScalar(true); }
    ~ScopedForceScalar() { forceScalar(false); }
    ScopedForceScalar(const ScopedForceScalar &) = delete;
    ScopedForceScalar &operator=(const ScopedForceScalar &) = delete;
};

/*
 * Kernels. Each dispatches internally; the scalar:: and avx2::
 * namespaces expose both implementations directly for the equivalence
 * suite (when the AVX2 bodies are compiled out, the avx2:: symbols
 * forward to the scalar mirrors so links never break).
 */

/** y[i] += a * x[i]. Elementwise: bitwise-stable under any dispatch. */
void axpy(double *y, double a, const double *x, size_t n);

/**
 * One row of a matrix product: out[j] += a[t] * b[t*n + j] for t in
 * ascending order, skipping every t with a[t] == 0.0 (that skip decides
 * signed zeros and inf/NaN propagation). Each output element sees the
 * same mul-then-add sequence as one axpy per nonzero a[t], so the result
 * is bitwise-equal to that loop; the AVX2 body keeps 16-column blocks of
 * `out` in registers across the whole t loop.
 */
void matmulRow(double *out, const double *a, size_t k, const double *b,
               size_t n);

/** acc[i] += x[i]. Elementwise. */
void add(double *acc, const double *x, size_t n);

/** x[i] *= s. Elementwise. */
void scale(double *x, double s, size_t n);

/** x[i] /= s. Elementwise (exact IEEE division per element). */
void div(double *x, double s, size_t n);

/**
 * Dot product with the documented 4-lane accumulation order:
 * lane l sums a[4k+l]*b[4k+l], the return value is
 * ((l0+l1)+(l2+l3)) + sequential-tail. NOT bitwise-equal to a plain
 * sequential dot; used where no legacy order is pinned (cosine).
 */
double dotBlocked(const double *a, const double *b, size_t n);

/**
 * Four independent sequential dot products sharing one pass over `a`:
 * out[l] = sum_t a[t]*bl[t] with strictly ascending t per output.
 * Bitwise-equal to four separate naive dots (matmulTransposedB).
 */
void dotRows4(const double *a, const double *b0, const double *b1,
              const double *b2, const double *b3, size_t n,
              double out[4]);

/**
 * Weighted-Jaccard intersections of four sets against a run of sets,
 * in one pass over the run. The four sets are scattered by dense key
 * id: rows4[id*4 + r] is set r's weight for key id, 0 where set r
 * lacks it. Set j of the run holds the ids ids[offsets[j] ..
 * offsets[j+1]) with weights w[...]. For every j < nsets and lane r:
 *   out[j*4 + r] = sum_t min(rows4[ids[t]*4 + r], w[t])
 * over ascending t, one sequential accumulator per lane, min as
 * (x<y)?x:y (MINPD semantics: the run's weight wins ties). The AVX2
 * body loads the four lanes of a key with one 32-byte load and walks
 * two sets of the run at a time.
 */
void gatherMinSums4(const double *rows4, const uint32_t *ids,
                    const double *w, const size_t *offsets, size_t nsets,
                    double *out);

namespace scalar {
void axpy(double *y, double a, const double *x, size_t n);
void matmulRow(double *out, const double *a, size_t k, const double *b,
               size_t n);
void add(double *acc, const double *x, size_t n);
void scale(double *x, double s, size_t n);
void div(double *x, double s, size_t n);
double dotBlocked(const double *a, const double *b, size_t n);
void dotRows4(const double *a, const double *b0, const double *b1,
              const double *b2, const double *b3, size_t n,
              double out[4]);
void gatherMinSums4(const double *rows4, const uint32_t *ids,
                    const double *w, const size_t *offsets, size_t nsets,
                    double *out);
} // namespace scalar

namespace avx2 {
void axpy(double *y, double a, const double *x, size_t n);
void matmulRow(double *out, const double *a, size_t k, const double *b,
               size_t n);
void add(double *acc, const double *x, size_t n);
void scale(double *x, double s, size_t n);
void div(double *x, double s, size_t n);
double dotBlocked(const double *a, const double *b, size_t n);
void dotRows4(const double *a, const double *b0, const double *b1,
              const double *b2, const double *b3, size_t n,
              double out[4]);
void gatherMinSums4(const double *rows4, const uint32_t *ids,
                    const double *w, const size_t *offsets, size_t nsets,
                    double *out);
} // namespace avx2

} // namespace sleuth::simd
