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
 * all finite inputs. Callers that must stay bitwise-equal to *legacy*
 * single-accumulator loops (DistanceMatrix) only use the reassociating
 * kernels on inputs where every partial sum is exactly representable
 * (integer-valued weights below 2^53); see distance/trace_distance.cc.
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
 * Sum of min(wa, wb) over the intersection of two strictly-ascending
 * unique key arrays (the weighted-Jaccard numerator). Accumulation
 * order: 4-key equal blocks add lanewise into four accumulators,
 * unpaired singles into a fifth; result is
 * ((l0+l1)+(l2+l3)) + singles. min is (a<b)?a:b (MINPD semantics).
 */
double sortedIntersectMinSum(const uint64_t *ka, const double *wa,
                             size_t na, const uint64_t *kb,
                             const double *wb, size_t nb);

namespace scalar {
void axpy(double *y, double a, const double *x, size_t n);
void add(double *acc, const double *x, size_t n);
void scale(double *x, double s, size_t n);
void div(double *x, double s, size_t n);
double dotBlocked(const double *a, const double *b, size_t n);
void dotRows4(const double *a, const double *b0, const double *b1,
              const double *b2, const double *b3, size_t n,
              double out[4]);
double sortedIntersectMinSum(const uint64_t *ka, const double *wa,
                             size_t na, const uint64_t *kb,
                             const double *wb, size_t nb);
} // namespace scalar

namespace avx2 {
void axpy(double *y, double a, const double *x, size_t n);
void add(double *acc, const double *x, size_t n);
void scale(double *x, double s, size_t n);
void div(double *x, double s, size_t n);
double dotBlocked(const double *a, const double *b, size_t n);
void dotRows4(const double *a, const double *b0, const double *b1,
              const double *b2, const double *b3, size_t n,
              double out[4]);
double sortedIntersectMinSum(const uint64_t *ka, const double *wa,
                             size_t na, const uint64_t *kb,
                             const double *wb, size_t nb);
} // namespace avx2

} // namespace sleuth::simd
