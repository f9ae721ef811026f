#include "simd.h"

#include <atomic>

#if defined(SLEUTH_SIMD_AVX2) && (defined(__x86_64__) || defined(__i386__))
#define SLEUTH_AVX2_BODIES 1
#include <immintrin.h>
#else
#define SLEUTH_AVX2_BODIES 0
#endif

namespace sleuth::simd {

namespace {
std::atomic<bool> g_force_scalar{false};
} // namespace

bool
compiledAvx2()
{
    return SLEUTH_AVX2_BODIES != 0;
}

bool
cpuAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool supported = __builtin_cpu_supports("avx2");
    return supported;
#else
    return false;
#endif
}

bool
active()
{
    static const bool available = compiledAvx2() && cpuAvx2();
    return available && !g_force_scalar.load(std::memory_order_relaxed);
}

void
forceScalar(bool on)
{
    g_force_scalar.store(on, std::memory_order_relaxed);
}

const char *
activeIsaName()
{
    return active() ? "avx2" : "scalar";
}

/*
 * Scalar mirrors. Loop shapes deliberately follow the AVX2 lane
 * structure (see simd.h) so the two paths are bitwise identical.
 */
namespace scalar {

void
axpy(double *y, double a, const double *x, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        y[i] += a * x[i];
}

void
matmulRow(double *out, const double *a, size_t k, const double *b, size_t n)
{
    for (size_t t = 0; t < k; ++t) {
        if (a[t] == 0.0)
            continue;
        axpy(out, a[t], b + t * n, n);
    }
}

void
add(double *acc, const double *x, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        acc[i] += x[i];
}

void
scale(double *x, double s, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        x[i] *= s;
}

void
div(double *x, double s, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        x[i] /= s;
}

double
dotBlocked(const double *a, const double *b, size_t n)
{
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        l0 += a[i] * b[i];
        l1 += a[i + 1] * b[i + 1];
        l2 += a[i + 2] * b[i + 2];
        l3 += a[i + 3] * b[i + 3];
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += a[i] * b[i];
    return ((l0 + l1) + (l2 + l3)) + tail;
}

void
dotRows4(const double *a, const double *b0, const double *b1,
         const double *b2, const double *b3, size_t n, double out[4])
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t t = 0; t < n; ++t) {
        const double at = a[t];
        s0 += at * b0[t];
        s1 += at * b1[t];
        s2 += at * b2[t];
        s3 += at * b3[t];
    }
    out[0] = s0;
    out[1] = s1;
    out[2] = s2;
    out[3] = s3;
}

void
gatherMinSums4(const double *rows4, const uint32_t *ids, const double *w,
               const size_t *offsets, size_t nsets, double *out)
{
    for (size_t j = 0; j < nsets; ++j) {
        double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
        for (size_t t = offsets[j]; t < offsets[j + 1]; ++t) {
            const double *x = rows4 + size_t{ids[t]} * 4;
            const double y = w[t];
            l0 += (x[0] < y) ? x[0] : y;
            l1 += (x[1] < y) ? x[1] : y;
            l2 += (x[2] < y) ? x[2] : y;
            l3 += (x[3] < y) ? x[3] : y;
        }
        out[4 * j] = l0;
        out[4 * j + 1] = l1;
        out[4 * j + 2] = l2;
        out[4 * j + 3] = l3;
    }
}

} // namespace scalar

#if SLEUTH_AVX2_BODIES

namespace avx2 {

__attribute__((target("avx2"))) void
axpy(double *y, double a, const double *x, size_t n)
{
    const __m256d va = _mm256_set1_pd(a);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(x + i);
        const __m256d vy = _mm256_loadu_pd(y + i);
        _mm256_storeu_pd(y + i,
                         _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
    }
    for (; i < n; ++i)
        y[i] += a * x[i];
}

/** acc + va * b[0..3]: axpy's lane step. */
__attribute__((target("avx2"))) inline __m256d
mulAdd(__m256d acc, __m256d va, const double *b)
{
    return _mm256_add_pd(acc, _mm256_mul_pd(va, _mm256_loadu_pd(b)));
}

__attribute__((target("avx2"))) void
matmulRow(double *out, const double *a, size_t k, const double *b, size_t n)
{
    // A 16-column block of `out` stays in four registers across the
    // whole t loop, so four add chains overlap where one 4-column
    // register would wait on each add; then 4-column blocks, then
    // single columns. Every element still gets out + a[t] * b[t][j]
    // for each nonzero a[t] in ascending t, as one axpy per a[t] would
    // give it.
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        __m256d o0 = _mm256_loadu_pd(out + j);
        __m256d o1 = _mm256_loadu_pd(out + j + 4);
        __m256d o2 = _mm256_loadu_pd(out + j + 8);
        __m256d o3 = _mm256_loadu_pd(out + j + 12);
        for (size_t t = 0; t < k; ++t) {
            if (a[t] == 0.0)
                continue;
            const __m256d va = _mm256_set1_pd(a[t]);
            const double *brow = b + t * n + j;
            o0 = mulAdd(o0, va, brow);
            o1 = mulAdd(o1, va, brow + 4);
            o2 = mulAdd(o2, va, brow + 8);
            o3 = mulAdd(o3, va, brow + 12);
        }
        _mm256_storeu_pd(out + j, o0);
        _mm256_storeu_pd(out + j + 4, o1);
        _mm256_storeu_pd(out + j + 8, o2);
        _mm256_storeu_pd(out + j + 12, o3);
    }
    for (; j + 4 <= n; j += 4) {
        __m256d o = _mm256_loadu_pd(out + j);
        for (size_t t = 0; t < k; ++t)
            if (a[t] != 0.0)
                o = mulAdd(o, _mm256_set1_pd(a[t]), b + t * n + j);
        _mm256_storeu_pd(out + j, o);
    }
    for (; j < n; ++j) {
        double o = out[j];
        for (size_t t = 0; t < k; ++t)
            if (a[t] != 0.0)
                o += a[t] * b[t * n + j];
        out[j] = o;
    }
}

__attribute__((target("avx2"))) void
add(double *acc, const double *x, size_t n)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(x + i);
        const __m256d va = _mm256_loadu_pd(acc + i);
        _mm256_storeu_pd(acc + i, _mm256_add_pd(va, vx));
    }
    for (; i < n; ++i)
        acc[i] += x[i];
}

__attribute__((target("avx2"))) void
scale(double *x, double s, size_t n)
{
    const __m256d vs = _mm256_set1_pd(s);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(x + i);
        _mm256_storeu_pd(x + i, _mm256_mul_pd(vx, vs));
    }
    for (; i < n; ++i)
        x[i] *= s;
}

__attribute__((target("avx2"))) void
div(double *x, double s, size_t n)
{
    const __m256d vs = _mm256_set1_pd(s);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(x + i);
        _mm256_storeu_pd(x + i, _mm256_div_pd(vx, vs));
    }
    for (; i < n; ++i)
        x[i] /= s;
}

__attribute__((target("avx2"))) double
dotBlocked(const double *a, const double *b, size_t n)
{
    __m256d acc = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d va = _mm256_loadu_pd(a + i);
        const __m256d vb = _mm256_loadu_pd(b + i);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
    }
    alignas(32) double lane[4];
    _mm256_store_pd(lane, acc);
    double tail = 0.0;
    for (; i < n; ++i)
        tail += a[i] * b[i];
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) + tail;
}

__attribute__((target("avx2"))) void
dotRows4(const double *a, const double *b0, const double *b1,
         const double *b2, const double *b3, size_t n, double out[4])
{
    __m256d acc = _mm256_setzero_pd();
    for (size_t t = 0; t < n; ++t) {
        const __m256d va = _mm256_set1_pd(a[t]);
        const __m256d vb = _mm256_set_pd(b3[t], b2[t], b1[t], b0[t]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
    }
    _mm256_storeu_pd(out, acc);
}

/** acc + min(rows4[id*4 ..], w): one key of gatherMinSums4. */
__attribute__((target("avx2"))) inline __m256d
minAdd(__m256d acc, const double *rows4, uint32_t id, double w)
{
    const __m256d x = _mm256_loadu_pd(rows4 + size_t{id} * 4);
    return _mm256_add_pd(acc, _mm256_min_pd(x, _mm256_set1_pd(w)));
}

__attribute__((target("avx2"))) void
gatherMinSums4(const double *rows4, const uint32_t *ids, const double *w,
               const size_t *offsets, size_t nsets, double *out)
{
    // Two sets at a time, so one set's add chain overlaps the other's
    // latency; each output still adds its set's keys in ascending t.
    size_t j = 0;
    for (; j + 2 <= nsets; j += 2) {
        __m256d a = _mm256_setzero_pd();
        __m256d b = _mm256_setzero_pd();
        size_t ta = offsets[j], tb = offsets[j + 1];
        const size_t ea = offsets[j + 1], eb = offsets[j + 2];
        for (; ta < ea && tb < eb; ++ta, ++tb) {
            a = minAdd(a, rows4, ids[ta], w[ta]);
            b = minAdd(b, rows4, ids[tb], w[tb]);
        }
        for (; ta < ea; ++ta)
            a = minAdd(a, rows4, ids[ta], w[ta]);
        for (; tb < eb; ++tb)
            b = minAdd(b, rows4, ids[tb], w[tb]);
        _mm256_storeu_pd(out + 4 * j, a);
        _mm256_storeu_pd(out + 4 * j + 4, b);
    }
    if (j < nsets) {
        __m256d a = _mm256_setzero_pd();
        for (size_t t = offsets[j]; t < offsets[j + 1]; ++t)
            a = minAdd(a, rows4, ids[t], w[t]);
        _mm256_storeu_pd(out + 4 * j, a);
    }
}

} // namespace avx2

#else // !SLEUTH_AVX2_BODIES

/*
 * -DSLEUTH_SIMD=OFF (or a non-x86 target): keep the avx2:: symbols so
 * the equivalence suite links, but run the scalar mirrors.
 */
namespace avx2 {

void
axpy(double *y, double a, const double *x, size_t n)
{
    scalar::axpy(y, a, x, n);
}

void
matmulRow(double *out, const double *a, size_t k, const double *b, size_t n)
{
    scalar::matmulRow(out, a, k, b, n);
}

void
add(double *acc, const double *x, size_t n)
{
    scalar::add(acc, x, n);
}

void
scale(double *x, double s, size_t n)
{
    scalar::scale(x, s, n);
}

void
div(double *x, double s, size_t n)
{
    scalar::div(x, s, n);
}

double
dotBlocked(const double *a, const double *b, size_t n)
{
    return scalar::dotBlocked(a, b, n);
}

void
dotRows4(const double *a, const double *b0, const double *b1,
         const double *b2, const double *b3, size_t n, double out[4])
{
    scalar::dotRows4(a, b0, b1, b2, b3, n, out);
}

void
gatherMinSums4(const double *rows4, const uint32_t *ids, const double *w,
               const size_t *offsets, size_t nsets, double *out)
{
    scalar::gatherMinSums4(rows4, ids, w, offsets, nsets, out);
}

} // namespace avx2

#endif // SLEUTH_AVX2_BODIES

void
axpy(double *y, double a, const double *x, size_t n)
{
    if (active())
        avx2::axpy(y, a, x, n);
    else
        scalar::axpy(y, a, x, n);
}

void
matmulRow(double *out, const double *a, size_t k, const double *b, size_t n)
{
    if (active())
        avx2::matmulRow(out, a, k, b, n);
    else
        scalar::matmulRow(out, a, k, b, n);
}

void
add(double *acc, const double *x, size_t n)
{
    if (active())
        avx2::add(acc, x, n);
    else
        scalar::add(acc, x, n);
}

void
scale(double *x, double s, size_t n)
{
    if (active())
        avx2::scale(x, s, n);
    else
        scalar::scale(x, s, n);
}

void
div(double *x, double s, size_t n)
{
    if (active())
        avx2::div(x, s, n);
    else
        scalar::div(x, s, n);
}

double
dotBlocked(const double *a, const double *b, size_t n)
{
    return active() ? avx2::dotBlocked(a, b, n)
                    : scalar::dotBlocked(a, b, n);
}

void
dotRows4(const double *a, const double *b0, const double *b1,
         const double *b2, const double *b3, size_t n, double out[4])
{
    if (active())
        avx2::dotRows4(a, b0, b1, b2, b3, n, out);
    else
        scalar::dotRows4(a, b0, b1, b2, b3, n, out);
}

void
gatherMinSums4(const double *rows4, const uint32_t *ids, const double *w,
               const size_t *offsets, size_t nsets, double *out)
{
    if (active())
        avx2::gatherMinSums4(rows4, ids, w, offsets, nsets, out);
    else
        scalar::gatherMinSums4(rows4, ids, w, offsets, nsets, out);
}

} // namespace sleuth::simd
