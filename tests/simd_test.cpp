// SIMD ↔ scalar equivalence suite (ctest label: simd).
//
// The dispatch contract (src/util/simd.h) promises bitwise-identical
// results between the AVX2 bodies and their scalar mirrors for every
// kernel, and bitwise-identical *pipeline* results between dispatch
// modes for the integral-weight Jaccard and matmul paths. These tests
// pin both: direct scalar:: vs avx2:: comparisons across awkward tail
// sizes, and end-to-end dispatch toggles through the public entry
// points.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "distance/distance_matrix.h"
#include "distance/trace_distance.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/simd.h"

using namespace sleuth;

namespace {

// Tail sizes around the 4-lane block width, per the issue checklist.
const std::vector<size_t> kSizes = {0, 1, 7, 8, 9, 31, 33, 100};

std::vector<double>
randomVec(util::Rng &rng, size_t n, double lo = -3.0, double hi = 3.0)
{
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(lo, hi);
    return v;
}

/** True when the avx2:: symbols run actual AVX2 bodies. */
bool
avx2Live()
{
    return simd::compiledAvx2() && simd::cpuAvx2();
}

} // namespace

TEST(SimdDispatch, ReportsConsistentState)
{
    EXPECT_STREQ(simd::activeIsaName(),
                 simd::active() ? "avx2" : "scalar");
    simd::forceScalar(true);
    EXPECT_FALSE(simd::active());
    EXPECT_STREQ(simd::activeIsaName(), "scalar");
    simd::forceScalar(false);
    EXPECT_EQ(simd::active(), avx2Live());
}

TEST(SimdDispatch, ScopedForceScalarRestores)
{
    const bool before = simd::active();
    {
        simd::ScopedForceScalar guard;
        EXPECT_FALSE(simd::active());
    }
    EXPECT_EQ(simd::active(), before);
}

TEST(SimdKernels, ElementwiseBitwiseEqualAcrossTails)
{
    if (!avx2Live())
        GTEST_SKIP() << "AVX2 bodies not available on this host";
    util::Rng rng(0xa1);
    for (size_t n : kSizes) {
        std::vector<double> x = randomVec(rng, n);
        std::vector<double> ys = randomVec(rng, n);
        std::vector<double> yv = ys;
        const double a = rng.uniform(-2.0, 2.0);
        simd::scalar::axpy(ys.data(), a, x.data(), n);
        simd::avx2::axpy(yv.data(), a, x.data(), n);
        EXPECT_EQ(ys, yv) << "axpy n=" << n;

        std::vector<double> as = randomVec(rng, n), av = as;
        simd::scalar::add(as.data(), x.data(), n);
        simd::avx2::add(av.data(), x.data(), n);
        EXPECT_EQ(as, av) << "add n=" << n;

        std::vector<double> ss = randomVec(rng, n), sv = ss;
        simd::scalar::scale(ss.data(), a, n);
        simd::avx2::scale(sv.data(), a, n);
        EXPECT_EQ(ss, sv) << "scale n=" << n;

        std::vector<double> ds = randomVec(rng, n), dv = ds;
        const double s = rng.uniform(0.5, 4.0);
        simd::scalar::div(ds.data(), s, n);
        simd::avx2::div(dv.data(), s, n);
        EXPECT_EQ(ds, dv) << "div n=" << n;
    }
}

TEST(SimdKernels, DotBlockedBitwiseEqualAcrossTails)
{
    if (!avx2Live())
        GTEST_SKIP() << "AVX2 bodies not available on this host";
    util::Rng rng(0xb2);
    for (size_t n : kSizes) {
        std::vector<double> a = randomVec(rng, n);
        std::vector<double> b = randomVec(rng, n);
        const double s = simd::scalar::dotBlocked(a.data(), b.data(), n);
        const double v = simd::avx2::dotBlocked(a.data(), b.data(), n);
        EXPECT_EQ(std::memcmp(&s, &v, sizeof s), 0) << "dot n=" << n;
    }
}

TEST(SimdKernels, DotRows4BitwiseEqualsFourNaiveDots)
{
    util::Rng rng(0xc3);
    for (size_t n : kSizes) {
        std::vector<double> a = randomVec(rng, n);
        std::vector<std::vector<double>> rows;
        for (int r = 0; r < 4; ++r)
            rows.push_back(randomVec(rng, n));
        // The pinned semantics: four separate strictly-sequential dots.
        double naive[4];
        for (int r = 0; r < 4; ++r) {
            double acc = 0.0;
            for (size_t t = 0; t < n; ++t)
                acc += a[t] * rows[static_cast<size_t>(r)][t];
            naive[r] = acc;
        }
        double s[4], v[4];
        simd::scalar::dotRows4(a.data(), rows[0].data(), rows[1].data(),
                               rows[2].data(), rows[3].data(), n, s);
        EXPECT_EQ(std::memcmp(naive, s, sizeof naive), 0)
            << "scalar dotRows4 n=" << n;
        if (!avx2Live())
            continue;
        simd::avx2::dotRows4(a.data(), rows[0].data(), rows[1].data(),
                             rows[2].data(), rows[3].data(), n, v);
        EXPECT_EQ(std::memcmp(s, v, sizeof s), 0)
            << "avx2 dotRows4 n=" << n;
    }
}

namespace {

/** Sorted unique keys with integer-valued weights (duration-like). */
void
randomSortedSet(util::Rng &rng, size_t n, std::vector<uint64_t> *keys,
                std::vector<double> *weights)
{
    keys->clear();
    weights->clear();
    uint64_t k = 0;
    for (size_t i = 0; i < n; ++i) {
        // Small strides make dense intersections with the other set.
        k += static_cast<uint64_t>(rng.uniformInt(1, 3));
        keys->push_back(k);
        weights->push_back(
            static_cast<double>(rng.uniformInt(1, 100000)));
    }
}

/** Reference min-sum: plain two-pointer merge, one accumulator. */
double
naiveIntersectMinSum(const std::vector<uint64_t> &ka,
                     const std::vector<double> &wa,
                     const std::vector<uint64_t> &kb,
                     const std::vector<double> &wb)
{
    double acc = 0.0;
    size_t i = 0, j = 0;
    while (i < ka.size() && j < kb.size()) {
        if (ka[i] == kb[j]) {
            acc += std::min(wa[i], wb[j]);
            ++i;
            ++j;
        } else if (ka[i] < kb[j]) {
            ++i;
        } else {
            ++j;
        }
    }
    return acc;
}

} // namespace

TEST(SimdKernels, SortedIntersectMinSumMatchesAcrossTails)
{
    util::Rng rng(0xd4);
    for (size_t na : kSizes) {
        for (size_t nb : {na, na / 2, na + 5}) {
            std::vector<uint64_t> ka, kb;
            std::vector<double> wa, wb;
            randomSortedSet(rng, na, &ka, &wa);
            randomSortedSet(rng, nb, &kb, &wb);
            const double ref =
                naiveIntersectMinSum(ka, wa, kb, wb);
            const double s = simd::scalar::sortedIntersectMinSum(
                ka.data(), wa.data(), na, kb.data(), wb.data(), nb);
            // Integer-valued weights: every accumulation order is
            // exact, so even the reference must agree bitwise.
            EXPECT_EQ(s, ref) << "na=" << na << " nb=" << nb;
            if (!avx2Live())
                continue;
            const double v = simd::avx2::sortedIntersectMinSum(
                ka.data(), wa.data(), na, kb.data(), wb.data(), nb);
            EXPECT_EQ(std::memcmp(&s, &v, sizeof s), 0)
                << "na=" << na << " nb=" << nb;
        }
    }
}

TEST(SimdKernels, MinSemanticsMatchMinpdOnTies)
{
    // (a<b)?a:b — the second operand must win exact ties in both
    // implementations (MINPD semantics).
    std::vector<uint64_t> k = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<double> wa = {5, 5, 5, 5, 5, 5, 5, 5};
    std::vector<double> wb = {5, 5, 5, 5, 5, 5, 5, 5};
    const double s = simd::scalar::sortedIntersectMinSum(
        k.data(), wa.data(), k.size(), k.data(), wb.data(), k.size());
    EXPECT_EQ(s, 40.0);
    if (avx2Live()) {
        const double v = simd::avx2::sortedIntersectMinSum(
            k.data(), wa.data(), k.size(), k.data(), wb.data(),
            k.size());
        EXPECT_EQ(s, v);
    }
}

TEST(SimdMatmul, BitwiseIdenticalAcrossDispatchAtTailSizes)
{
    util::Rng rng(0xf6);
    // Shapes straddling the 4-wide block in every dimension.
    const size_t shapes[][3] = {{1, 1, 1},   {3, 7, 5},  {4, 8, 4},
                                {5, 9, 7},   {8, 31, 9}, {9, 33, 8},
                                {16, 16, 16}};
    for (const auto &sh : shapes) {
        nn::Tensor a(sh[0], sh[1]);
        nn::Tensor b(sh[1], sh[2]);
        nn::Tensor bt(sh[2], sh[1]);
        nn::Tensor at(sh[1], sh[0]);
        for (double &x : a.data())
            x = rng.uniform(-2.0, 2.0);
        for (double &x : b.data())
            x = rng.uniform(-2.0, 2.0);
        for (double &x : bt.data())
            x = rng.uniform(-2.0, 2.0);
        for (double &x : at.data())
            x = rng.uniform(-2.0, 2.0);

        nn::Tensor mm_on = a.matmul(b);
        nn::Tensor ta_on = at.matmulTransposedA(b);
        nn::Tensor tb_on = a.matmulTransposedB(bt);
        simd::ScopedForceScalar guard;
        EXPECT_EQ(mm_on.data(), a.matmul(b).data())
            << "matmul " << sh[0] << "x" << sh[1] << "x" << sh[2];
        EXPECT_EQ(ta_on.data(), at.matmulTransposedA(b).data())
            << "matmulTransposedA " << sh[0] << "x" << sh[1] << "x"
            << sh[2];
        EXPECT_EQ(tb_on.data(), a.matmulTransposedB(bt).data())
            << "matmulTransposedB " << sh[0] << "x" << sh[1] << "x"
            << sh[2];
    }
}

namespace {

distance::WeightedSpanSet
randomIntegralSet(util::Rng &rng, size_t n)
{
    std::vector<std::pair<uint64_t, double>> entries;
    for (size_t i = 0; i < n; ++i)
        entries.emplace_back(
            static_cast<uint64_t>(rng.uniformInt(0, 40)),
            static_cast<double>(rng.uniformInt(1, 5000)));
    return distance::makeSpanSet(entries);
}

} // namespace

TEST(SimdJaccard, FromSpanSetsBitwiseIdenticalAcrossDispatch)
{
    util::Rng rng(0x17);
    std::vector<distance::WeightedSpanSet> sets;
    for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{31}, size_t{33}})
        sets.push_back(randomIntegralSet(rng, n));
    sets.push_back({});  // empty set: distance 0 to itself by contract

    distance::DistanceMatrix on =
        distance::DistanceMatrix::fromSpanSets(sets);
    // Integral weights: the indexed union identity must also reproduce
    // the legacy per-pair merge exactly.
    for (size_t i = 1; i < sets.size(); ++i)
        for (size_t j = 0; j < i; ++j)
            EXPECT_EQ(on.at(i, j),
                      distance::jaccardDistance(sets[i], sets[j]))
                << "pair " << i << "," << j;
    simd::ScopedForceScalar guard;
    distance::DistanceMatrix off =
        distance::DistanceMatrix::fromSpanSets(sets);
    for (size_t i = 1; i < sets.size(); ++i)
        for (size_t j = 0; j < i; ++j) {
            const double x = on.at(i, j), y = off.at(i, j);
            EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0)
                << "pair " << i << "," << j;
        }
}

TEST(SimdJaccard, SharedKeyVectorsMatchLegacyPerPair)
{
    // Storm-shaped batch: a few distinct key vectors (flows), many
    // sets per vector with different integral weights. This drives the
    // grouped fast path (key-set dedup + precomputed intersections),
    // which must still reproduce the legacy per-pair merge exactly.
    util::Rng rng(0x31);
    std::vector<std::vector<uint64_t>> vocab;
    for (size_t f = 0; f < 4; ++f) {
        std::vector<std::pair<uint64_t, double>> proto;
        for (size_t i = 0; i < 12 + f; ++i)
            proto.emplace_back(
                static_cast<uint64_t>(rng.uniformInt(0, 60)), 1.0);
        distance::WeightedSpanSet s =
            distance::makeSpanSet(proto);
        std::vector<uint64_t> keys;
        for (const auto &[k, w] : s)
            keys.push_back(k);
        vocab.push_back(keys);
    }
    std::vector<distance::WeightedSpanSet> sets;
    for (size_t i = 0; i < 40; ++i) {
        const std::vector<uint64_t> &keys = vocab[i % vocab.size()];
        distance::WeightedSpanSet s;
        for (uint64_t k : keys)
            s.emplace_back(
                k, static_cast<double>(rng.uniformInt(1, 9000)));
        sets.push_back(std::move(s));
    }
    distance::DistanceMatrix on =
        distance::DistanceMatrix::fromSpanSets(sets);
    for (size_t i = 1; i < sets.size(); ++i)
        for (size_t j = 0; j < i; ++j)
            EXPECT_EQ(on.at(i, j),
                      distance::jaccardDistance(sets[i], sets[j]))
                << "pair " << i << "," << j;
    simd::ScopedForceScalar guard;
    distance::DistanceMatrix off =
        distance::DistanceMatrix::fromSpanSets(sets);
    for (size_t i = 1; i < sets.size(); ++i)
        for (size_t j = 0; j < i; ++j) {
            const double x = on.at(i, j), y = off.at(i, j);
            EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0)
                << "pair " << i << "," << j;
        }
}

TEST(SimdJaccard, ManyDistinctKeySetsUseMergePath)
{
    // Past the grouping cap (64 distinct key vectors) the matrix falls
    // back to per-pair vectorized merges; results must be unchanged.
    util::Rng rng(0x42);
    std::vector<distance::WeightedSpanSet> sets;
    for (size_t i = 0; i < 70; ++i) {
        // A unique sentinel key per set guarantees 70 distinct key
        // vectors; the shared small-universe keys keep intersections
        // non-trivial.
        distance::WeightedSpanSet s = randomIntegralSet(rng, 6 + i % 5);
        s.emplace_back(1000 + i, 1.0);
        sets.push_back(std::move(s));
    }
    distance::DistanceMatrix m =
        distance::DistanceMatrix::fromSpanSets(sets);
    for (size_t i = 1; i < sets.size(); ++i)
        for (size_t j = 0; j < i; ++j)
            EXPECT_EQ(m.at(i, j),
                      distance::jaccardDistance(sets[i], sets[j]))
                << "pair " << i << "," << j;
}

TEST(SimdJaccard, FractionalWeightsUseLegacyPath)
{
    // Non-integral weights must fall back to the legacy per-pair merge
    // on every dispatch mode (the union identity is not exact there).
    util::Rng rng(0x28);
    std::vector<distance::WeightedSpanSet> sets;
    for (size_t n : {size_t{5}, size_t{9}, size_t{13}}) {
        std::vector<std::pair<uint64_t, double>> entries;
        for (size_t i = 0; i < n; ++i)
            entries.emplace_back(
                static_cast<uint64_t>(rng.uniformInt(0, 20)),
                rng.uniform(0.5, 50.0));
        sets.push_back(distance::makeSpanSet(entries));
    }
    distance::DistanceMatrix m =
        distance::DistanceMatrix::fromSpanSets(sets);
    for (size_t i = 1; i < sets.size(); ++i)
        for (size_t j = 0; j < i; ++j)
            EXPECT_EQ(m.at(i, j),
                      distance::jaccardDistance(sets[i], sets[j]))
                << "pair " << i << "," << j;
}
