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
#include <limits>
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

/** Bitwise equality: tells -0.0 from 0.0 and matches NaN payloads. */
bool
sameBits(const std::vector<double> &x, const std::vector<double> &y)
{
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
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

TEST(SimdKernels, MatmulRowBitwiseEqualAcrossTails)
{
    util::Rng rng(0xe5);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (size_t n : {size_t{0}, size_t{1}, size_t{4}, size_t{5},
                     size_t{16}, size_t{17}, size_t{32}, size_t{33},
                     size_t{36}}) {
        for (size_t k : {size_t{0}, size_t{1}, size_t{7}, size_t{36}}) {
            std::vector<double> a = randomVec(rng, k);
            std::vector<double> b = randomVec(rng, k * n);
            // A zero of either sign skips its row of b: the inf or NaN
            // planted there must not reach the output, and a skipped
            // step leaves a -0.0 in `out` as it is.
            for (size_t t = 0; t < k; t += 2) {
                a[t] = t % 4 == 0 ? 0.0 : -0.0;
                if (n > 0)
                    b[t * n] = t % 4 == 0 ? inf : nan;
            }
            std::vector<double> out = randomVec(rng, n);
            if (n > 0)
                out[0] = -0.0;
            std::vector<double> ref = out;
            for (size_t t = 0; t < k; ++t)
                if (a[t] != 0.0)
                    simd::scalar::axpy(ref.data(), a[t], b.data() + t * n, n);
            std::vector<double> s = out, v = out;
            simd::scalar::matmulRow(s.data(), a.data(), k, b.data(), n);
            EXPECT_TRUE(sameBits(ref, s)) << "scalar n=" << n << " k=" << k;
            if (!avx2Live())
                continue;
            simd::avx2::matmulRow(v.data(), a.data(), k, b.data(), n);
            EXPECT_TRUE(sameBits(s, v)) << "avx2 n=" << n << " k=" << k;
        }
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

/** The documented gatherMinSums4 result, one plain loop per output. */
std::vector<double>
naiveGatherMinSums4(const std::vector<double> &rows4,
                    const std::vector<uint32_t> &ids,
                    const std::vector<double> &w,
                    const std::vector<size_t> &offsets)
{
    std::vector<double> out(4 * (offsets.size() - 1));
    for (size_t j = 0; j + 1 < offsets.size(); ++j)
        for (size_t r = 0; r < 4; ++r) {
            double acc = 0.0;
            for (size_t t = offsets[j]; t < offsets[j + 1]; ++t) {
                const double x = rows4[4 * size_t{ids[t]} + r];
                acc += (x < w[t]) ? x : w[t];
            }
            out[4 * j + r] = acc;
        }
    return out;
}

} // namespace

TEST(SimdKernels, GatherMinSums4BitwiseEqualAcrossLengths)
{
    util::Rng rng(0xd4);
    const size_t vocab = 40;
    // Four scattered rows. Each lacks about a third of the keys
    // (weight 0), and small integer weights tie often with the run's.
    std::vector<double> rows4(4 * vocab);
    for (double &x : rows4)
        x = rng.uniformInt(0, 2) == 0
                ? 0.0
                : static_cast<double>(rng.uniformInt(1, 6));
    // A run of 34 sets of lengths 0..33 over distinct ids; weights mix
    // tied integers, signed zeros and fractions, whose sums depend on
    // the accumulation order.
    std::vector<uint32_t> ids;
    std::vector<double> w;
    std::vector<size_t> offsets = {0};
    std::vector<uint32_t> perm(vocab);
    for (uint32_t id = 0; id < vocab; ++id)
        perm[id] = id;
    for (size_t len = 0; len <= 33; ++len) {
        rng.shuffle(perm);
        for (size_t t = 0; t < len; ++t) {
            ids.push_back(perm[t]);
            switch (rng.uniformInt(0, 3)) {
            case 0:
                w.push_back(static_cast<double>(rng.uniformInt(1, 6)));
                break;
            case 1:
                w.push_back(rng.uniformInt(0, 1) == 0 ? 0.0 : -0.0);
                break;
            default:
                w.push_back(rng.uniform(0.0, 7.0));
                break;
            }
        }
        offsets.push_back(ids.size());
    }
    const size_t nsets = offsets.size() - 1;
    const std::vector<double> ref =
        naiveGatherMinSums4(rows4, ids, w, offsets);
    std::vector<double> s(4 * nsets, -1.0), v(4 * nsets, -1.0);
    simd::scalar::gatherMinSums4(rows4.data(), ids.data(), w.data(),
                                 offsets.data(), nsets, s.data());
    EXPECT_TRUE(sameBits(ref, s));
    if (avx2Live()) {
        simd::avx2::gatherMinSums4(rows4.data(), ids.data(), w.data(),
                                   offsets.data(), nsets, v.data());
        for (size_t j = 0; j < nsets; ++j)
            EXPECT_EQ(std::memcmp(s.data() + 4 * j, v.data() + 4 * j,
                                  4 * sizeof(double)),
                      0)
                << "set length " << j;
    }
    // An empty run writes nothing.
    std::vector<double> untouched(4, -1.0);
    simd::gatherMinSums4(rows4.data(), ids.data(), w.data(),
                         offsets.data(), 0, untouched.data());
    EXPECT_EQ(untouched, std::vector<double>(4, -1.0));
}

TEST(SimdKernels, GatherMinSums4RunWeightWinsTies)
{
    // (x<y)?x:y with x from the scattered rows and y from the run:
    // MINPD returns its second operand when the compare is false, so a
    // NaN in the rows yields the run's weight, and a tie yields it too.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> rows4 = {nan, 5.0, 0.0, 9.0};
    const std::vector<uint32_t> ids = {0, 0};
    const std::vector<double> w = {3.0, 5.0};
    const std::vector<size_t> offsets = {0, 1, 2};
    const std::vector<double> want = {3.0, 3.0, 0.0, 3.0,
                                      5.0, 5.0, 0.0, 5.0};
    std::vector<double> s(8), v(8);
    simd::scalar::gatherMinSums4(rows4.data(), ids.data(), w.data(),
                                 offsets.data(), 2, s.data());
    EXPECT_EQ(s, want);
    if (avx2Live()) {
        simd::avx2::gatherMinSums4(rows4.data(), ids.data(), w.data(),
                                   offsets.data(), 2, v.data());
        EXPECT_TRUE(sameBits(s, v));
    }
}

namespace {

/** The pinned matmul semantics: one axpy per nonzero a[i][t]. */
nn::Tensor
axpyMatmul(const nn::Tensor &a, const nn::Tensor &b)
{
    nn::Tensor out(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t t = 0; t < a.cols(); ++t) {
            const double at = a.at(i, t);
            if (at == 0.0)
                continue;
            for (size_t j = 0; j < b.cols(); ++j)
                out.at(i, j) += at * b.at(t, j);
        }
    return out;
}

} // namespace

TEST(SimdMatmul, BitwiseIdenticalAcrossDispatchAtTailSizes)
{
    util::Rng rng(0xf6);
    // Shapes straddling the 4-wide block in every dimension, and the
    // 16-column register block of matmulRow at the GNN's widths (36
    // inputs, 32 hidden, 5 outputs) and both sides of each block edge.
    const size_t shapes[][3] = {
        {1, 1, 1},   {3, 7, 5},   {4, 8, 4},   {5, 9, 7},
        {8, 31, 9},  {9, 33, 8},  {16, 16, 16}, {3, 36, 32},
        {7, 32, 32}, {7, 32, 5},  {2, 9, 17},  {3, 5, 33},
        {4, 36, 36}, {1, 32, 16}};
    for (const auto &sh : shapes) {
        nn::Tensor a(sh[0], sh[1]);
        nn::Tensor b(sh[1], sh[2]);
        nn::Tensor bt(sh[2], sh[1]);
        nn::Tensor at(sh[1], sh[0]);
        for (double &x : a.data())
            x = rng.uniform(-2.0, 2.0);
        // Exact zeros of both signs take the skip path: a relu hidden
        // layer feeds the next matmul rows like these.
        for (size_t t = 0; t < a.size(); t += 3)
            a.data()[t] = (t / 3) % 2 == 0 ? 0.0 : -0.0;
        for (size_t t = 0; t < a.cols(); ++t)
            a.at(0, t) = 0.0;
        for (double &x : b.data())
            x = rng.uniform(-2.0, 2.0);
        for (double &x : bt.data())
            x = rng.uniform(-2.0, 2.0);
        for (double &x : at.data())
            x = rng.uniform(-2.0, 2.0);

        nn::Tensor mm_on = a.matmul(b);
        nn::Tensor ta_on = at.matmulTransposedA(b);
        nn::Tensor tb_on = a.matmulTransposedB(bt);
        EXPECT_TRUE(sameBits(mm_on.data(), axpyMatmul(a, b).data()))
            << "matmul vs axpy " << sh[0] << "x" << sh[1] << "x" << sh[2];
        simd::ScopedForceScalar guard;
        EXPECT_TRUE(sameBits(mm_on.data(), a.matmul(b).data()))
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
    // sets per vector with different integral weights. The blocked
    // scatter-gather kernel must reproduce the legacy per-pair merge
    // exactly, whether or not two sets share their keys.
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

TEST(SimdJaccard, ManyDistinctKeyVectorsMatchLegacyPerPair)
{
    // Every set has its own key vector: no two sets share the keys
    // they scatter or gather, and results must still be unchanged.
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
