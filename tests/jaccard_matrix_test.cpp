// DistanceMatrix::fromSpanSets against the per-pair jaccardDistance
// merge, bit for bit (ctest label: differential). Exact batches
// (non-negative integer weights, set totals below 2^52) run the blocked
// scatter-gather kernel; every other batch must take the merge itself.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "collector/collector.h"
#include "core/pipeline.h"
#include "distance/distance_matrix.h"
#include "distance/trace_distance.h"
#include "sim/simulator.h"
#include "synth/generator.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

using namespace sleuth;
using namespace sleuth::distance;

namespace {

/** Number of pairs whose matrix entry differs from jaccardDistance. */
size_t
pairsOffMerge(const DistanceMatrix &m,
              const std::vector<WeightedSpanSet> &sets)
{
    size_t off = 0;
    for (size_t i = 1; i < sets.size(); ++i)
        for (size_t j = 0; j < i; ++j) {
            const double x = m.at(i, j);
            const double y = jaccardDistance(sets[i], sets[j]);
            off += std::memcmp(&x, &y, sizeof x) != 0;
        }
    return off;
}

/**
 * fromSpanSets equals the merge on every pair: serial and on pools of 1
 * and 4 workers, with AVX2 dispatch and under ScopedForceScalar.
 */
void
expectMatchesMerge(const std::vector<WeightedSpanSet> &sets,
                   const std::string &what)
{
    util::ThreadPool one(1);
    util::ThreadPool four(4);
    for (bool scalar : {false, true}) {
        simd::forceScalar(scalar);
        EXPECT_EQ(pairsOffMerge(DistanceMatrix::fromSpanSets(sets), sets),
                  0u)
            << what << " serial, scalar " << scalar;
        EXPECT_EQ(pairsOffMerge(DistanceMatrix::fromSpanSets(sets, &one),
                                sets),
                  0u)
            << what << " 1 worker, scalar " << scalar;
        EXPECT_EQ(pairsOffMerge(DistanceMatrix::fromSpanSets(sets, &four),
                                sets),
                  0u)
            << what << " 4 workers, scalar " << scalar;
    }
    simd::forceScalar(false);
}

/** A set of `len` keys drawn from [0, universe), integer weights. */
WeightedSpanSet
integralSet(util::Rng &rng, size_t len, int64_t universe, int64_t maxw)
{
    std::vector<std::pair<uint64_t, double>> entries;
    for (size_t t = 0; t < len; ++t)
        entries.emplace_back(
            static_cast<uint64_t>(rng.uniformInt(0, universe - 1)),
            static_cast<double>(rng.uniformInt(0, maxw)));
    return makeSpanSet(std::move(entries));
}

size_t
distinctKeyVectors(const std::vector<WeightedSpanSet> &sets)
{
    std::set<std::vector<uint64_t>> vectors;
    for (const WeightedSpanSet &s : sets) {
        std::vector<uint64_t> keys;
        for (const auto &[k, w] : s)
            keys.push_back(k);
        vectors.insert(std::move(keys));
    }
    return vectors.size();
}

/** Span sets of n simulated traces under two container faults. */
std::vector<WeightedSpanSet>
simulatedStormSets(size_t n, uint64_t seed)
{
    synth::AppConfig app =
        synth::generateApp(synth::syntheticParams(16, seed));
    sim::ClusterModel cluster(app, 8, seed);
    util::Rng rng(seed);
    chaos::FaultPlan plan = chaos::planFixedFaults(
        cluster.allInstances(), 2, chaos::FaultScope::Container, {}, rng);
    sim::Simulator sim(app, cluster, {.seed = seed}, plan);
    std::vector<WeightedSpanSet> sets;
    for (const sim::SimResult &r : sim.simulateMany(n))
        sets.push_back(
            encodeSpanSet(r.trace, trace::TraceGraph::build(r.trace)));
    return sets;
}

} // namespace

TEST(JaccardMatrix, EveryBlockTailMatchesMerge)
{
    // Rows go in blocks of four from row 1, so n = 2..13 covers every
    // tail length (n-1 mod 4), each with empty sets at both ends and in
    // the middle of the batch.
    util::Rng rng(0x5e7);
    for (size_t n = 2; n <= 13; ++n) {
        std::vector<WeightedSpanSet> sets;
        for (size_t i = 0; i < n; ++i)
            sets.push_back(integralSet(
                rng, static_cast<size_t>(rng.uniformInt(0, 12)), 24, 60));
        expectMatchesMerge(sets, "n=" + std::to_string(n));
        sets.front().clear();
        sets.back().clear();
        sets[n / 2].clear();
        expectMatchesMerge(sets, "empty sets, n=" + std::to_string(n));
    }
}

TEST(JaccardMatrix, SimulatedStormsMatchMerge)
{
    for (uint64_t seed : {4u, 19u}) {
        std::vector<WeightedSpanSet> sets = simulatedStormSets(150, seed);
        expectMatchesMerge(sets, "storm seed " + std::to_string(seed));
    }
}

TEST(JaccardMatrix, ManyKeyVectorsMatchMerge)
{
    // More distinct key vectors than the old grouped path took (64),
    // as many as the storms that fell off it.
    util::Rng rng(0xc11f);
    std::vector<WeightedSpanSet> sets;
    for (size_t i = 0; i < 200; ++i)
        sets.push_back(integralSet(
            rng, static_cast<size_t>(rng.uniformInt(10, 30)), 120, 9000));
    ASSERT_GT(distinctKeyVectors(sets), 150u);
    expectMatchesMerge(sets, "many key vectors");
}

TEST(JaccardMatrix, NearBoundTotalsMatchMerge)
{
    // Set totals near 8e15 lie above 2^52, so a pair's union can pass
    // 2^53, where totalA + totalB - inter and the merge round
    // differently: such batches must take the merge.
    util::Rng rng(0xb16);
    std::vector<WeightedSpanSet> sets;
    for (size_t i = 0; i < 40; ++i) {
        std::vector<std::pair<uint64_t, double>> entries;
        for (size_t t = 0; t < 6; ++t)
            entries.emplace_back(
                static_cast<uint64_t>(rng.uniformInt(0, 9)),
                static_cast<double>(rng.uniformInt(1'000'000'000'000'000,
                                                   1'600'000'000'000'000)));
        sets.push_back(makeSpanSet(std::move(entries)));
    }
    expectMatchesMerge(sets, "totals near 8e15");

    // Just below 2^52 every total and union is exact, and the kernel
    // still agrees with the merge.
    std::vector<WeightedSpanSet> below;
    for (size_t i = 0; i < 9; ++i)
        below.push_back({{1, 4503599627370495.0 - static_cast<double>(i)},
                         {2 + i % 3, static_cast<double>(i)}});
    expectMatchesMerge(below, "totals just below 2^52");
}

TEST(JaccardMatrix, InexactBatchesTakeTheMerge)
{
    util::Rng rng(0x1a7);
    std::vector<WeightedSpanSet> base;
    for (size_t i = 0; i < 11; ++i)
        base.push_back(integralSet(rng, 8, 16, 500));

    std::vector<WeightedSpanSet> fractional = base;
    fractional[5][0].second += 0.25;
    expectMatchesMerge(fractional, "one fractional weight");

    std::vector<WeightedSpanSet> at_bound = base;
    at_bound[3] = {{1, 4503599627370496.0}};  // total 2^52
    expectMatchesMerge(at_bound, "one total at 2^52");

    // A negative weight: the scatter reads 0 for a key the row lacks,
    // and min(0, w) = w < 0 would enter the intersection.
    std::vector<WeightedSpanSet> negative = base;
    negative[7][2].second = -5.0;
    expectMatchesMerge(negative, "one negative weight");
}

namespace {

/** Zipkin v2 span array for `traces`, one span's duration set to -5. */
std::string
zipkinWithNegativeDuration(const std::vector<trace::Trace> &traces)
{
    std::string out = "[";
    bool planted = false;
    for (const trace::Trace &t : traces)
        for (const trace::Span &s : t.spans) {
            const bool negative = !planted && !s.parentSpanId.empty();
            planted = planted || negative;
            if (out.size() > 1)
                out += ",";
            out += "{\"traceId\":\"" + t.traceId + "\",\"id\":\"" +
                   s.spanId + "\",";
            if (!s.parentSpanId.empty())
                out += "\"parentId\":\"" + s.parentSpanId + "\",";
            out += "\"name\":\"" + s.name + "\",\"kind\":\"" +
                   trace::toString(s.kind) + "\",\"timestamp\":" +
                   std::to_string(s.startUs) + ",\"duration\":" +
                   std::to_string(negative ? -5 : s.durationUs()) +
                   ",\"localEndpoint\":{\"serviceName\":\"" + s.service +
                   "\"}}";
        }
    return out + "]";
}

/** A two-level trace through `backend`, slower when `slow`. */
trace::Trace
backendTrace(util::Rng &rng, const std::string &id,
             const std::string &backend, bool slow)
{
    using sleuth::testing::makeSpan;
    const int64_t b = rng.uniformInt(150, 300) * (slow ? 12 : 1);
    const int64_t pre = rng.uniformInt(50, 120);
    trace::Trace t;
    t.traceId = id;
    t.spans.push_back(makeSpan("r", "", "frontend", "Handle", 0,
                               pre + b + 80));
    t.spans.push_back(makeSpan("c", "r", "frontend", "Get" + backend, pre,
                               pre + b + 40, trace::SpanKind::Client));
    t.spans.push_back(makeSpan("s", "c", backend, "Get" + backend,
                               pre + 20, pre + 20 + b));
    return t;
}

} // namespace

TEST(JaccardMatrix, NegativeDurationStormTakesTheMergeAndIsAnalyzed)
{
    util::Rng rng(0xd0a);
    std::vector<trace::Trace> sent;
    for (size_t i = 0; i < 30; ++i)
        sent.push_back(backendTrace(rng, "t" + std::to_string(100 + i),
                                    i % 3 == 0 ? "cart" : "payment", true));
    std::string err;
    std::vector<trace::Trace> storm = collector::decode(
        collector::Protocol::Zipkin, zipkinWithNegativeDuration(sent), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(storm.size(), sent.size());
    std::vector<WeightedSpanSet> sets;
    size_t negative = 0;
    for (const trace::Trace &t : storm) {
        trace::TraceGraph g;
        std::string why;
        ASSERT_TRUE(trace::TraceGraph::tryBuild(t, &g, &why)) << why;
        sets.push_back(encodeSpanSet(t, g));
        for (const auto &[k, w] : sets.back())
            negative += w < 0.0;
    }
    ASSERT_EQ(negative, 1u);
    expectMatchesMerge(sets, "negative-duration storm");

    // The whole analysis runs on that storm and gives every trace a
    // verdict.
    core::FeatureEncoder encoder{8};
    core::GnnConfig gc;
    gc.embedDim = 8;
    gc.hidden = 16;
    gc.seed = 4;
    core::SleuthGnn model(gc);
    core::NormalProfile profile;
    for (size_t i = 0; i < 60; ++i)
        profile.add(backendTrace(rng, "n" + std::to_string(i),
                                 i % 2 ? "cart" : "payment", false));
    profile.finalize();
    core::SleuthPipeline pipeline(model, encoder, profile, {});
    core::PipelineResult res = pipeline.analyze(
        storm, std::vector<int64_t>(storm.size(), 1000));
    ASSERT_EQ(res.perTrace.size(), storm.size());
    EXPECT_EQ(res.skippedTraces, 0u);
    EXPECT_EQ(res.distanceEvaluations, storm.size() * (storm.size() - 1) / 2);
    for (const core::RcaResult &v : res.perTrace)
        EXPECT_TRUE(v.error.empty()) << v.error;
}
