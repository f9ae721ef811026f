// Parameterized property tests: metric axioms of the weighted-Jaccard
// trace distance over randomly generated weighted sets and simulated
// traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "distance/distance_matrix.h"
#include "distance/trace_distance.h"
#include "sim/simulator.h"
#include "synth/generator.h"
#include "util/rng.h"

using namespace sleuth;
using namespace sleuth::distance;

class JaccardAxioms : public ::testing::TestWithParam<uint64_t>
{
  protected:
    WeightedSpanSet
    randomSet(util::Rng &rng, size_t universe)
    {
        std::vector<std::pair<uint64_t, double>> entries;
        size_t n = static_cast<size_t>(rng.uniformInt(
            1, static_cast<int64_t>(universe)));
        for (size_t i = 0; i < n; ++i)
            entries.emplace_back(
                static_cast<uint64_t>(rng.uniformInt(
                    0, static_cast<int64_t>(universe))),
                rng.uniform(0.5, 5000.0));
        return makeSpanSet(std::move(entries));
    }
};

TEST_P(JaccardAxioms, IdentityAndRange)
{
    util::Rng rng(GetParam());
    for (int it = 0; it < 20; ++it) {
        WeightedSpanSet a = randomSet(rng, 40);
        EXPECT_DOUBLE_EQ(jaccardDistance(a, a), 0.0);
        WeightedSpanSet b = randomSet(rng, 40);
        double d = jaccardDistance(a, b);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0);
    }
}

TEST_P(JaccardAxioms, Symmetry)
{
    util::Rng rng(GetParam() ^ 0xabc);
    for (int it = 0; it < 20; ++it) {
        WeightedSpanSet a = randomSet(rng, 40);
        WeightedSpanSet b = randomSet(rng, 40);
        EXPECT_DOUBLE_EQ(jaccardDistance(a, b), jaccardDistance(b, a));
    }
}

TEST_P(JaccardAxioms, TriangleInequality)
{
    util::Rng rng(GetParam() ^ 0xdef);
    for (int it = 0; it < 12; ++it) {
        WeightedSpanSet a = randomSet(rng, 25);
        WeightedSpanSet b = randomSet(rng, 25);
        WeightedSpanSet c = randomSet(rng, 25);
        EXPECT_LE(jaccardDistance(a, c),
                  jaccardDistance(a, b) + jaccardDistance(b, c) + 1e-9);
    }
}

TEST_P(JaccardAxioms, DominatedByDisjointness)
{
    // Removing every shared identifier can only increase the distance.
    util::Rng rng(GetParam() ^ 0x123);
    for (int it = 0; it < 10; ++it) {
        WeightedSpanSet a = randomSet(rng, 30);
        WeightedSpanSet b = randomSet(rng, 30);
        double before = jaccardDistance(a, b);
        WeightedSpanSet b2;
        for (const auto &[k, w] : b) {
            bool shared = std::binary_search(
                a.begin(), a.end(), std::make_pair(k, 0.0),
                [](const auto &x, const auto &y) {
                    return x.first < y.first;
                });
            if (!shared)
                b2.emplace_back(k, w);
        }
        if (b2.empty())
            continue;
        EXPECT_GE(jaccardDistance(a, b2), before - 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JaccardAxioms,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

class TraceDistanceOnSimulated
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TraceDistanceOnSimulated, SameFlowCloserThanCrossFlow)
{
    synth::AppConfig app =
        synth::generateApp(synth::syntheticParams(32, 5));
    sim::ClusterModel cluster(app, 10, 1);
    sim::Simulator sim(app, cluster, {.seed = GetParam()});
    ASSERT_GE(app.flows.size(), 2u);

    trace::Trace a1 = sim.simulateFlow(0).trace;
    trace::Trace a2 = sim.simulateFlow(0).trace;
    trace::Trace b = sim.simulateFlow(1).trace;
    double same = traceDistance(a1, a2);
    double cross = traceDistance(a1, b);
    EXPECT_LT(same, cross);
}

TEST_P(TraceDistanceOnSimulated, MoreAncestorContextNeverCloser)
{
    // Adding calling-path context can only split identifiers apart, so
    // the distance is monotonically non-decreasing in d_max.
    synth::AppConfig app =
        synth::generateApp(synth::syntheticParams(32, 5));
    sim::ClusterModel cluster(app, 10, 1);
    sim::Simulator sim(app, cluster, {.seed = GetParam() ^ 0x77});
    trace::Trace a = sim.simulateFlow(0).trace;
    trace::Trace b = sim.simulateFlow(1).trace;
    double prev = -1.0;
    for (int d : {0, 1, 2, 4}) {
        SpanSetOptions opts;
        opts.maxAncestorDistance = d;
        double dist = traceDistance(a, b, opts);
        EXPECT_GE(dist, prev - 1e-9);
        prev = dist;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceDistanceOnSimulated,
                         ::testing::Values(11u, 22u, 33u));

namespace {

/** One field of the reference chain: FNV-1a bytes, then a separator. */
uint64_t
referenceAppend(uint64_t h, const std::string &s)
{
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    h ^= 0x1f;
    h *= 1099511628211ull;
    return h;
}

/**
 * The byte-serial span key: one FNV-1a chain over the span's service,
 * name, kind string and error word, then each ancestor's service and
 * name, hashing every ancestor's names again for each descendant.
 */
std::vector<uint64_t>
referenceSpanKeys(const trace::Trace &t, const trace::TraceGraph &g,
                  const SpanSetOptions &opts)
{
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < t.spans.size(); ++i) {
        const trace::Span &s = t.spans[i];
        uint64_t h = 1469598103934665603ull;
        h = referenceAppend(h, s.service);
        h = referenceAppend(h, s.name);
        h = referenceAppend(h, toString(s.kind));
        if (opts.includeErrorStatus)
            h = referenceAppend(h, s.hasError() ? "err" : "ok");
        int up = 0;
        for (int a = g.parent(static_cast<int>(i));
             a >= 0 && up < opts.maxAncestorDistance;
             a = g.parent(a), ++up) {
            const trace::Span &anc = t.spans[static_cast<size_t>(a)];
            h = referenceAppend(h, anc.service);
            h = referenceAppend(h, anc.name);
        }
        keys.push_back(h);
    }
    return keys;
}

WeightedSpanSet
weighted(const trace::Trace &t, const std::vector<uint64_t> &keys)
{
    std::vector<std::pair<uint64_t, double>> entries;
    for (size_t i = 0; i < keys.size(); ++i)
        entries.emplace_back(keys[i],
                             static_cast<double>(t.spans[i].durationUs()));
    return makeSpanSet(std::move(entries));
}

/**
 * A storm of 80 traces from a 16-RPC app under two stress faults and a
 * node-wide network error fault, so error spans (and error flags deep
 * in the call tree) appear.
 */
std::vector<trace::Trace>
simulatedStorm(uint64_t seed)
{
    synth::AppConfig app =
        synth::generateApp(synth::syntheticParams(16, seed));
    sim::ClusterModel cluster(app, 8, seed);
    util::Rng rng(seed);
    chaos::FaultPlan plan = chaos::planFixedFaults(
        cluster.allInstances(), 2, chaos::FaultScope::Container, {}, rng);
    plan.faults.push_back({chaos::FaultType::NetworkError,
                           chaos::FaultScope::Node,
                           cluster.allInstances().front().node, 1.0,
                           0.6});
    sim::Simulator sim(app, cluster, {.seed = seed}, plan);
    std::vector<trace::Trace> storm;
    for (sim::SimResult &r : sim.simulateMany(80))
        storm.push_back(std::move(r.trace));
    return storm;
}

} // namespace

TEST(SpanSetKeys, SameEqualityClassesAndMatrixAsTheByteSerialChain)
{
    size_t error_spans = 0;
    for (uint64_t seed : {3u, 8u, 21u, 55u}) {
        std::vector<trace::Trace> storm = simulatedStorm(seed);
        std::vector<trace::TraceGraph> graphs;
        for (const trace::Trace &t : storm) {
            graphs.push_back(trace::TraceGraph::build(t));
            for (const trace::Span &s : t.spans)
                error_spans += s.hasError();
        }
        for (int d = 0; d <= 3; ++d) {
            for (bool with_error : {false, true}) {
                SpanSetOptions opts;
                opts.maxAncestorDistance = d;
                opts.includeErrorStatus = with_error;
                // Equal classes over every span of the storm: the two
                // keyings must map onto each other one to one.
                std::map<uint64_t, uint64_t> to_ref;
                std::map<uint64_t, uint64_t> from_ref;
                std::vector<WeightedSpanSet> sets;
                std::vector<WeightedSpanSet> ref_sets;
                for (size_t k = 0; k < storm.size(); ++k) {
                    std::vector<uint64_t> keys =
                        spanKeys(storm[k], graphs[k], opts);
                    std::vector<uint64_t> ref =
                        referenceSpanKeys(storm[k], graphs[k], opts);
                    ASSERT_EQ(keys.size(), ref.size());
                    for (size_t i = 0; i < keys.size(); ++i) {
                        ASSERT_EQ(to_ref.emplace(keys[i], ref[i])
                                      .first->second,
                                  ref[i])
                            << "seed " << seed << " d " << d;
                        ASSERT_EQ(from_ref.emplace(ref[i], keys[i])
                                      .first->second,
                                  keys[i])
                            << "seed " << seed << " d " << d;
                    }
                    sets.push_back(encodeSpanSet(storm[k], graphs[k], opts));
                    EXPECT_EQ(sets.back(), weighted(storm[k], keys));
                    ref_sets.push_back(weighted(storm[k], ref));
                }
                // More than one class, or the check above is vacuous.
                EXPECT_GT(to_ref.size(), 4u);
                DistanceMatrix m = DistanceMatrix::fromSpanSets(sets);
                DistanceMatrix ref_m = DistanceMatrix::fromSpanSets(ref_sets);
                const std::vector<double> &a = m.packed();
                const std::vector<double> &b = ref_m.packed();
                ASSERT_EQ(a.size(), b.size());
                EXPECT_EQ(std::memcmp(a.data(), b.data(),
                                      a.size() * sizeof(double)),
                          0)
                    << "seed " << seed << " d " << d;
            }
        }
    }
    EXPECT_GT(error_spans, 0u);
}
