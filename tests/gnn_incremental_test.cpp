// Tests pinning incremental counterfactual propagation
// (SleuthGnn::propagateFrom, the path every RCA query takes) to the
// full bottom-up propagate: bitwise-identical predictions on every node
// under random interventions.

#include <gtest/gtest.h>

#include "core/gnn.h"
#include "sim/simulator.h"
#include "synth/generator.h"

using namespace sleuth;
using namespace sleuth::core;

namespace {

std::vector<trace::Trace>
simulateCorpus(size_t n, uint64_t seed)
{
    static synth::AppConfig app =
        synth::generateApp(synth::syntheticParams(16, 11));
    static sim::ClusterModel cluster(app, 10, 1);
    sim::Simulator simulator(app, cluster, {.seed = seed});
    std::vector<trace::Trace> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(simulator.simulateOne().trace);
    return out;
}

GnnConfig
smallConfig()
{
    GnnConfig c;
    c.embedDim = 8;
    c.hidden = 16;
    c.seed = 3;
    return c;
}

std::vector<NodeState>
observedStates(const trace::Trace &t, const trace::TraceGraph &g)
{
    trace::ExclusiveMetrics m = trace::computeExclusive(t, g);
    std::vector<NodeState> states(t.spans.size());
    for (size_t i = 0; i < t.spans.size(); ++i) {
        states[i].exclusiveUs = static_cast<double>(m.exclusiveUs[i]);
        states[i].exclusiveErr = m.exclusiveError[i] ? 1.0 : 0.0;
    }
    return states;
}

void
expectSamePrediction(const TracePrediction &a, const TracePrediction &b)
{
    EXPECT_EQ(a.rootDurationUs, b.rootDurationUs);
    EXPECT_EQ(a.rootErrorProb, b.rootErrorProb);
    EXPECT_EQ(a.nodeDurUs, b.nodeDurUs);
    EXPECT_EQ(a.nodeErrProb, b.nodeErrProb);
}

} // namespace

TEST(PropagateFrom, EmptyDirtyListReproducesBaseline)
{
    FeatureEncoder enc(8);
    SleuthGnn model(smallConfig());
    for (const trace::Trace &t : simulateCorpus(10, 21)) {
        trace::TraceGraph g = trace::TraceGraph::build(t);
        TraceBatch b = enc.encode(t);
        std::vector<NodeState> states = observedStates(t, g);
        TracePrediction base = model.propagate(b, g, states);
        TracePrediction inc =
            model.propagateFrom(b, g, states, base, {});
        expectSamePrediction(inc, base);
    }
}

TEST(PropagateFrom, SingleNodeInterventionsMatchFullPropagate)
{
    FeatureEncoder enc(8);
    SleuthGnn model(smallConfig());
    for (const trace::Trace &t : simulateCorpus(12, 22)) {
        trace::TraceGraph g = trace::TraceGraph::build(t);
        TraceBatch b = enc.encode(t);
        std::vector<NodeState> observed = observedStates(t, g);
        TracePrediction base = model.propagate(b, g, observed);
        // Intervene on every node in turn, including the root (index
        // of the span with no parent) and the leaves.
        for (size_t i = 0; i < t.spans.size(); ++i) {
            std::vector<NodeState> states = observed;
            states[i].exclusiveUs *= 0.1;
            states[i].exclusiveErr = 0.0;
            TracePrediction full = model.propagate(b, g, states);
            TracePrediction inc = model.propagateFrom(
                b, g, states, base, {static_cast<int>(i)});
            expectSamePrediction(inc, full);
        }
    }
}

TEST(PropagateFrom, RandomMultiNodeInterventionsMatchFullPropagate)
{
    FeatureEncoder enc(8);
    SleuthGnn model(smallConfig());
    util::Rng rng(77);
    for (const trace::Trace &t : simulateCorpus(20, 23)) {
        trace::TraceGraph g = trace::TraceGraph::build(t);
        TraceBatch b = enc.encode(t);
        std::vector<NodeState> observed = observedStates(t, g);
        TracePrediction base = model.propagate(b, g, observed);
        for (int rep = 0; rep < 4; ++rep) {
            std::vector<NodeState> states = observed;
            std::vector<int> dirty;
            for (size_t i = 0; i < t.spans.size(); ++i) {
                if (rng.uniform(0.0, 1.0) > 0.4)
                    continue;
                states[i].exclusiveUs =
                    std::max(1.0, states[i].exclusiveUs *
                                      rng.uniform(0.05, 2.0));
                states[i].exclusiveErr = 0.0;
                if (states[i].exclusiveUs !=
                        observed[i].exclusiveUs ||
                    states[i].exclusiveErr !=
                        observed[i].exclusiveErr)
                    dirty.push_back(static_cast<int>(i));
            }
            TracePrediction full = model.propagate(b, g, states);
            TracePrediction inc =
                model.propagateFrom(b, g, states, base, dirty);
            expectSamePrediction(inc, full);
        }
    }
}

TEST(PropagateFrom, AllNodesDirtyMatchesFullPropagate)
{
    FeatureEncoder enc(8);
    SleuthGnn model(smallConfig());
    for (const trace::Trace &t : simulateCorpus(8, 24)) {
        trace::TraceGraph g = trace::TraceGraph::build(t);
        TraceBatch b = enc.encode(t);
        std::vector<NodeState> observed = observedStates(t, g);
        TracePrediction base = model.propagate(b, g, observed);
        std::vector<NodeState> states = observed;
        std::vector<int> dirty;
        for (size_t i = 0; i < states.size(); ++i) {
            states[i].exclusiveUs = states[i].exclusiveUs * 0.5 + 1.0;
            dirty.push_back(static_cast<int>(i));
        }
        TracePrediction full = model.propagate(b, g, states);
        TracePrediction inc =
            model.propagateFrom(b, g, states, base, dirty);
        expectSamePrediction(inc, full);
    }
}
