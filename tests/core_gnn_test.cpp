// Tests for the Sleuth GNN: shapes, gradients, training convergence on
// simulated traces, counterfactual propagation, and serialization.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "core/gnn.h"
#include "core/trainer.h"
#include "sim/simulator.h"
#include "synth/generator.h"
#include "test_helpers.h"

using namespace sleuth;
using namespace sleuth::core;
using sleuth::testing::figure2Trace;

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
smallConfig(Aggregator agg = Aggregator::Gin)
{
    GnnConfig c;
    c.embedDim = 8;
    c.hidden = 16;
    c.aggregator = agg;
    c.seed = 3;
    return c;
}

/** smallConfig() trained for 8 epochs on simulateCorpus(80, 4). */
SleuthGnn
trainedModel(FeatureEncoder &enc,
             const std::vector<trace::Trace> &corpus)
{
    SleuthGnn model(smallConfig());
    TrainConfig tc;
    tc.epochs = 8;
    tc.tracesPerBatch = 8;
    Trainer trainer(model, enc, tc);
    trainer.train(corpus);
    return model;
}

/**
 * A chain root <- mid <- leaf with an inflated leaf, rooted at the
 * endpoint of `first`.
 */
trace::Trace
inflatedLeafChain(const trace::Trace &first)
{
    trace::Trace t;
    t.spans.push_back(sleuth::testing::makeSpan(
        "r", "", first.spans[0].service, first.spans[0].name, 0,
        1200000));
    t.spans.push_back(sleuth::testing::makeSpan(
        "m", "r", "mid-svc", "MidOp", 100, 1100000,
        trace::SpanKind::Client));
    t.spans.push_back(sleuth::testing::makeSpan(
        "l", "m", "leaf-svc", "LeafOp", 200, 1000000));
    return t;
}

} // namespace

TEST(SleuthGnn, LossIsFiniteScalar)
{
    FeatureEncoder enc(8);
    SleuthGnn model(smallConfig());
    trace::Trace t = figure2Trace();
    TraceBatch b = enc.encode(t);
    nn::Var loss = model.loss(b);
    EXPECT_EQ(loss->value().size(), 1u);
    EXPECT_TRUE(std::isfinite(loss->value().item()));
    EXPECT_GT(loss->value().item(), 0.0);
}

TEST(SleuthGnn, GradientsFlowToAllParameters)
{
    FeatureEncoder enc(8);
    SleuthGnn model(smallConfig());
    auto corpus = simulateCorpus(4, 1);
    std::vector<const trace::Trace *> ptrs;
    for (const auto &t : corpus)
        ptrs.push_back(&t);
    TraceBatch b = enc.encode(ptrs);
    nn::Var loss = model.loss(b);
    nn::backward(loss);
    for (const nn::Var &p : model.parameters()) {
        double norm = 0;
        for (double g : p->grad().data())
            norm += g * g;
        EXPECT_GT(norm, 0.0) << "dead parameter tensor";
    }
}

TEST(SleuthGnn, SingleSpanTraceWorks)
{
    FeatureEncoder enc(8);
    SleuthGnn model(smallConfig());
    trace::Trace t;
    t.traceId = "solo";
    t.spans.push_back(sleuth::testing::makeSpan("a", "", "s", "op", 0,
                                                500));
    TraceBatch b = enc.encode(t);
    nn::Var loss = model.loss(b);
    EXPECT_TRUE(std::isfinite(loss->value().item()));
    GnnPrediction pred = model.reconstruct(b);
    // No children: prediction equals the exclusive (= own) duration.
    EXPECT_NEAR(pred.durScaled[0], enc.scale().scaleUs(500.0), 1e-9);
    EXPECT_NEAR(pred.errProb[0], 0.0, 1e-9);
}

TEST(SleuthGnn, TrainingReducesLoss)
{
    FeatureEncoder enc(8);
    SleuthGnn model(smallConfig());
    auto corpus = simulateCorpus(60, 2);
    TrainConfig tc;
    tc.epochs = 1;
    tc.tracesPerBatch = 8;
    tc.learningRate = 5e-3;
    Trainer trainer(model, enc, tc);
    double before = trainer.evaluate(corpus);
    for (int e = 0; e < 6; ++e)
        trainer.trainEpoch(corpus);
    double after = trainer.evaluate(corpus);
    EXPECT_LT(after, before * 0.8);
}

TEST(SleuthGnn, GcnVariantTrainsToo)
{
    FeatureEncoder enc(8);
    SleuthGnn model(smallConfig(Aggregator::Gcn));
    auto corpus = simulateCorpus(40, 3);
    TrainConfig tc;
    tc.epochs = 4;
    tc.tracesPerBatch = 8;
    Trainer trainer(model, enc, tc);
    double before = trainer.evaluate(corpus);
    trainer.train(corpus);
    EXPECT_LT(trainer.evaluate(corpus), before);
}

TEST(SleuthGnn, ModelSizeIndependentOfGraph)
{
    SleuthGnn model(smallConfig());
    size_t params = model.parameterCount();
    // The same architecture serves any application size — this is the
    // paper's scalability claim (§7.1); parameter count depends only
    // on embedDim/hidden.
    GnnConfig c = smallConfig();
    SleuthGnn model2(c);
    EXPECT_EQ(model2.parameterCount(), params);
    EXPECT_GT(params, 0u);
    EXPECT_LT(params, 10000u);
}

TEST(SleuthGnn, PropagateRestoresDeepIntervention)
{
    // Train on a corpus, then check that restoring an inflated leaf
    // reduces the predicted root duration.
    FeatureEncoder enc(8);
    auto corpus = simulateCorpus(80, 4);
    SleuthGnn model = trainedModel(enc, corpus);

    trace::Trace t = inflatedLeafChain(corpus[0]);
    trace::TraceGraph g = trace::TraceGraph::build(t);
    TraceBatch b = enc.encode(t);
    trace::ExclusiveMetrics m = trace::computeExclusive(t, g);

    std::vector<NodeState> observed(3);
    for (size_t i = 0; i < 3; ++i)
        observed[i] = {static_cast<double>(m.exclusiveUs[i]), 0.0};
    TracePrediction as_is = model.propagate(b, g, observed);

    std::vector<NodeState> restored = observed;
    restored[2].exclusiveUs = 500.0;  // leaf back to normal
    TracePrediction fixed = model.propagate(b, g, restored);

    EXPECT_LT(fixed.rootDurationUs, as_is.rootDurationUs);
}

TEST(SleuthGnn, PropagatePredictionsArePinned)
{
    // Bit-for-bit pins of a trained model's root predictions on three
    // fixed traces. Numeric drift in training or inference (a dropped
    // bias add, a reordered sum) fails here even when every served
    // verdict, and so the serving fingerprint, stays the same. A change
    // meant to alter predictions updates these values, as it does the
    // fingerprint in tools/serviced_smoke.cmake.
    FeatureEncoder enc(8);
    auto corpus = simulateCorpus(80, 4);
    SleuthGnn model = trainedModel(enc, corpus);

    struct Pin
    {
        const char *name;
        trace::Trace trace;
        uint64_t rootDurationBits;
        uint64_t rootErrorBits;
    };
    const Pin pins[] = {
        {"figure 2", figure2Trace(), 0x403e000000000000,
         0x3e706a53f431d3ee},
        {"inflated-leaf chain", inflatedLeafChain(corpus[0]),
         0x41324f64014fe68b, 0x3fec8d1772df95bc},
        {"first simulated trace", corpus[0], 0x40840a41627eec40,
         0x3ed5757ed1ee3d58},
    };
    for (const Pin &pin : pins) {
        trace::TraceGraph g = trace::TraceGraph::build(pin.trace);
        trace::ExclusiveMetrics m = trace::computeExclusive(pin.trace, g);
        std::vector<NodeState> observed(pin.trace.spans.size());
        for (size_t i = 0; i < observed.size(); ++i)
            observed[i] = {static_cast<double>(m.exclusiveUs[i]),
                           m.exclusiveError[i] ? 1.0 : 0.0};
        TracePrediction p =
            model.propagate(enc.encode(pin.trace), g, observed);
        EXPECT_EQ(std::bit_cast<uint64_t>(p.rootDurationUs),
                  pin.rootDurationBits)
            << pin.name << ": rootDurationUs " << p.rootDurationUs
            << " has bits 0x" << std::hex
            << std::bit_cast<uint64_t>(p.rootDurationUs);
        EXPECT_EQ(std::bit_cast<uint64_t>(p.rootErrorProb),
                  pin.rootErrorBits)
            << pin.name << ": rootErrorProb " << p.rootErrorProb
            << " has bits 0x" << std::hex
            << std::bit_cast<uint64_t>(p.rootErrorProb);
    }
}

TEST(SleuthGnn, PropagateClearsErrors)
{
    FeatureEncoder enc(8);
    SleuthGnn model(smallConfig());
    auto corpus = simulateCorpus(60, 5);
    // Inject synthetic error labels so the error head learns to
    // propagate: flip leaf spans to error and their ancestors too.
    for (auto &t : corpus) {
        if (t.spans.size() < 3)
            continue;
        for (auto &s : t.spans)
            if (t.traceId.back() % 3 == 0)
                s.status = trace::StatusCode::Error;
    }
    TrainConfig tc;
    tc.epochs = 6;
    tc.tracesPerBatch = 8;
    Trainer trainer(model, enc, tc);
    trainer.train(corpus);

    trace::Trace t = figure2Trace();
    for (auto &s : t.spans)
        s.status = trace::StatusCode::Error;
    trace::TraceGraph g = trace::TraceGraph::build(t);
    trace::ExclusiveMetrics m = trace::computeExclusive(t, g);
    TraceBatch b = enc.encode(t);

    std::vector<NodeState> observed(3), cleared(3);
    for (size_t i = 0; i < 3; ++i) {
        observed[i] = {static_cast<double>(m.exclusiveUs[i]),
                       m.exclusiveError[i] ? 1.0 : 0.0};
        cleared[i] = {static_cast<double>(m.exclusiveUs[i]), 0.0};
    }
    TracePrediction with_err = model.propagate(b, g, observed);
    TracePrediction without = model.propagate(b, g, cleared);
    EXPECT_LE(without.rootErrorProb, with_err.rootErrorProb);
}

TEST(SleuthGnn, SaveLoadRoundTrip)
{
    FeatureEncoder enc(8);
    SleuthGnn a(smallConfig());
    auto corpus = simulateCorpus(20, 6);
    TrainConfig tc;
    tc.epochs = 2;
    Trainer trainer(a, enc, tc);
    trainer.train(corpus);

    util::Json doc = a.save();
    std::string err;
    util::Json parsed = util::Json::parse(doc.dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    SleuthGnn b = SleuthGnn::fromJson(parsed);

    std::vector<const trace::Trace *> ptrs;
    for (const auto &t : corpus)
        ptrs.push_back(&t);
    TraceBatch batch = enc.encode(ptrs);
    EXPECT_NEAR(a.loss(batch)->value().item(),
                b.loss(batch)->value().item(), 1e-9);
}

namespace {

/** A saved small model with one edit applied, and its load error. */
std::string
loadError(void (*edit)(util::Json &doc))
{
    util::Json doc = SleuthGnn(smallConfig()).save();
    edit(doc);
    std::string err;
    std::optional<SleuthGnn> model = SleuthGnn::tryFromJson(doc, &err);
    EXPECT_FALSE(model.has_value());
    return err;
}

} // namespace

TEST(SleuthGnnModelFile, MistypedConfigFieldIsNamed)
{
    EXPECT_EQ(loadError([](util::Json &doc) {
                  doc.asObject()["config"].set("embedDim", "x");
              }),
              "config.embedDim: expected a number");
}

TEST(SleuthGnnModelFile, MissingConfigIsNamed)
{
    EXPECT_EQ(loadError([](util::Json &doc) {
                  doc.asObject().erase("config");
              }),
              "config: missing field");
}

TEST(SleuthGnnModelFile, MistypedWeightIsNamed)
{
    EXPECT_EQ(loadError([](util::Json &doc) {
                  doc.asObject()["parameters"].asArray()[0].asObject()
                      ["data"].asArray()[0] = util::Json("x");
              }),
              "parameters[0].data[0]: expected a number");
    // A NaN weight saves as null and is named the same way.
    EXPECT_EQ(loadError([](util::Json &doc) {
                  util::Json::Array &params =
                      doc.asObject()["parameters"].asArray();
                  params[1].asObject()["data"].asArray()[2] =
                      util::Json(std::nan(""));
                  std::string err;
                  doc = util::Json::parse(doc.dump(), &err);
              }),
              "parameters[1].data[2]: expected a number");
    EXPECT_EQ(loadError([](util::Json &doc) {
                  doc.asObject()["parameters"].asArray().pop_back();
              }),
              "parameters: expected an array of 6 tensors");
}

TEST(SleuthGnnModelFile, HugeDimensionIsRefusedBeforeAllocating)
{
    EXPECT_EQ(loadError([](util::Json &doc) {
                  doc.asObject()["config"].set("hidden", 1e9);
              }),
              "config.hidden: expected an integer in [1, 4096], got "
              "1000000000");
    EXPECT_EQ(loadError([](util::Json &doc) {
                  doc.asObject()["config"].set("embedDim", 0);
              }),
              "config.embedDim: expected an integer in [1, 1024], got 0");
}

TEST(SleuthGnnModelFile, UnknownAggregatorIsRefused)
{
    EXPECT_EQ(loadError([](util::Json &doc) {
                  doc.asObject()["config"].set("aggregator", "sage");
              }),
              "config.aggregator: unknown aggregator 'sage'");
}

TEST(SleuthGnn, RejectsMismatchedFeatureWidth)
{
    FeatureEncoder enc(4);  // model expects 8
    SleuthGnn model(smallConfig());
    trace::Trace t = figure2Trace();
    TraceBatch b = enc.encode(t);
    EXPECT_DEATH((void)model.loss(b), "feature width");
}
