// Tests for the metrics of §6.1.5 and the shared experiment harness.

#include <gtest/gtest.h>

#include <string>

#include "baselines/simple_rules.h"
#include "core/pipeline.h"
#include "eval/harness.h"

using namespace sleuth;
using namespace sleuth::eval;

TEST(Metrics, PerfectPredictions)
{
    RcaEvaluator ev;
    ev.addQuery({"a"}, {"a"});
    ev.addQuery({"b", "c"}, {"b", "c"});
    EXPECT_DOUBLE_EQ(ev.f1(), 1.0);
    EXPECT_DOUBLE_EQ(ev.accuracy(), 1.0);
    EXPECT_EQ(ev.queries(), 2u);
}

TEST(Metrics, PartialOverlapCountsTowardF1NotAcc)
{
    RcaEvaluator ev;
    // One TP, one FP, one FN.
    ev.addQuery({"a", "x"}, {"a", "b"});
    EXPECT_EQ(ev.tp(), 1u);
    EXPECT_EQ(ev.fp(), 1u);
    EXPECT_EQ(ev.fn(), 1u);
    EXPECT_DOUBLE_EQ(ev.f1(), 0.5);
    EXPECT_DOUBLE_EQ(ev.accuracy(), 0.0);
}

TEST(Metrics, EmptyPredictionIsAllFalseNegatives)
{
    RcaEvaluator ev;
    ev.addQuery({}, {"a"});
    EXPECT_DOUBLE_EQ(ev.f1(), 0.0);
    EXPECT_DOUBLE_EQ(ev.accuracy(), 0.0);
}

TEST(Metrics, AccStricterThanF1)
{
    RcaEvaluator ev;
    ev.addQuery({"a"}, {"a"});
    ev.addQuery({"a", "b"}, {"a"});
    EXPECT_GT(ev.f1(), ev.accuracy());
}

TEST(Metrics, NoQueriesSafe)
{
    RcaEvaluator ev;
    EXPECT_DOUBLE_EQ(ev.f1(), 0.0);
    EXPECT_DOUBLE_EQ(ev.accuracy(), 0.0);
}

// --- Table-3 root-cause aggregation (aggregateRootCauses) ---

TEST(Aggregation, EmptyStormRanksNothing)
{
    core::PipelineResult empty;
    EXPECT_TRUE(core::aggregateRootCauses(empty).empty());
}

TEST(Aggregation, AllEmptyVerdictsRankNothing)
{
    // Every per-trace verdict is empty (no trace had a positively
    // scored candidate). The aggregation must return an empty
    // ranking, not a crash or a phantom service.
    core::PipelineResult res;
    res.perTrace.resize(5);
    res.clusterLabels.assign(5, -1);
    EXPECT_TRUE(core::aggregateRootCauses(res).empty());
}

TEST(Aggregation, TiedVotesBreakLexicographically)
{
    core::PipelineResult res;
    res.perTrace.resize(4);
    // "zeta" and "alpha" tie at 2 votes; "mid" leads with 3.
    res.perTrace[0].services = {"zeta", "mid"};
    res.perTrace[1].services = {"alpha", "mid"};
    res.perTrace[2].services = {"zeta", "alpha"};
    res.perTrace[3].services = {"mid"};
    auto ranked = core::aggregateRootCauses(res);
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0], (std::pair<std::string, size_t>{"mid", 3}));
    // Deterministic tie-break: lexicographic within equal votes.
    EXPECT_EQ(ranked[1], (std::pair<std::string, size_t>{"alpha", 2}));
    EXPECT_EQ(ranked[2], (std::pair<std::string, size_t>{"zeta", 2}));
}

TEST(Harness, MakeAppCatalog)
{
    EXPECT_EQ(makeApp(BenchmarkApp::SockShop).services.size(), 11u);
    EXPECT_EQ(makeApp(BenchmarkApp::SocialNet).services.size(), 26u);
    EXPECT_EQ(makeApp(BenchmarkApp::Syn16).rpcs.size(), 16u);
    EXPECT_EQ(makeApp(BenchmarkApp::Syn64).rpcs.size(), 64u);
    EXPECT_EQ(toString(BenchmarkApp::Syn1024), "Synthetic-1024");
}

TEST(Harness, PrepareExperimentProducesQueries)
{
    ExperimentParams params;
    params.trainTraces = 60;
    params.numQueries = 12;
    params.clusterNodes = 20;
    params.seed = 5;
    ExperimentData data =
        prepareExperiment(makeApp(BenchmarkApp::Syn16, 9), params);

    EXPECT_EQ(data.trainCorpus.size(), 60u);
    EXPECT_EQ(data.queries.size(), 12u);
    for (const synth::FlowConfig &f : data.app.flows)
        EXPECT_GT(f.sloUs, 0);
    for (const AnomalyQuery &q : data.queries) {
        EXPECT_FALSE(q.truthServices.empty());
        EXPECT_GT(q.sloUs, 0);
        // Each query trace really violates its SLO or errors.
        bool violates = q.trace.rootDurationUs() > q.sloUs;
        for (const trace::Span &s : q.trace.spans)
            if (s.parentSpanId.empty() && s.hasError())
                violates = true;
        EXPECT_TRUE(violates);
    }
}

TEST(Harness, TruthScopesMatchAcrossBlastRadii)
{
    // Scope-aware ground truth: every materially-perturbing container
    // and pod must belong to a truth service (the instance naming is
    // "<service>-ctr-<r>" / "<service>-pod-<r>"), and node-scoped
    // truth must be non-empty whenever containers perturbed — a
    // container always runs somewhere.
    ExperimentParams params;
    params.trainTraces = 40;
    params.numQueries = 10;
    params.clusterNodes = 10;
    params.seed = 11;
    ExperimentData data =
        prepareExperiment(makeApp(BenchmarkApp::Syn16, 9), params);

    auto owner = [](const std::string &instance, const char *marker) {
        size_t pos = instance.rfind(marker);
        return pos == std::string::npos ? instance
                                        : instance.substr(0, pos);
    };
    for (const AnomalyQuery &q : data.queries) {
        EXPECT_FALSE(q.truthServices.empty());
        for (const std::string &c : q.truthContainers)
            EXPECT_TRUE(q.truthServices.count(owner(c, "-ctr-")))
                << c << " has no owning truth service";
        for (const std::string &p : q.truthPods)
            EXPECT_TRUE(q.truthServices.count(owner(p, "-pod-")))
                << p << " has no owning truth service";
        if (!q.truthContainers.empty()) {
            EXPECT_FALSE(q.truthNodes.empty());
        }
    }
}

TEST(Harness, PipelineEvaluationReportsContainerScores)
{
    ExperimentParams params;
    params.trainTraces = 80;
    params.numQueries = 12;
    params.clusterNodes = 20;
    params.seed = 12;
    ExperimentData data =
        prepareExperiment(makeApp(BenchmarkApp::Syn16, 9), params);

    SleuthAdapter::Config cfg;
    cfg.gnn.embedDim = 8;
    cfg.gnn.hidden = 16;
    cfg.train.epochs = 4;
    SleuthAdapter sleuth(cfg);
    sleuth.fit(data.trainCorpus);

    core::PipelineConfig pc;
    pc.hdbscan = {.minClusterSize = 5, .minSamples = 3,
                  .clusterSelectionEpsilon = 0.05};
    Scores container_scores{-1.0, -1.0};
    Scores s = evaluatePipeline(sleuth, data, pc, nullptr, nullptr,
                                &container_scores);
    EXPECT_GE(s.f1, 0.0);
    // The out-param was filled with a valid score pair.
    EXPECT_GE(container_scores.f1, 0.0);
    EXPECT_LE(container_scores.f1, 1.0);
    EXPECT_GE(container_scores.acc, 0.0);
    EXPECT_LE(container_scores.acc, 1.0);
}

TEST(Harness, EvaluateAlgorithmEndToEnd)
{
    ExperimentParams params;
    params.trainTraces = 80;
    params.numQueries = 15;
    params.clusterNodes = 20;
    params.seed = 6;
    ExperimentData data =
        prepareExperiment(makeApp(BenchmarkApp::Syn16, 9), params);

    baselines::MaxDurationRca max_rca;
    Scores s = evaluateAlgorithm(max_rca, data);
    EXPECT_GE(s.f1, 0.0);
    EXPECT_LE(s.f1, 1.0);
    EXPECT_GE(s.acc, 0.0);
    EXPECT_LE(s.acc, 1.0);
    // The trivial heuristic should find at least some root causes on
    // a 16-rpc app.
    EXPECT_GT(s.f1, 0.15);
}

TEST(Harness, SleuthAdapterBeatsWeakBaselineHere)
{
    ExperimentParams params;
    params.trainTraces = 150;
    params.numQueries = 20;
    params.clusterNodes = 20;
    params.seed = 7;
    ExperimentData data =
        prepareExperiment(makeApp(BenchmarkApp::Syn16, 9), params);

    SleuthAdapter::Config cfg;
    cfg.gnn.embedDim = 8;
    cfg.gnn.hidden = 16;
    cfg.train.epochs = 8;
    SleuthAdapter sleuth(cfg);
    Scores s_sleuth = evaluateAlgorithm(sleuth, data);

    baselines::ThresholdRca threshold(99.0);
    Scores s_thresh = evaluateAlgorithm(threshold, data);

    EXPECT_GT(s_sleuth.f1, 0.5);
    EXPECT_GE(s_sleuth.f1, s_thresh.f1);
}

TEST(Harness, PipelineEvaluationRunsWithClustering)
{
    ExperimentParams params;
    params.trainTraces = 120;
    params.numQueries = 25;
    params.clusterNodes = 20;
    params.seed = 8;
    ExperimentData data =
        prepareExperiment(makeApp(BenchmarkApp::Syn16, 9), params);

    SleuthAdapter::Config cfg;
    cfg.gnn.embedDim = 8;
    cfg.gnn.hidden = 16;
    cfg.train.epochs = 6;
    SleuthAdapter sleuth(cfg);
    sleuth.fit(data.trainCorpus);

    core::PipelineConfig pc;
    pc.hdbscan = {.minClusterSize = 5, .minSamples = 3,
                  .clusterSelectionEpsilon = 0.05};
    size_t invocations = 0;
    Scores s = evaluatePipeline(sleuth, data, pc, nullptr,
                                &invocations);
    EXPECT_GT(invocations, 0u);
    EXPECT_LE(invocations, data.queries.size());
    EXPECT_GE(s.f1, 0.0);
}

TEST(Harness, FineTuneZeroShotUsesPretrainedWeights)
{
    ExperimentParams params;
    params.trainTraces = 100;
    params.numQueries = 10;
    params.clusterNodes = 20;
    params.seed = 9;
    ExperimentData data =
        prepareExperiment(makeApp(BenchmarkApp::Syn16, 9), params);

    SleuthAdapter::Config cfg;
    cfg.gnn.embedDim = 8;
    cfg.gnn.hidden = 16;
    cfg.train.epochs = 6;
    SleuthAdapter teacher(cfg);
    teacher.fit(data.trainCorpus);

    SleuthAdapter student(cfg);
    student.fineTune(teacher.model(), data.trainCorpus, 0);
    // Zero-shot: the student's weights equal the teacher's.
    EXPECT_EQ(student.model().save().dump(),
              teacher.model().save().dump());
    Scores s = evaluateFitted(student, data);
    EXPECT_GE(s.f1, 0.0);
}
