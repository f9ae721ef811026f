// Unit tests for SleuthPipeline mechanics: representative-distance
// guard, invocation accounting, DBSCAN/HDBSCAN parity on pure
// clusters, and end-to-end determinism.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/trainer.h"
#include "test_helpers.h"

using namespace sleuth;
using namespace sleuth::core;
using sleuth::testing::makeSpan;

namespace {

/** Model trained on two-level traces (as in counterfactual_test). */
struct PipeFixture
{
    FeatureEncoder encoder{8};
    SleuthGnn model;
    NormalProfile profile;

    PipeFixture()
        : model([] {
              GnnConfig c;
              c.embedDim = 8;
              c.hidden = 16;
              c.seed = 4;
              return c;
          }())
    {
        util::Rng rng(8);
        std::vector<trace::Trace> corpus;
        for (int i = 0; i < 100; ++i)
            corpus.push_back(makeTrace(rng, "backend", i >= 85));
        for (const trace::Trace &t : corpus)
            profile.add(t);
        profile.finalize();
        TrainConfig tc;
        tc.epochs = 8;
        Trainer trainer(model, encoder, tc);
        trainer.train(corpus);
    }

    static trace::Trace
    makeTrace(util::Rng &rng, const std::string &backend,
              bool slow = false)
    {
        int64_t b = rng.uniformInt(150, 300) * (slow ? 12 : 1);
        int64_t pre = rng.uniformInt(50, 120);
        trace::Trace t;
        t.traceId = "t" + std::to_string(rng.uniformInt(0, 1 << 30));
        t.spans.push_back(
            makeSpan("r", "", "frontend", "Handle", 0, pre + b + 80));
        t.spans.push_back(makeSpan("c", "r", "frontend",
                                   "Get" + backend, pre, pre + b + 40,
                                   trace::SpanKind::Client));
        t.spans.push_back(makeSpan("s", "c", backend, "Get" + backend,
                                   pre + 20, pre + 20 + b));
        return t;
    }
};

PipeFixture &
pipeFixture()
{
    static PipeFixture f;
    return f;
}

/** A storm: n slow traces through `backend`. */
std::vector<trace::Trace>
storm(const std::string &backend, size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<trace::Trace> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(PipeFixture::makeTrace(rng, backend, true));
    return out;
}

} // namespace

TEST(PipelineMechanics, PureClusterOneInvocation)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 12, 1);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult res = pipeline.analyze(traces, slos);

    // Identical failure mode: few clusters, far fewer RCA calls than
    // traces, same verdict everywhere.
    EXPECT_LT(res.rcaInvocations, traces.size() / 2);
    for (const RcaResult &r : res.perTrace) {
        ASSERT_FALSE(r.services.empty());
        EXPECT_EQ(r.services[0], "backend");
    }
}

TEST(PipelineMechanics, GuardSendsFarMembersToIndividualRca)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 10, 2);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig strict;
    strict.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                      .clusterSelectionEpsilon = 0.0};
    strict.maxRepresentativeDistance = 1e-9;  // nobody inherits
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, strict);
    PipelineResult res = pipeline.analyze(traces, slos);
    // Every non-representative member falls back to individual RCA.
    EXPECT_GE(res.rcaInvocations, traces.size());
}

TEST(PipelineMechanics, DbscanMatchesHdbscanOnPureStorm)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 12, 3);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig hd;
    hd.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                  .clusterSelectionEpsilon = 0.0};
    PipelineConfig db;
    db.algorithm = PipelineConfig::Algorithm::Dbscan;
    db.dbscan = {.eps = 0.5, .minPts = 3};

    SleuthPipeline p1(f.model, f.encoder, f.profile, hd);
    SleuthPipeline p2(f.model, f.encoder, f.profile, db);
    PipelineResult r1 = p1.analyze(traces, slos);
    PipelineResult r2 = p2.analyze(traces, slos);
    for (size_t i = 0; i < traces.size(); ++i) {
        ASSERT_FALSE(r1.perTrace[i].services.empty());
        ASSERT_FALSE(r2.perTrace[i].services.empty());
        EXPECT_EQ(r1.perTrace[i].services[0],
                  r2.perTrace[i].services[0]);
    }
}

TEST(PipelineMechanics, DeterministicAcrossRuns)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 4);
    std::vector<int64_t> slos(traces.size(), 900);
    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 3, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult a = pipeline.analyze(traces, slos);
    PipelineResult b = pipeline.analyze(traces, slos);
    EXPECT_EQ(a.clusterLabels, b.clusterLabels);
    EXPECT_EQ(a.rcaInvocations, b.rcaInvocations);
    for (size_t i = 0; i < traces.size(); ++i)
        EXPECT_EQ(a.perTrace[i].services, b.perTrace[i].services);
}

TEST(PipelineMechanics, MalformedTraceInBatchIsSkippedNotFatal)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 10, 7);
    // Inject two malformed traces mid-batch: an unresolved
    // parentSpanId and a parent cycle. Before the fix either one
    // aborted the whole batch inside TraceGraph::build.
    trace::Trace orphan;
    orphan.traceId = "orphan";
    orphan.spans.push_back(
        makeSpan("r", "", "frontend", "Handle", 0, 100));
    orphan.spans.push_back(
        makeSpan("x", "nosuchspan", "backend", "Get", 10, 60));
    traces.insert(traces.begin() + 3, orphan);
    trace::Trace cyclic;
    cyclic.traceId = "cyclic";
    cyclic.spans.push_back(
        makeSpan("r", "", "frontend", "Handle", 0, 100));
    cyclic.spans.push_back(makeSpan("a", "b", "backend", "Get", 5, 50));
    cyclic.spans.push_back(makeSpan("b", "a", "backend", "Put", 6, 40));
    traces.push_back(cyclic);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult res = pipeline.analyze(traces, slos);

    EXPECT_EQ(res.skippedTraces, 2u);
    // The malformed traces carry error verdicts and no cluster.
    EXPECT_FALSE(res.perTrace[3].error.empty());
    EXPECT_NE(res.perTrace[3].error.find("parentSpanId"),
              std::string::npos);
    EXPECT_EQ(res.clusterLabels[3], -1);
    EXPECT_TRUE(res.perTrace[3].services.empty());
    EXPECT_FALSE(res.perTrace.back().error.empty());
    EXPECT_EQ(res.clusterLabels.back(), -1);
    // Every well-formed trace still gets its verdict.
    for (size_t i = 0; i < traces.size(); ++i) {
        if (i == 3 || i + 1 == traces.size())
            continue;
        ASSERT_TRUE(res.perTrace[i].error.empty()) << i;
        ASSERT_FALSE(res.perTrace[i].services.empty()) << i;
        EXPECT_EQ(res.perTrace[i].services[0], "backend");
    }
    // The distance matrix covered only the well-formed subset.
    size_t m = traces.size() - 2;
    EXPECT_EQ(res.distanceEvaluations, m * (m - 1) / 2);
}

TEST(PipelineMechanics, MatrixPathAccountsMalformedLikeAnalyze)
{
    // Regression: the caller-distance path used to charge n(n-1)/2
    // distance evaluations even when the batch contained malformed
    // traces, while analyze() (which compacts them out before building
    // its matrix) reported m(m-1)/2 over the m well-formed traces. The
    // two paths must agree on the accounting.
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 21);
    trace::Trace orphan;
    orphan.traceId = "orphan";
    orphan.spans.push_back(
        makeSpan("r", "", "frontend", "Handle", 0, 100));
    orphan.spans.push_back(
        makeSpan("x", "nosuchspan", "backend", "Get", 10, 60));
    traces.insert(traces.begin() + 2, orphan);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);

    // A caller-provided distance defined on every row, malformed
    // included.
    std::function<double(size_t, size_t)> flat = [](size_t, size_t) {
        return 0.1;
    };
    PipelineResult res =
        pipeline.analyzeWithDistance(traces, slos, flat);

    const size_t m = traces.size() - 1;
    EXPECT_EQ(res.skippedTraces, 1u);
    EXPECT_EQ(res.distanceEvaluations, m * (m - 1) / 2);
    EXPECT_FALSE(res.perTrace[2].error.empty());
    EXPECT_EQ(res.clusterLabels[2], -1);
    // Cluster ids stay compacted: every id below numClusters occurs.
    std::vector<bool> seen(static_cast<size_t>(res.numClusters), false);
    for (int c : res.clusterLabels)
        if (c >= 0) {
            ASSERT_LT(c, res.numClusters);
            seen[static_cast<size_t>(c)] = true;
        }
    for (size_t c = 0; c < seen.size(); ++c)
        EXPECT_TRUE(seen[c]) << "empty cluster id " << c;
}

TEST(PipelineMechanics, MalformedTraceSkippedOnIndividualPath)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 4, 8);
    trace::Trace rootless;
    rootless.traceId = "rootless";
    rootless.spans.push_back(
        makeSpan("a", "a", "backend", "Get", 0, 10));
    traces.push_back(rootless);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.clustering = false;
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult res = pipeline.analyze(traces, slos);
    EXPECT_EQ(res.skippedTraces, 1u);
    EXPECT_EQ(res.rcaInvocations, traces.size() - 1);
    EXPECT_FALSE(res.perTrace.back().error.empty());
    for (size_t i = 0; i + 1 < traces.size(); ++i)
        EXPECT_TRUE(res.perTrace[i].error.empty()) << i;
}

namespace {

/** Full structural equality of two pipeline results. */
void
expectSameResult(const PipelineResult &a, const PipelineResult &b)
{
    EXPECT_EQ(a.clusterLabels, b.clusterLabels);
    EXPECT_EQ(a.numClusters, b.numClusters);
    EXPECT_EQ(a.rcaInvocations, b.rcaInvocations);
    EXPECT_EQ(a.distanceEvaluations, b.distanceEvaluations);
    EXPECT_EQ(a.skippedTraces, b.skippedTraces);
    ASSERT_EQ(a.perTrace.size(), b.perTrace.size());
    for (size_t i = 0; i < a.perTrace.size(); ++i) {
        EXPECT_EQ(a.perTrace[i].services, b.perTrace[i].services) << i;
        EXPECT_EQ(a.perTrace[i].pods, b.perTrace[i].pods) << i;
        EXPECT_EQ(a.perTrace[i].nodes, b.perTrace[i].nodes) << i;
        EXPECT_EQ(a.perTrace[i].containers, b.perTrace[i].containers)
            << i;
        EXPECT_EQ(a.perTrace[i].iterations, b.perTrace[i].iterations)
            << i;
        EXPECT_EQ(a.perTrace[i].resolved, b.perTrace[i].resolved) << i;
        EXPECT_EQ(a.perTrace[i].error, b.perTrace[i].error) << i;
    }
}

} // namespace

TEST(PipelineMechanics, ParallelAnalyzeIsBitwiseIdenticalToSerial)
{
    PipeFixture &f = pipeFixture();
    // A mixed storm with noise, two failure modes, and one malformed
    // trace, so representatives, the far-member guard, the individual
    // fallback, and the skip path all execute.
    std::vector<trace::Trace> traces = storm("backend", 9, 9);
    std::vector<trace::Trace> other = storm("cache", 9, 10);
    traces.insert(traces.end(), other.begin(), other.end());
    trace::Trace bad;
    bad.traceId = "bad";
    bad.spans.push_back(
        makeSpan("x", "missing", "backend", "Get", 0, 10));
    traces.insert(traces.begin() + 5, bad);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    cfg.numThreads = 1;
    SleuthPipeline serial(f.model, f.encoder, f.profile, cfg);
    PipelineResult base = serial.analyze(traces, slos);
    EXPECT_EQ(base.skippedTraces, 1u);

    for (size_t threads : {size_t{2}, size_t{8}}) {
        cfg.numThreads = threads;
        SleuthPipeline parallel(f.model, f.encoder, f.profile, cfg);
        PipelineResult res = parallel.analyze(traces, slos);
        expectSameResult(base, res);
        // The clustering-off path must be thread-count-invariant too.
        PipelineConfig indiv = cfg;
        indiv.clustering = false;
        PipelineConfig indiv1 = indiv;
        indiv1.numThreads = 1;
        SleuthPipeline pi(f.model, f.encoder, f.profile, indiv);
        SleuthPipeline pi1(f.model, f.encoder, f.profile, indiv1);
        expectSameResult(pi1.analyze(traces, slos),
                         pi.analyze(traces, slos));
    }
}

TEST(PipelineMechanics, CallerDistanceClustersWellFormedLikeCleanBatch)
{
    // Regression: the caller-distance path used to keep malformed
    // traces in the oracle's matrix and evict them only after
    // clustering. An orphan at distance 0 from every row then chained
    // the whole batch through itself and turned every well-formed
    // trace into noise. It must be compacted out first, as analyze()
    // does, so the well-formed traces cluster exactly as the clean
    // batch does.
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> clean = storm("backend", 6, 31);
    std::vector<trace::Trace> other = storm("cache", 6, 32);
    clean.insert(clean.end(), other.begin(), other.end());
    // Group per trace: two storms, then three singletons.
    std::vector<int> clean_groups(6, 0);
    clean_groups.resize(12, 1);
    util::Rng rng(33);
    for (const char *backend : {"db", "queue", "auth"}) {
        clean.push_back(PipeFixture::makeTrace(rng, backend, true));
        clean_groups.push_back(static_cast<int>(clean_groups.size()));
    }
    std::vector<int64_t> clean_slos(clean.size(), 900);

    const size_t orphan_at = 7;
    trace::Trace orphan;
    orphan.traceId = "orphan";
    orphan.spans.push_back(
        makeSpan("r", "", "frontend", "Handle", 0, 100));
    orphan.spans.push_back(
        makeSpan("x", "nosuchspan", "backend", "Get", 10, 60));
    std::vector<trace::Trace> dirty = clean;
    dirty.insert(dirty.begin() + orphan_at, orphan);
    std::vector<int> dirty_groups = clean_groups;
    dirty_groups.insert(dirty_groups.begin() + orphan_at, -1);
    std::vector<int64_t> dirty_slos(dirty.size(), 900);

    // Storm mates sit at 0.1, everything else at 1.0; the orphan (group
    // -1) is at 0 from every row.
    const std::vector<int> *groups = &clean_groups;
    size_t calls = 0;
    bool orphan_seen = false;
    std::function<double(size_t, size_t)> dist = [&](size_t a, size_t b) {
        ++calls;
        int ga = (*groups)[a];
        int gb = (*groups)[b];
        if (ga < 0 || gb < 0) {
            orphan_seen = true;
            return 0.0;
        }
        return ga == gb ? 0.1 : 1.0;
    };

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult base = pipeline.analyzeWithDistance(clean, clean_slos,
                                                       dist);
    ASSERT_EQ(base.numClusters, 2);
    // Two representatives plus three singletons.
    ASSERT_EQ(base.rcaInvocations, 5u);

    groups = &dirty_groups;
    calls = 0;
    PipelineResult res = pipeline.analyzeWithDistance(dirty, dirty_slos,
                                                      dist);
    const size_t m = clean.size();
    EXPECT_EQ(calls, m * (m - 1) / 2);
    EXPECT_FALSE(orphan_seen);
    EXPECT_EQ(res.skippedTraces, 1u);
    EXPECT_FALSE(res.perTrace[orphan_at].error.empty());
    EXPECT_EQ(res.clusterLabels[orphan_at], -1);

    // Dropping the orphan's slot leaves exactly the clean batch's
    // result: labels, verdicts, RCA and distance accounting.
    PipelineResult well_formed = res;
    well_formed.perTrace.erase(well_formed.perTrace.begin() + orphan_at);
    well_formed.clusterLabels.erase(well_formed.clusterLabels.begin() +
                                    orphan_at);
    well_formed.skippedTraces = 0;
    expectSameResult(base, well_formed);
}

TEST(PipelineMechanics, EmptyInput)
{
    PipeFixture &f = pipeFixture();
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, {});
    PipelineResult res = pipeline.analyze({}, {});
    EXPECT_TRUE(res.perTrace.empty());
    EXPECT_EQ(res.rcaInvocations, 0u);
}

TEST(PipelineMechanics, MixedStormSeparatesFailureModes)
{
    PipeFixture &f = pipeFixture();
    // Two distinct failure modes with structurally different spans.
    std::vector<trace::Trace> traces = storm("backend", 8, 5);
    std::vector<trace::Trace> other = storm("cache", 8, 6);
    traces.insert(traces.end(), other.begin(), other.end());
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult res = pipeline.analyze(traces, slos);

    int backend_hits = 0, cache_hits = 0;
    for (size_t i = 0; i < 8; ++i)
        if (!res.perTrace[i].services.empty() &&
            res.perTrace[i].services[0] == "backend")
            ++backend_hits;
    for (size_t i = 8; i < 16; ++i)
        if (!res.perTrace[i].services.empty() &&
            res.perTrace[i].services[0] == "cache")
            ++cache_hits;
    EXPECT_GE(backend_hits, 6);
    EXPECT_GE(cache_hits, 6);
}
