// PipelineCache unit tests: warm re-analysis is bitwise equal to a
// cold one, content mutations (new span, changed error flag)
// invalidate and fall back to full recompute, and the retention knobs
// (maxGenerations aging, maxTraces cap) evict without ever changing a
// result.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/pipeline_cache.h"
#include "core/trainer.h"
#include "test_helpers.h"

using namespace sleuth;
using namespace sleuth::core;
using sleuth::testing::makeSpan;

namespace {

/** Model trained on two-level traces (as in pipeline_test). */
struct CacheFixture
{
    FeatureEncoder encoder{8};
    SleuthGnn model;
    NormalProfile profile;

    CacheFixture()
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

CacheFixture &
fixture()
{
    static CacheFixture f;
    return f;
}

std::vector<trace::Trace>
storm(const std::string &backend, size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<trace::Trace> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(CacheFixture::makeTrace(rng, backend, true));
    return out;
}

PipelineConfig
clusteredConfig()
{
    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 3, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    return cfg;
}

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
        EXPECT_EQ(a.perTrace[i].iterations, b.perTrace[i].iterations)
            << i;
        EXPECT_EQ(a.perTrace[i].resolved, b.perTrace[i].resolved) << i;
        EXPECT_EQ(a.perTrace[i].error, b.perTrace[i].error) << i;
    }
}

} // namespace

TEST(PipelineCache, WarmRepollIsBitwiseEqualAndServedFromMemory)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 11);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineResult fresh = pipeline.analyze(traces, slos);
    PipelineCache cache;
    PipelineResult cold = pipeline.analyze(traces, slos, &cache);
    expectSameResult(fresh, cold);
    PipelineCache::Stats before = cache.stats();
    EXPECT_EQ(before.encodingHits, 0u);

    PipelineResult warm = pipeline.analyze(traces, slos, &cache);
    expectSameResult(fresh, warm);
    // No trace is re-encoded and the model never runs.
    PipelineCache::Stats after = cache.stats();
    EXPECT_EQ(after.encodingHits - before.encodingHits, traces.size());
    EXPECT_EQ(after.encodingMisses, before.encodingMisses);
    EXPECT_GT(after.verdictHits, before.verdictHits);
    EXPECT_EQ(after.verdictMisses, before.verdictMisses);
    // The logical invocation count is cache-oblivious by design.
    EXPECT_EQ(warm.rcaInvocations, fresh.rcaInvocations);
}

TEST(PipelineCache, SlidWindowReusesEncodingsAndVerdicts)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 12);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineCache cache;
    pipeline.analyze(traces, slos, &cache);
    PipelineCache::Stats before = cache.stats();

    // Drop the oldest trace and add a new one: the slid window.
    std::vector<trace::Trace> slid(traces.begin() + 1, traces.end());
    util::Rng novel(99);
    slid.push_back(CacheFixture::makeTrace(novel, "backend", true));
    std::vector<int64_t> slid_slos(slid.size(), 900);

    PipelineResult fresh = pipeline.analyze(slid, slid_slos);
    PipelineResult warm = pipeline.analyze(slid, slid_slos, &cache);
    expectSameResult(fresh, warm);
    PipelineCache::Stats after = cache.stats();
    // The surviving traces were not re-encoded or re-judged.
    EXPECT_GT(after.encodingHits + after.verdictHits,
              before.encodingHits + before.verdictHits);
}

TEST(PipelineCache, NewSpanInvalidatesAndFallsBackToFullRecompute)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 6, 13);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineCache cache;
    pipeline.analyze(traces, slos, &cache);
    ASSERT_EQ(cache.stats().invalidations, 0u);

    // A late span arrives for trace 0 between polls: same traceId,
    // new content. The stale entry must be dropped, not reused.
    std::vector<trace::Trace> mutated = traces;
    mutated[0].spans.push_back(makeSpan("x", "s", "backend", "Retry",
                                        200, 260));
    PipelineResult fresh = pipeline.analyze(mutated, slos);
    PipelineResult warm = pipeline.analyze(mutated, slos, &cache);
    expectSameResult(fresh, warm);
    EXPECT_GT(cache.stats().invalidations, 0u);
}

TEST(PipelineCache, ChangedErrorFlagInvalidates)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 6, 14);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineCache cache;
    pipeline.analyze(traces, slos, &cache);
    uint64_t fp_before = PipelineCache::fingerprint(traces[0]);

    // Only the status flips — span count and timings are unchanged, so
    // anything short of a full-content fingerprint would miss this.
    std::vector<trace::Trace> mutated = traces;
    mutated[0].spans.back().status = trace::StatusCode::Error;
    EXPECT_NE(PipelineCache::fingerprint(mutated[0]), fp_before);

    PipelineResult fresh = pipeline.analyze(mutated, slos);
    PipelineResult warm = pipeline.analyze(mutated, slos, &cache);
    expectSameResult(fresh, warm);
    EXPECT_GT(cache.stats().invalidations, 0u);
}

TEST(PipelineCache, AgingEvictsUntouchedEntries)
{
    CacheFixture &f = fixture();
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineCache::Config cc;
    cc.maxGenerations = 2;
    PipelineCache cache(cc);

    std::vector<trace::Trace> first = storm("backend", 4, 15);
    std::vector<int64_t> slos(first.size(), 900);
    pipeline.analyze(first, slos, &cache);
    EXPECT_EQ(cache.size(), first.size());

    // Three disjoint batches later the first window has aged out.
    for (uint64_t seed = 16; seed < 19; ++seed) {
        std::vector<trace::Trace> other = storm("cache", 4, seed);
        std::vector<int64_t> oslos(other.size(), 900);
        pipeline.analyze(other, oslos, &cache);
    }
    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_LT(cache.size(), first.size() + 12);

    // The evicted window re-analyzes from scratch, bitwise equal.
    PipelineResult fresh = pipeline.analyze(first, slos);
    PipelineResult warm = pipeline.analyze(first, slos, &cache);
    expectSameResult(fresh, warm);
}

TEST(PipelineCache, MaxTracesCapEvictsDeterministically)
{
    CacheFixture &f = fixture();
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineCache::Config cc;
    cc.maxTraces = 4;
    PipelineCache cache(cc);

    std::vector<trace::Trace> big = storm("backend", 10, 20);
    std::vector<int64_t> slos(big.size(), 900);
    PipelineResult fresh = pipeline.analyze(big, slos);
    pipeline.analyze(big, slos, &cache);
    // Same-batch entries share a generation, so the cap only bites on
    // the next beginBatch; the capped cache must still answer the
    // repeat bitwise-identically (partly from memory, partly
    // recomputed).
    PipelineResult warm = pipeline.analyze(big, slos, &cache);
    expectSameResult(fresh, warm);
    EXPECT_LE(cache.size(), std::max<size_t>(cc.maxTraces, big.size()));
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(PipelineCache, GrowingWindowReusesHeadEncodingsBitwiseEqual)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 10, 23);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    // First poll sees a 6-trace window; the re-poll appends four late
    // traces. Every head trace must come back from the encoding cache
    // and the recomputed matrix must still drive the exact verdicts a
    // cold analysis produces.
    std::vector<trace::Trace> small(traces.begin(), traces.begin() + 6);
    std::vector<int64_t> small_slos(small.size(), 900);
    PipelineCache cache;
    pipeline.analyze(small, small_slos, &cache);
    size_t hits_before = cache.stats().encodingHits;

    PipelineResult fresh = pipeline.analyze(traces, slos);
    PipelineResult warm = pipeline.analyze(traces, slos, &cache);
    expectSameResult(fresh, warm);
    EXPECT_EQ(cache.stats().encodingHits - hits_before, small.size());
}

TEST(PipelineCache, GrowingWindowWithMutatedLeadingTraceInvalidates)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 24);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    std::vector<trace::Trace> small(traces.begin(), traces.begin() + 6);
    std::vector<int64_t> small_slos(small.size(), 900);
    PipelineCache cache;
    pipeline.analyze(small, small_slos, &cache);
    size_t hits_before = cache.stats().encodingHits;

    // The window grows AND its first trace mutated between polls: the
    // mutated trace must be re-encoded (its stale encoding and
    // verdicts would leak otherwise); the other head traces are reused.
    std::vector<trace::Trace> grown = traces;
    grown[0].spans.push_back(makeSpan("x", "s", "backend", "Retry",
                                      200, 260));
    PipelineResult fresh = pipeline.analyze(grown, slos);
    PipelineResult warm = pipeline.analyze(grown, slos, &cache);
    expectSameResult(fresh, warm);
    EXPECT_GT(cache.stats().invalidations, 0u);
    EXPECT_EQ(cache.stats().encodingHits - hits_before, small.size() - 1);
}

TEST(PipelineCache, OrphanParentTraceKeepsItsErrorVerdictAndIsNeverCached)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 25);
    std::vector<int64_t> slos(traces.size(), 900);
    // One trace's leaf span names a parent that never arrived: the
    // graph builder rejects it and the batch takes the compaction path.
    const size_t orphan = 3;
    traces[orphan].spans.back().parentSpanId = "never-arrived";

    PipelineConfig individual = clusteredConfig();
    individual.clustering = false;
    for (const PipelineConfig &cfg : {clusteredConfig(), individual}) {
        SCOPED_TRACE(cfg.clustering ? "clustered" : "individual");
        SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
        PipelineResult fresh = pipeline.analyze(traces, slos);
        ASSERT_EQ(fresh.skippedTraces, 1u);
        ASSERT_FALSE(fresh.perTrace[orphan].error.empty());
        EXPECT_EQ(fresh.clusterLabels[orphan], -1);

        PipelineCache cache;
        PipelineResult cold = pipeline.analyze(traces, slos, &cache);
        expectSameResult(fresh, cold);
        EXPECT_EQ(cache.size(), traces.size() - 1);

        PipelineCache::Stats before = cache.stats();
        PipelineResult warm = pipeline.analyze(traces, slos, &cache);
        expectSameResult(fresh, warm);
        EXPECT_EQ(cache.size(), traces.size() - 1);
        EXPECT_EQ(cache.stats().invalidations, 0u);
        // The orphan is validated before any verdict lookup, so it
        // never misses one; only the clustered path looks up (and
        // misses) its encoding.
        EXPECT_EQ(cache.stats().verdictMisses, before.verdictMisses);
        EXPECT_EQ(cache.stats().encodingMisses - before.encodingMisses,
                  cfg.clustering ? 1u : 0u);
    }
}

TEST(PipelineCache, SharedTraceIdWithOtherContentNeverServesStaleEntry)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 26);
    // Two traces in one batch share an id but not their content (nor
    // their span-set encoding): a lookup may miss but must never
    // return the other trace's encoding or verdict.
    util::Rng rng(27);
    traces[5] = CacheFixture::makeTrace(rng, "cache", true);
    traces[5].traceId = traces[2].traceId;
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig individual = clusteredConfig();
    individual.clustering = false;
    for (const PipelineConfig &cfg : {clusteredConfig(), individual}) {
        SCOPED_TRACE(cfg.clustering ? "clustered" : "individual");
        SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
        PipelineResult fresh = pipeline.analyze(traces, slos);
        PipelineCache cache;
        for (int poll = 0; poll < 3; ++poll)
            expectSameResult(fresh, pipeline.analyze(traces, slos, &cache));
    }
}
