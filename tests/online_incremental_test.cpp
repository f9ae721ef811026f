// Cross-poll incremental cache in the online service: with
// reanalyzeOpenIncidents on, every incident verdict must be bitwise
// identical with the cache enabled and disabled — through store
// retention evicting cached traces mid-incident and through interner
// growth across detection windows — and the cache must actually hit.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault.h"
#include "eval/harness.h"
#include "online/live_source.h"
#include "online/service.h"
#include "sim/cluster_model.h"
#include "sim/simulator.h"
#include "synth/generator.h"
#include "util/rng.h"

using namespace sleuth;

namespace {

/** Shared fixture: app + deployment + trained model (built once). */
struct World
{
    synth::AppConfig app;
    sim::ClusterModel cluster;
    eval::SleuthAdapter adapter;
    chaos::FaultSchedule schedule;

    static eval::SleuthAdapter::Config
    adapterConfig()
    {
        eval::SleuthAdapter::Config cfg;
        cfg.train.epochs = 2;
        return cfg;
    }

    World() : app(synth::generateApp(synth::syntheticParams(16, 5))),
              cluster(app, 8, 5), adapter(adapterConfig())
    {
        sim::Simulator::calibrateSlos(app, cluster, 200, 99.0, 5);
        sim::Simulator warmup(app, cluster, {.seed = 0x9a17});
        std::vector<trace::Trace> corpus;
        for (int i = 0; i < 200; ++i)
            corpus.push_back(warmup.simulateOne().trace);
        adapter.fit(corpus);

        // healthy [0, 0.6s) -> faulty [0.6s, 1.6s) -> healthy.
        util::Rng chaos_rng(0xc4a05);
        chaos::FaultPlan plan = chaos::planFixedFaults(
            cluster.allInstances(), 2, chaos::FaultScope::Container, {},
            chaos_rng);
        schedule.phases.push_back({0, {}});
        schedule.phases.push_back({600'000, plan});
        schedule.phases.push_back({1'600'000, {}});
    }
};

World &
world()
{
    static World w;
    return w;
}

/** Service config with open incidents re-analyzed on every poll. */
online::OnlineConfig
reanalyzingConfig(bool cache_on)
{
    online::OnlineConfig cfg;
    cfg.endpoints = online::endpointProfiles(world().app);
    cfg.detector.bucketUs = 200'000;
    cfg.detector.windowBuckets = 5;
    cfg.assembler.latenessUs = 100'000;
    cfg.assembler.quietGapUs = 50'000;
    cfg.reanalyzeOpenIncidents = true;
    cfg.incrementalCache = cache_on;
    return cfg;
}

online::LiveSourceConfig
loadConfig()
{
    online::LiveSourceConfig live;
    live.seed = 31;
    live.requests = 900;
    live.arrivalRatePerSec = 450.0;
    live.ingestThreads = 1;
    live.pollIntervalUs = 200'000;
    live.duplicateProb = 0.03;
    live.schedule = world().schedule;
    return live;
}

/**
 * Everything determinism-relevant about a service's incidents, as one
 * string. Excludes wall-clock fields (rcaMillis) by construction.
 */
std::string
incidentFingerprint(const online::OnlineService &service)
{
    std::ostringstream out;
    for (const online::Incident &i : service.incidents()) {
        out << "#" << i.id << " " << online::toString(i.state) << " @"
            << i.openedAtUs << "-" << i.resolvedAtUs << " window["
            << i.windowStartUs << "," << i.windowEndUs << ") hwm "
            << i.snapshotMaxRecordId << "\n";
        for (const std::string &e : i.endpoints)
            out << "  ep " << e << "\n";
        for (size_t t = 0; t < i.anomalousTraces.size(); ++t) {
            out << "  " << i.anomalousTraces[t].traceId << " slo "
                << i.slos[t] << " ->";
            if (t < i.rca.perTrace.size())
                for (const std::string &svc :
                     i.rca.perTrace[t].services)
                    out << " " << svc;
            out << "\n";
        }
        for (const auto &[svc, votes] : i.rankedRootCauses)
            out << "  rank " << svc << "=" << votes << "\n";
    }
    return out.str();
}

/** Run the live load against a fresh service under cfg. */
std::unique_ptr<online::OnlineService>
runService(const online::OnlineConfig &cfg,
           online::LiveSourceConfig live,
           std::vector<size_t> *interner_sizes = nullptr)
{
    auto service = std::make_unique<online::OnlineService>(
        world().adapter.model(), world().adapter.encoder(),
        world().adapter.profile(), cfg);
    if (interner_sizes != nullptr) {
        online::OnlineService *raw = service.get();
        live.onPoll = [raw, interner_sizes](int64_t) {
            interner_sizes->push_back(raw->store().interner()->size());
        };
    }
    online::runLiveLoad(world().app, world().cluster, {.seed = 77},
                        live, service.get());
    return service;
}

} // namespace

TEST(OnlineIncremental, CachedReanalysisIsBitwiseEqualToUncached)
{
    auto cached = runService(reanalyzingConfig(true), loadConfig());
    auto uncached = runService(reanalyzingConfig(false), loadConfig());
    std::string with_cache = incidentFingerprint(*cached);
    std::string without_cache = incidentFingerprint(*uncached);

    ASSERT_FALSE(with_cache.empty());
    EXPECT_EQ(with_cache, without_cache);
    // Re-analysis actually recurred while the storm persisted (the
    // cache generation is bumped once per cached analyze)...
    EXPECT_GT(cached->cache().generation(), 1u);
    // ...and the warm polls were served from the cache.
    core::PipelineCache::Stats stats = cached->cache().stats();
    EXPECT_GT(stats.encodingHits + stats.verdictHits, 0u);
    // The disabled cache never ran.
    core::PipelineCache::Stats off = uncached->cache().stats();
    EXPECT_EQ(off.encodingHits + off.encodingMisses, 0u);
}

TEST(OnlineIncremental, ReanalysisOffPreservesHistoricalBehavior)
{
    // With reanalyzeOpenIncidents off (the default), the cache knob
    // must not perturb the onset-time verdicts either.
    online::OnlineConfig on = reanalyzingConfig(true);
    on.reanalyzeOpenIncidents = false;
    online::OnlineConfig off = reanalyzingConfig(false);
    off.reanalyzeOpenIncidents = false;
    std::string a = incidentFingerprint(*runService(on, loadConfig()));
    std::string b = incidentFingerprint(*runService(off, loadConfig()));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(OnlineIncremental, StoreEvictionFallsBackToFullRecompute)
{
    // Retention tight enough to evict records while the incident is
    // still being re-analyzed: traces leave the store (and the rebuilt
    // snapshots shrink with them), yet cached verdicts for evicted
    // traces must never leak into a verdict the uncached service
    // wouldn't produce.
    online::OnlineConfig cached_cfg = reanalyzingConfig(true);
    cached_cfg.retention.maxSpans = 1'500;
    online::OnlineConfig uncached_cfg = reanalyzingConfig(false);
    uncached_cfg.retention.maxSpans = 1'500;

    auto cached = runService(cached_cfg, loadConfig());
    std::string with_cache = incidentFingerprint(*cached);
    std::string without_cache =
        incidentFingerprint(*runService(uncached_cfg, loadConfig()));

    ASSERT_FALSE(with_cache.empty());
    EXPECT_EQ(with_cache, without_cache);
    // The scenario really evicted mid-run.
    EXPECT_GT(cached->store().evictions().records, 0u);
    EXPECT_LE(cached->store().totalSpans(), 1'500u);
}

TEST(OnlineIncremental, InternerGrowthAcrossWindowsStaysConsistent)
{
    // The store interner assigns ids as novel strings arrive; cached
    // encodings must stay valid while it grows between detection
    // windows. A finer poll grid keeps early windows from seeing the
    // whole vocabulary at once.
    online::LiveSourceConfig live = loadConfig();
    live.pollIntervalUs = 50'000;

    std::vector<size_t> sizes;
    auto cached = runService(reanalyzingConfig(true), live, &sizes);
    std::string with_cache = incidentFingerprint(*cached);
    std::string without_cache =
        incidentFingerprint(*runService(reanalyzingConfig(false), live));

    ASSERT_FALSE(with_cache.empty());
    EXPECT_EQ(with_cache, without_cache);
    ASSERT_GE(sizes.size(), 2u);
    // The vocabulary grew after the first window was already cached.
    EXPECT_GT(sizes.back(), sizes.front());
    core::PipelineCache::Stats stats = cached->cache().stats();
    EXPECT_GT(stats.encodingHits + stats.verdictHits, 0u);
}
