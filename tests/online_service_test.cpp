// OnlineService end to end: incident lifecycle over a simulated live
// load, the determinism contract under 1/2/8 ingest threads, the
// snapshot/batch differential, and bounded memory under retention.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault.h"
#include "eval/harness.h"
#include "obs/metrics.h"
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

online::OnlineConfig
serviceConfig()
{
    online::OnlineConfig cfg;
    cfg.endpoints = online::endpointProfiles(world().app);
    cfg.detector.bucketUs = 200'000;
    cfg.detector.windowBuckets = 5;
    cfg.assembler.latenessUs = 100'000;
    cfg.assembler.quietGapUs = 50'000;
    return cfg;
}

online::LiveSourceConfig
loadConfig(size_t threads)
{
    online::LiveSourceConfig live;
    live.seed = 31;
    live.requests = 900;
    live.arrivalRatePerSec = 450.0;
    live.ingestThreads = threads;
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
        for (const trace::Trace &n : i.normalSample)
            out << "  normal " << n.traceId << "\n";
        out << "  considered " << i.normalsConsidered << " detect "
            << i.detectionLatencyUs << "\n";
        for (const auto &[svc, votes] : i.rankedRootCauses)
            out << "  rank " << svc << "=" << votes << "\n";
    }
    return out.str();
}

} // namespace

TEST(OnlineService, IncidentLifecycleOverLiveLoad)
{
    online::OnlineService service(world().adapter.model(),
                                  world().adapter.encoder(),
                                  world().adapter.profile(),
                                  serviceConfig());
    online::LiveRunResult run =
        online::runLiveLoad(world().app, world().cluster, {.seed = 77},
                            loadConfig(1), &service);

    EXPECT_EQ(run.requests, 900u);
    EXPECT_GT(run.anomalousSimulated, 0u);

    online::OnlineStats stats = service.stats();
    EXPECT_EQ(stats.spansIngested, run.spansDelivered);
    // Every span is accounted: accepted, rejected, or still pending.
    EXPECT_EQ(stats.assembly.spansAccepted +
                  stats.assembly.spansRejected + service.backlogSpans(),
              stats.spansIngested);
    // The duplicated deliveries were caught.
    EXPECT_GT(stats.assembly.droppedDuplicate, 0u);
    EXPECT_EQ(stats.tracesStored, stats.assembly.tracesAccepted);

    ASSERT_GE(stats.incidentsOpened, 1u);
    const online::Incident &incident = service.incidents()[0];
    EXPECT_EQ(incident.state, online::Incident::State::Resolved);
    EXPECT_LT(incident.openedAtUs, incident.resolvedAtUs);
    EXPECT_FALSE(incident.endpoints.empty());
    EXPECT_FALSE(incident.anomalousTraces.empty());
    EXPECT_EQ(incident.anomalousTraces.size(), incident.slos.size());
    EXPECT_EQ(incident.anomalousTraces.size(),
              incident.rca.perTrace.size());
    EXPECT_FALSE(incident.rankedRootCauses.empty());
    EXPECT_GE(incident.detectionLatencyUs, 0);
    ASSERT_FALSE(run.detectionLatenciesUs.empty());
    // Detected within (well under) the fault phase's one-second span.
    EXPECT_LT(run.detectionLatenciesUs[0], 1'000'000);
}

TEST(OnlineService, ThreadCountNeverChangesResults)
{
    // Sweep thread counts with metrics on, then repeat with metrics
    // disabled: results must be bitwise identical in all six runs —
    // metrics are write-only side channels.
    std::string reference;
    for (bool metrics : {true, false}) {
        obs::setEnabled(metrics);
        for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
            online::OnlineService service(world().adapter.model(),
                                          world().adapter.encoder(),
                                          world().adapter.profile(),
                                          serviceConfig());
            online::runLiveLoad(world().app, world().cluster,
                                {.seed = 77}, loadConfig(threads),
                                &service);
            std::string fp = incidentFingerprint(service);
            ASSERT_FALSE(fp.empty());
            online::OnlineStats stats = service.stats();
            std::ostringstream counters;
            counters << stats.spansIngested << "/" << stats.tracesStored
                     << "/" << stats.assembly.spansAccepted << "/"
                     << stats.assembly.spansRejected << "/"
                     << service.store().size() << "/"
                     << service.store().totalSpans();
            fp += counters.str();
            if (reference.empty())
                reference = fp;
            else
                EXPECT_EQ(fp, reference)
                    << "threads=" << threads << " metrics=" << metrics;
        }
    }
    obs::setEnabled(true);
}

// Regression companion to the detector's canonical transition sort: a
// broad outage storms many endpoints at the same watermark, and the
// incident (whose endpoint list and analysis follow transition order)
// must still be bitwise identical at any ingest thread count.
TEST(OnlineService, MultiEndpointSimultaneousStormsStayDeterministic)
{
    // Harsher fault plan: six faulted containers storm several
    // endpoints within one detection window.
    chaos::FaultSchedule schedule;
    util::Rng chaos_rng(0xbead5);
    chaos::FaultPlan plan = chaos::planFixedFaults(
        world().cluster.allInstances(), 6, chaos::FaultScope::Container,
        {}, chaos_rng);
    schedule.phases.push_back({0, {}});
    schedule.phases.push_back({400'000, plan});
    schedule.phases.push_back({1'600'000, {}});

    std::string reference;
    size_t max_endpoints = 0;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        online::OnlineService service(world().adapter.model(),
                                      world().adapter.encoder(),
                                      world().adapter.profile(),
                                      serviceConfig());
        online::LiveSourceConfig live = loadConfig(threads);
        live.schedule = schedule;
        online::runLiveLoad(world().app, world().cluster, {.seed = 77},
                            live, &service);
        std::string fp = incidentFingerprint(service);
        ASSERT_FALSE(fp.empty());
        for (const online::Incident &i : service.incidents())
            max_endpoints = std::max(max_endpoints, i.endpoints.size());
        if (reference.empty())
            reference = fp;
        else
            EXPECT_EQ(fp, reference) << "threads=" << threads;
    }
    // The scenario must actually exercise simultaneous storms, or the
    // canonical-transition-order guarantee went untested.
    EXPECT_GE(max_endpoints, 2u);
}

TEST(OnlineService, SnapshotMatchesBatchPipelineOverStore)
{
    online::OnlineService service(world().adapter.model(),
                                  world().adapter.encoder(),
                                  world().adapter.profile(),
                                  serviceConfig());
    online::runLiveLoad(world().app, world().cluster, {.seed = 77},
                        loadConfig(2), &service);
    ASSERT_GE(service.incidents().size(), 1u);
    const online::Incident &incident = service.incidents()[0];

    // Rebuild the snapshot independently from the store and run the
    // batch pipeline over it: verdicts must agree per trace. Traces
    // that finished assembling after the incident was analyzed can
    // carry start times inside the window; the recorded store
    // high-water mark excludes them.
    storage::Query q;
    q.minStartUs = incident.windowStartUs;
    q.maxStartUs = incident.windowEndUs;
    q.onlyAnomalous = true;
    std::vector<const storage::Record *> window =
        service.store().query(q);
    struct Row
    {
        const storage::Record *rec;
        int64_t start;
    };
    std::vector<Row> rows;
    for (const storage::Record *r : window)
        if (r->id <= incident.snapshotMaxRecordId)
            rows.push_back({r, r->startUs()});
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.start != b.start)
            return a.start < b.start;
        return a.rec->traceId() < b.rec->traceId();
    });
    ASSERT_EQ(rows.size(), incident.anomalousTraces.size());
    std::vector<trace::Trace> traces;
    std::vector<int64_t> slos;
    for (const Row &r : rows) {
        traces.push_back(r.rec->trace());
        slos.push_back(r.rec->sloUs);
    }
    core::SleuthPipeline batch(world().adapter.model(),
                               world().adapter.encoder(),
                               world().adapter.profile(),
                               serviceConfig().pipeline);
    core::PipelineResult ref = batch.analyze(traces, slos);
    ASSERT_EQ(ref.perTrace.size(), incident.rca.perTrace.size());
    for (size_t i = 0; i < ref.perTrace.size(); ++i) {
        EXPECT_EQ(traces[i].traceId,
                  incident.anomalousTraces[i].traceId);
        EXPECT_EQ(ref.perTrace[i].services,
                  incident.rca.perTrace[i].services);
        EXPECT_EQ(ref.perTrace[i].resolved,
                  incident.rca.perTrace[i].resolved);
    }
    EXPECT_EQ(core::aggregateRootCauses(ref), incident.rankedRootCauses);
}

TEST(OnlineService, RetentionBoundsStoreMemory)
{
    online::OnlineConfig cfg = serviceConfig();
    cfg.retention.maxSpans = 1'500;
    online::OnlineService service(world().adapter.model(),
                                  world().adapter.encoder(),
                                  world().adapter.profile(), cfg);
    online::runLiveLoad(world().app, world().cluster, {.seed = 77},
                        loadConfig(2), &service);
    EXPECT_LE(service.store().totalSpans(), 1'500u);
    EXPECT_GT(service.store().evictions().records, 0u);
    EXPECT_GT(service.store().evictions().spans, 0u);
    // Eviction removed old traces but the stream kept being served.
    online::OnlineStats stats = service.stats();
    EXPECT_GT(stats.tracesStored, service.store().size());
}

namespace {

/** The full drop taxonomy plus totals, as one comparable string. */
std::string
accountingFingerprint(const online::OnlineService &service)
{
    online::OnlineStats s = service.stats();
    std::ostringstream out;
    out << s.spansIngested << "/" << s.assembly.spansAccepted << "/"
        << s.assembly.spansRejected << "/" << service.backlogSpans()
        << " drops " << s.assembly.droppedOrphan << ","
        << s.assembly.droppedDuplicate << "," << s.assembly.droppedLate
        << "," << s.assembly.droppedMalformed << ","
        << s.assembly.droppedBackpressure << ","
        << s.assembly.droppedRingFull << "," << s.assembly.droppedShed;
    return out.str();
}

/** sent == accepted + Σ(drops by reason) + backlog, at a barrier. */
void
expectLedgerBalances(const online::OnlineService &service,
                     size_t delivered)
{
    online::OnlineStats s = service.stats();
    EXPECT_EQ(s.spansIngested, delivered);
    size_t drops = s.assembly.droppedOrphan +
                   s.assembly.droppedDuplicate + s.assembly.droppedLate +
                   s.assembly.droppedMalformed +
                   s.assembly.droppedBackpressure +
                   s.assembly.droppedRingFull + s.assembly.droppedShed;
    EXPECT_EQ(drops, s.assembly.spansRejected);
    EXPECT_EQ(s.assembly.spansAccepted + drops + service.backlogSpans(),
              s.spansIngested);
}

} // namespace

TEST(OnlineService, ShedPoliciesStayDeterministicAndAccounted)
{
    // A per-poll budget tight enough that every policy sheds. Shed
    // decisions happen poll-side over the canonically re-sorted
    // drained batch, so the incident stream AND the entire drop
    // taxonomy must be bitwise identical at 1/2/8 producer threads.
    for (online::ShedPolicy policy : {online::ShedPolicy::DropNewest,
                                      online::ShedPolicy::DropOldest,
                                      online::ShedPolicy::Sample}) {
        std::string reference;
        for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
            online::OnlineConfig cfg = serviceConfig();
            cfg.shedPolicy = policy;
            cfg.shedBudgetSpans = 400;
            online::OnlineService service(world().adapter.model(),
                                          world().adapter.encoder(),
                                          world().adapter.profile(),
                                          cfg);
            online::LiveRunResult run = online::runLiveLoad(
                world().app, world().cluster, {.seed = 77},
                loadConfig(threads), &service);
            online::OnlineStats stats = service.stats();
            EXPECT_GT(stats.assembly.droppedShed, 0u)
                << online::toString(policy) << " never shed";
            expectLedgerBalances(service, run.spansDelivered);
            std::string fp = incidentFingerprint(service) + "\n" +
                             accountingFingerprint(service);
            if (reference.empty())
                reference = fp;
            else
                EXPECT_EQ(fp, reference)
                    << online::toString(policy)
                    << " diverges at threads=" << threads;
        }
    }
}

TEST(OnlineService, RingFullPathConservesAccounting)
{
    // A physically tiny ring forces the enqueue-side last resort. The
    // victim set is nondeterministic under concurrent producers, but
    // the ledger must still balance and the ring-full count stays
    // deterministic: between barriered polls the service admits
    // exactly its ring capacity.
    size_t ring_full_reference = 0;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        online::OnlineConfig cfg = serviceConfig();
        cfg.ringCapacitySpans = 16;
        online::OnlineService service(world().adapter.model(),
                                      world().adapter.encoder(),
                                      world().adapter.profile(), cfg);
        online::LiveRunResult run = online::runLiveLoad(
            world().app, world().cluster, {.seed = 77},
            loadConfig(threads), &service);
        online::OnlineStats stats = service.stats();
        ASSERT_GT(stats.assembly.droppedRingFull, 0u);
        expectLedgerBalances(service, run.spansDelivered);
        if (ring_full_reference == 0)
            ring_full_reference = stats.assembly.droppedRingFull;
        else
            EXPECT_EQ(stats.assembly.droppedRingFull,
                      ring_full_reference)
                << "ring-full count varies at threads=" << threads;
    }
}

TEST(OnlineService, IngestRefusesOnlyWhenRingIsFull)
{
    online::OnlineConfig cfg = serviceConfig();
    cfg.ringCapacitySpans = 2;
    online::OnlineService service(world().adapter.model(),
                                  world().adapter.encoder(),
                                  world().adapter.profile(), cfg);
    // Three distinct trace ids (fnv1a % 4 = 3, 0, 1, so a four-way
    // hash-sharded ingest would give each its own ring): capacity
    // bounds the whole service, so the third span still finds the
    // ring full.
    auto event = [](int i) {
        online::SpanEvent ev;
        ev.traceId = "t-ring-" + std::to_string(i);
        ev.span.spanId = "s" + std::to_string(i);
        ev.span.service = "svc";
        ev.span.name = "op";
        ev.span.startUs = 1'000 + i;
        ev.span.endUs = 2'000 + i;
        return ev;
    };
    EXPECT_TRUE(service.ingest(event(0)));
    EXPECT_TRUE(service.ingest(event(1)));
    EXPECT_FALSE(service.ingest(event(2)));
    online::OnlineStats stats = service.stats();
    EXPECT_EQ(stats.assembly.droppedRingFull, 1u);
    EXPECT_EQ(stats.spansIngested, 3u);
    // A poll drains the ring; the producer can push again.
    service.poll(1);
    EXPECT_TRUE(service.ingest(event(3)));
    expectLedgerBalances(service, 4u);
}

TEST(OnlineService, ShedPolicyStringsRoundTrip)
{
    for (online::ShedPolicy policy : {online::ShedPolicy::DropNewest,
                                      online::ShedPolicy::DropOldest,
                                      online::ShedPolicy::Sample}) {
        online::ShedPolicy parsed;
        ASSERT_TRUE(online::shedPolicyFromString(
            online::toString(policy), &parsed));
        EXPECT_EQ(parsed, policy);
    }
    online::ShedPolicy parsed;
    EXPECT_FALSE(online::shedPolicyFromString("keep-everything",
                                              &parsed));
    EXPECT_FALSE(online::shedPolicyFromString("", &parsed));
}

TEST(OnlineService, DetectionLatencyHasSubPollResolution)
{
    // Regression: latency is measured from the event-time storm onset
    // (earliest anomalous root span start inside the fault phase), not
    // from the configured phase boundary. The old measurement made
    // every latency a poll-grid multiple minus a constant, collapsing
    // p50 onto p99.
    online::OnlineService service(world().adapter.model(),
                                  world().adapter.encoder(),
                                  world().adapter.profile(),
                                  serviceConfig());
    online::LiveRunResult run =
        online::runLiveLoad(world().app, world().cluster, {.seed = 77},
                            loadConfig(1), &service);
    ASSERT_FALSE(run.detectionLatenciesUs.empty());
    bool off_grid = false;
    for (int64_t latency : run.detectionLatenciesUs) {
        EXPECT_GE(latency, 0);
        if (latency % loadConfig(1).pollIntervalUs != 0)
            off_grid = true;
    }
    EXPECT_TRUE(off_grid)
        << "every detection latency sits on the poll grid — the "
           "onset is being taken from the phase boundary again";
}

TEST(OnlineService, HealthyLoadOpensNoIncident)
{
    online::OnlineService service(world().adapter.model(),
                                  world().adapter.encoder(),
                                  world().adapter.profile(),
                                  serviceConfig());
    online::LiveSourceConfig live = loadConfig(1);
    live.schedule = {};  // no faults
    live.requests = 400;
    online::runLiveLoad(world().app, world().cluster, {.seed = 77},
                        live, &service);
    EXPECT_EQ(service.incidents().size(), 0u);
    EXPECT_GT(service.stats().tracesStored, 0u);
}
