// Trace-driven app inference (DESIGN.md §3.16): simulate a source
// app, infer a clone from the traces, and check that the clone's
// structure, kernels, error rates, and flow shapes track the source.

#include "synth/infer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "sim/cluster_model.h"
#include "sim/simulator.h"
#include "storage/trace_store.h"
#include "synth/catalog.h"

using namespace sleuth;
using namespace sleuth::synth;

namespace {

// Simulate `n` healthy requests and insert them into a store with
// per-flow SLO metadata, the way the serving path persists them.
storage::TraceStore
profileApp(const AppConfig &app, const sim::ClusterModel &cluster,
           size_t n, uint64_t seed)
{
    sim::Simulator simulator(app, cluster, {.seed = seed});
    storage::TraceStore store;
    for (sim::SimResult &r : simulator.simulateMany(n))
        store.insert(std::move(r.trace),
                     app.flows[static_cast<size_t>(r.flowIndex)].sloUs,
                     r.flowIndex);
    return store;
}

int64_t
medianRootDuration(const AppConfig &app, const sim::ClusterModel &cluster,
                   size_t n, uint64_t seed)
{
    sim::Simulator simulator(app, cluster, {.seed = seed});
    std::vector<int64_t> durations;
    for (const sim::SimResult &r : simulator.simulateMany(n))
        durations.push_back(r.trace.rootDurationUs());
    std::sort(durations.begin(), durations.end());
    return durations[durations.size() / 2];
}

// A two-service app with a hand-set call tree: root invokes leaf ops
// a and b in parallel (stage 0), then c sequentially (stage 1), with
// near-deterministic kernels so shape recovery is unambiguous.
AppConfig
stagedApp()
{
    AppConfig app;
    app.name = "staged";
    app.services = {{0, "gw", Tier::Frontend, 2},
                    {1, "db", Tier::Leaf, 1}};
    KernelConfig k{Resource::Cpu, 5.0, 0.05};
    app.rpcs = {{0, 0, "root", k, k, 0.0, 0},
                {1, 1, "a", k, k, 0.0, 0},
                {2, 1, "b", k, k, 0.0, 0},
                {3, 1, "c", k, k, 0.0, 0}};
    FlowConfig f;
    f.name = "staged-flow";
    f.root = 0;
    f.nodes = {{0, false, 0, {1, 2, 3}},
               {1, false, 0, {}},
               {2, false, 0, {}},
               {3, false, 1, {}}};
    f.weight = 1.0;
    f.sloUs = 0;
    app.flows = {f};
    app.validate();
    return app;
}

} // namespace

TEST(Infer, SockShopSelfCloneStructure)
{
    AppConfig source = sockShopConfig();
    sim::ClusterModel cluster(source, 20, 7);
    sim::Simulator::calibrateSlos(source, cluster, 80, 99.0, 11);
    storage::TraceStore store = profileApp(source, cluster, 300, 21);

    InferStats stats;
    InferOptions opts;
    opts.name = "sockshop-clone";
    AppConfig clone =
        inferAppModel(store, storage::Query{}, opts, &stats);

    EXPECT_EQ(stats.tracesUsed, 300u);
    EXPECT_EQ(stats.tracesSkipped, 0u);
    EXPECT_GT(stats.spans, 0u);
    EXPECT_EQ(stats.flowShapes, clone.flows.size());
    EXPECT_TRUE(clone.validationError().empty());

    // Every inferred name comes from the observed vocabulary.
    std::set<std::string> sourceNames;
    for (const ServiceConfig &s : source.services)
        sourceNames.insert(s.name);
    for (const ServiceConfig &s : clone.services) {
        EXPECT_TRUE(sourceNames.count(s.name)) << s.name;
        EXPECT_GE(s.replicas, 1);
    }
    EXPECT_GE(clone.services.size(), 5u);
    EXPECT_GE(clone.rpcs.size(), 10u);

    // Entry services classify as Frontend.
    for (const ServiceConfig &s : clone.services) {
        if (s.name == "front-end") {
            EXPECT_EQ(s.tier, Tier::Frontend);
        }
    }

    // Observed SLOs carry into the clone's flows.
    bool anySlo = false;
    for (const FlowConfig &f : clone.flows)
        anySlo = anySlo || f.sloUs > 0;
    EXPECT_TRUE(anySlo);

    // The clone replays through the simulator unmodified.
    sim::ClusterModel cloneCluster(clone, 20, 7);
    sim::Simulator replay(clone, cloneCluster, {.seed = 31});
    for (const sim::SimResult &r : replay.simulateMany(50)) {
        EXPECT_FALSE(r.trace.spans.empty());
        EXPECT_FALSE(r.faultTouched());
    }
}

TEST(Infer, CloneLatencyTracksSource)
{
    AppConfig source = sockShopConfig();
    sim::ClusterModel cluster(source, 20, 7);
    storage::TraceStore store = profileApp(source, cluster, 400, 23);
    AppConfig clone = inferAppModel(store, storage::Query{});
    ASSERT_FALSE(clone.services.empty());

    sim::ClusterModel cloneCluster(clone, 20, 7);
    int64_t src = medianRootDuration(source, cluster, 300, 41);
    int64_t dup = medianRootDuration(clone, cloneCluster, 300, 41);
    double ratio =
        static_cast<double>(dup) / static_cast<double>(src);
    EXPECT_GT(ratio, 0.5) << src << " vs " << dup;
    EXPECT_LT(ratio, 2.0) << src << " vs " << dup;
}

TEST(Infer, StageStructureRecovered)
{
    AppConfig source = stagedApp();
    sim::ClusterModel cluster(source, 4, 3);
    storage::TraceStore store = profileApp(source, cluster, 100, 5);
    AppConfig clone = inferAppModel(store, storage::Query{});

    ASSERT_EQ(clone.flows.size(), 1u);
    const FlowConfig &f = clone.flows[0];
    ASSERT_EQ(f.nodes.size(), 4u);
    const CallNode &root = f.nodes[static_cast<size_t>(f.root)];
    ASSERT_EQ(root.children.size(), 3u);

    // a and b share stage 0; c runs alone in stage 1.
    std::map<std::string, int> stageOf;
    for (int c : root.children) {
        const CallNode &nd = f.nodes[static_cast<size_t>(c)];
        stageOf[clone.rpcs[static_cast<size_t>(nd.rpcId)].name] =
            nd.stage;
        EXPECT_FALSE(nd.async);
    }
    ASSERT_EQ(stageOf.size(), 3u);
    EXPECT_EQ(stageOf["a"], 0);
    EXPECT_EQ(stageOf["b"], 0);
    EXPECT_EQ(stageOf["c"], 1);
}

TEST(Infer, AsyncChildRecovered)
{
    AppConfig source = stagedApp();
    source.flows[0].nodes[3].async = true;  // c becomes fire-and-forget
    sim::ClusterModel cluster(source, 4, 3);
    storage::TraceStore store = profileApp(source, cluster, 100, 5);
    AppConfig clone = inferAppModel(store, storage::Query{});

    ASSERT_EQ(clone.flows.size(), 1u);
    const FlowConfig &f = clone.flows[0];
    bool sawAsync = false;
    for (const CallNode &nd : f.nodes)
        if (clone.rpcs[static_cast<size_t>(nd.rpcId)].name == "c") {
            EXPECT_TRUE(nd.async);
            sawAsync = true;
        }
    EXPECT_TRUE(sawAsync);
}

TEST(Infer, ExclusiveErrorRateRecovered)
{
    AppConfig source = stagedApp();
    source.rpcs[3].baseErrorProb = 0.25;  // c fails intrinsically
    sim::ClusterModel cluster(source, 4, 3);
    storage::TraceStore store = profileApp(source, cluster, 1500, 9);
    AppConfig clone = inferAppModel(store, storage::Query{});

    for (const RpcConfig &r : clone.rpcs) {
        if (r.name == "c") {
            EXPECT_GT(r.baseErrorProb, 0.15) << r.name;
            EXPECT_LT(r.baseErrorProb, 0.35) << r.name;
        } else {
            // Inherited child errors must not count as the parent's
            // own; untouched rpcs stay near zero.
            EXPECT_LT(r.baseErrorProb, 0.05) << r.name;
        }
    }
}

TEST(Infer, TimeoutsScaleWithObservedLatency)
{
    AppConfig source = stagedApp();
    sim::ClusterModel cluster(source, 4, 3);
    storage::TraceStore store = profileApp(source, cluster, 200, 5);
    InferOptions opts;
    opts.timeoutHeadroom = 10.0;
    AppConfig clone =
        inferAppModel(store, storage::Query{}, opts, nullptr);
    for (const RpcConfig &r : clone.rpcs) {
        EXPECT_GT(r.timeoutUs, 0) << r.name;
        // Headroom 10x the worst observation: never near the typical
        // latency, so replayed timeouts cannot fire spuriously.
        EXPECT_GT(r.timeoutUs, 5 * static_cast<int64_t>(
                                       std::exp(5.0)))
            << r.name;
    }
}

TEST(Infer, InferredJsonRoundTripsExactly)
{
    AppConfig source = stagedApp();
    sim::ClusterModel cluster(source, 4, 3);
    storage::TraceStore store = profileApp(source, cluster, 150, 5);
    AppConfig clone = inferAppModel(store, storage::Query{});

    std::string text = toJson(clone).dump(2);
    std::string err;
    util::Json doc = util::Json::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;
    AppConfig reloaded;
    ASSERT_TRUE(tryAppFromJson(doc, &reloaded, &err)) << err;
    EXPECT_EQ(toJson(reloaded).dump(2), text);
}

TEST(Infer, EmptyAndMalformedAccounting)
{
    InferStats stats;
    AppConfig empty = inferAppModel(std::vector<trace::Trace>{}, {},
                                    InferOptions{}, &stats);
    EXPECT_TRUE(empty.services.empty());
    EXPECT_EQ(stats.tracesUsed, 0u);

    // A trace with a dangling parent is skipped, not fatal.
    trace::Trace broken;
    broken.traceId = "t0";
    trace::Span s;
    s.spanId = "s1";
    s.parentSpanId = "missing";
    s.service = "svc";
    s.name = "op";
    broken.spans.push_back(s);
    AppConfig out = inferAppModel({broken}, {}, InferOptions{}, &stats);
    EXPECT_TRUE(out.services.empty());
    EXPECT_EQ(stats.tracesUsed, 0u);
    EXPECT_EQ(stats.tracesSkipped, 1u);
}

TEST(Infer, MaxTracesCapsConsumption)
{
    AppConfig source = stagedApp();
    sim::ClusterModel cluster(source, 4, 3);
    storage::TraceStore store = profileApp(source, cluster, 100, 5);
    InferStats stats;
    InferOptions opts;
    opts.maxTraces = 10;
    AppConfig clone =
        inferAppModel(store, storage::Query{}, opts, &stats);
    EXPECT_EQ(stats.tracesUsed, 10u);
    EXPECT_FALSE(clone.services.empty());
}

TEST(Infer, StoreWindowIsHalfOpen)
{
    // Inference windows the store by root start time; the window is
    // half-open [min, max): the min boundary trace is used, the max
    // boundary trace is not.
    AppConfig source = stagedApp();
    sim::ClusterModel cluster(source, 4, 3);
    sim::Simulator simulator(source, cluster, {.seed = 13});
    storage::TraceStore store;
    // Simulated requests all start at t=0; shift each trace to its
    // own arrival time the way live ingestion would stamp it.
    int64_t arrival = 1'000'000;
    for (sim::SimResult &r : simulator.simulateMany(3)) {
        for (trace::Span &s : r.trace.spans) {
            s.startUs += arrival;
            s.endUs += arrival;
        }
        store.insert(std::move(r.trace), 0, r.flowIndex);
        arrival += 1'000'000;
    }
    ASSERT_EQ(store.size(), 3u);

    storage::Query window;
    window.minStartUs = 1'000'000;  // exact first-trace boundary: in
    window.maxStartUs = 3'000'000;  // exact last-trace boundary: out
    InferStats stats;
    inferAppModel(store, window, InferOptions{}, &stats);
    EXPECT_EQ(stats.tracesUsed, 2u);
    EXPECT_EQ(stats.tracesSkipped, 0u);
}
