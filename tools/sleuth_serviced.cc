// sleuth_serviced — drive the online serving layer from the
// discrete-event simulator under a chaos schedule.
//
// The tool generates a synthetic application, calibrates SLOs, trains
// the Sleuth GNN on a healthy warmup corpus, then streams a Poisson
// request load through the streaming ingestion path: spans delivered
// out of order, late, optionally duplicated, split across payload
// boundaries. Mid-run a fault phase opens (planFixedFaults) and later
// clears, so the storm detector must open, analyze, and resolve an
// incident online. On exit the tool prints a metrics document: ingest
// rate, assembly backlog and drop reasons, storage/eviction counters,
// detection and RCA latency, and every incident record.
//
// With --metrics-text the process metrics registry (obs::renderText)
// is snapshotted to FILE in Prometheus text exposition format every
// --metrics-every polls and once after the final drain — the textfile
// pattern a node-exporter-style scraper picks up.
//
// With --infer-out the daemon snapshots an application model inferred
// from the live trace store (synth::inferAppModel, DESIGN.md §3.16)
// every --infer-every polls and once after the final drain — the
// profile-and-clone hook: the file replays through `sleuth simulate`
// unmodified.
//
//   sleuth_serviced [--rpcs N] [--seed S] [--nodes K] [--requests R]
//                   [--rate RPS] [--threads T] [--poll-ms MS]
//                   [--faults F] [--duplicate P] [--max-spans BUDGET]
//                   [--ring-capacity SPANS] [--shed-budget SPANS]
//                   [--shed-policy drop-newest|drop-oldest|sample]
//                   [--data-dir DIR] [--fsync-policy always|group|off]
//                   [--snapshot-every POLLS]
//                   [--out METRICS.json]
//                   [--metrics-text FILE] [--metrics-every POLLS]
//                   [--infer-out MODEL.json] [--infer-every POLLS]
//
// --ring-capacity bounds the service's one MPSC ingest ring (DESIGN.md
// §3.13); --shed-budget caps the spans the service admits per poll,
// the excess shed deterministically by --shed-policy.
//
// --data-dir enables the durable store (DESIGN.md §3.15): on startup
// the daemon auto-recovers whatever the directory holds (newest valid
// snapshot + committed WAL polls) and from then on every poll seals
// one group-committed, CRC32C-checksummed commit group. --fsync-policy
// picks when frames reach disk (default group: one fsync per poll);
// --snapshot-every rotates the log into a fresh snapshot every N poll
// commits (0 = never; the WAL then grows unbounded until a manual
// `sleuth wal --compact`).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <system_error>

#include "chaos/fault.h"
#include "durable/durable_log.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "online/live_source.h"
#include "online/service.h"
#include "sim/cluster_model.h"
#include "sim/simulator.h"
#include "synth/generator.h"
#include "synth/infer.h"
#include "util/json.h"
#include "util/logging.h"

#include "cli_flags.h"

using namespace sleuth;

namespace {

/** key's value as an integer in [lo, hi] (fatal otherwise). */
int64_t
intArg(int argc, char **argv, const std::string &key, int64_t fallback,
       int64_t lo, int64_t hi)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (key == argv[i])
            return cli::parse(key, argv[i + 1], lo, hi);
    return fallback;
}

/** key's value as a number in [lo, hi] (fatal otherwise). */
double
doubleArg(int argc, char **argv, const std::string &key, double fallback,
          double lo, double hi)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (key == argv[i])
            return cli::parse(key, argv[i + 1], lo, hi);
    return fallback;
}

std::string
strArg(int argc, char **argv, const std::string &key,
       const std::string &fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (key == argv[i])
            return argv[i + 1];
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = static_cast<uint64_t>(
        intArg(argc, argv, "--seed", 7, 0, cli::kMaxInt));
    int rpcs =
        static_cast<int>(intArg(argc, argv, "--rpcs", 24, 2, cli::kMaxRpcs));
    int nodes =
        static_cast<int>(intArg(argc, argv, "--nodes", 12, 1, cli::kMaxNodes));
    size_t requests = static_cast<size_t>(
        intArg(argc, argv, "--requests", 3000, 1, 1'000'000));
    double rate = doubleArg(argc, argv, "--rate", 400.0, 1e-3, 1e7);
    size_t threads = static_cast<size_t>(
        intArg(argc, argv, "--threads", 2, 1, cli::kMaxThreads));
    int64_t poll_ms =
        intArg(argc, argv, "--poll-ms", 250, 1, 3'600'000);
    size_t faults =
        static_cast<size_t>(intArg(argc, argv, "--faults", 2, 0, 1000));
    double duplicate = doubleArg(argc, argv, "--duplicate", 0.02, 0.0, 1.0);
    size_t max_spans = static_cast<size_t>(
        intArg(argc, argv, "--max-spans", 400'000, 1, cli::kMaxInt));
    size_t ring_capacity = static_cast<size_t>(
        intArg(argc, argv, "--ring-capacity", 1 << 16, 1, 1 << 20));
    size_t shed_budget = static_cast<size_t>(
        intArg(argc, argv, "--shed-budget", 0, 0, cli::kMaxInt));
    std::string shed_policy_name =
        strArg(argc, argv, "--shed-policy", "drop-newest");
    online::ShedPolicy shed_policy;
    if (!online::shedPolicyFromString(shed_policy_name, &shed_policy))
        util::fatal("unknown --shed-policy '", shed_policy_name,
                    "' (want drop-newest, drop-oldest, or sample)");
    std::string data_dir = strArg(argc, argv, "--data-dir", "");
    std::string fsync_policy_name =
        strArg(argc, argv, "--fsync-policy", "group");
    durable::FsyncPolicy fsync_policy;
    if (!durable::fsyncPolicyFromString(fsync_policy_name,
                                        &fsync_policy))
        util::fatal("unknown --fsync-policy '", fsync_policy_name,
                    "' (want always, group, or off)");
    uint64_t snapshot_every = static_cast<uint64_t>(
        intArg(argc, argv, "--snapshot-every", 64, 0, cli::kMaxInt));
    std::string out = strArg(argc, argv, "--out", "");
    std::string metrics_text =
        strArg(argc, argv, "--metrics-text", "");
    int64_t metrics_every =
        intArg(argc, argv, "--metrics-every", 4, 1, cli::kMaxInt);
    std::string infer_out = strArg(argc, argv, "--infer-out", "");
    int64_t infer_every =
        intArg(argc, argv, "--infer-every", 16, 1, cli::kMaxInt);

    // Validate the data directory before the expensive warmup and
    // training phases: a typo'd or uncreatable --data-dir must fail
    // here with a clear message, not minutes later.
    if (!data_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(data_dir, ec);
        if (ec)
            util::fatal("--data-dir ", data_dir,
                        ": cannot create data directory (",
                        ec.message(), ")");
        if (!std::filesystem::is_directory(data_dir))
            util::fatal("--data-dir ", data_dir,
                        ": not a directory");
    }

    // --- Application, deployment, SLOs. ---
    synth::AppConfig app =
        synth::generateApp(synth::syntheticParams(rpcs, seed));
    sim::ClusterModel cluster(app, nodes, seed);
    if (faults > cluster.allInstances().size())
        util::fatal("--faults ", faults, " exceeds the ",
                    cluster.allInstances().size(),
                    " containers of the generated cluster");
    sim::Simulator::calibrateSlos(app, cluster, 300, 99.0, seed);

    // --- Train on a healthy warmup corpus. ---
    sim::Simulator warmup(app, cluster, {.seed = seed ^ 0x9a17u});
    std::vector<trace::Trace> corpus;
    corpus.reserve(400);
    for (size_t i = 0; i < 400; ++i)
        corpus.push_back(warmup.simulateOne().trace);
    eval::SleuthAdapter adapter;
    adapter.fit(corpus);
    std::printf("trained on %zu warmup traces; %zu flows, %zu services\n",
                corpus.size(), app.flows.size(), app.services.size());

    // --- Chaos schedule: healthy -> faulty -> healthy. ---
    int64_t total_us = static_cast<int64_t>(
        static_cast<double>(requests) / rate * 1e6);
    chaos::FaultSchedule schedule;
    if (faults > 0) {
        util::Rng chaos_rng(seed ^ 0xc4a05u);
        chaos::FaultPlan plan = chaos::planFixedFaults(
            cluster.allInstances(), faults, chaos::FaultScope::Container,
            {}, chaos_rng);
        schedule.phases.push_back({0, {}});
        schedule.phases.push_back({total_us * 3 / 10, plan});
        schedule.phases.push_back({total_us * 7 / 10, {}});
        for (const chaos::FaultSpec &f : plan.faults)
            std::printf("fault: %s on %s %s\n", toString(f.type),
                        toString(f.scope), f.target.c_str());
    }

    // --- Online service. ---
    online::OnlineConfig cfg;
    cfg.endpoints = online::endpointProfiles(app);
    cfg.retention.maxSpans = max_spans;
    cfg.assembler.latenessUs = 150'000;
    cfg.assembler.quietGapUs = 100'000;
    cfg.detector.bucketUs = 500'000;
    cfg.detector.windowBuckets = 8;
    cfg.ringCapacitySpans = ring_capacity;
    cfg.shedBudgetSpans = shed_budget;
    cfg.shedPolicy = shed_policy;
    online::OnlineService service(adapter.model(), adapter.encoder(),
                                  adapter.profile(), cfg);

    if (!data_dir.empty()) {
        durable::DurableConfig dcfg;
        dcfg.dir = data_dir;
        dcfg.fsyncPolicy = fsync_policy;
        dcfg.snapshotEveryPolls = snapshot_every;
        online::RecoveryInfo rec = service.enableDurability(dcfg);
        if (!rec.ok)
            util::fatal("durable recovery failed: ", rec.error);
        if (rec.haveData)
            std::printf(
                "recovered %s: snapshot=%s polls=%llu frames=%llu "
                "discarded-tail=%llu torn-segments=%llu -> %zu traces, "
                "%zu incidents, watermark %lld\n",
                data_dir.c_str(), rec.usedSnapshot ? "yes" : "no",
                static_cast<unsigned long long>(rec.pollsReplayed),
                static_cast<unsigned long long>(rec.framesReplayed),
                static_cast<unsigned long long>(
                    rec.discardedTailFrames),
                static_cast<unsigned long long>(rec.tornSegments),
                service.stats().tracesStored,
                service.incidents().size(),
                static_cast<long long>(service.watermarkUs()));
        else
            std::printf("durable store %s: fresh data directory "
                        "(fsync=%s, snapshot-every=%llu)\n",
                        data_dir.c_str(),
                        durable::toString(fsync_policy),
                        static_cast<unsigned long long>(snapshot_every));
    }

    online::LiveSourceConfig live;
    live.seed = seed;
    live.requests = requests;
    live.arrivalRatePerSec = rate;
    live.ingestThreads = threads;
    live.pollIntervalUs = poll_ms * 1000;
    live.duplicateProb = duplicate;
    live.schedule = schedule;
    size_t snapshots = 0;
    size_t inferred_snapshots = 0;
    // Declared alongside snapshots: the onPoll lambda captures them by
    // reference and runs inside runLiveLoad, after the if-block ends.
    int64_t polls = 0;
    // Snapshot an inferred model from the live store (the store is
    // only mutated on the driver thread, which also runs onPoll, so
    // reading it between polls is race-free).
    auto writeInferred = [&]() {
        synth::InferOptions opts;
        opts.name = app.name + "-inferred";
        synth::InferStats istats;
        synth::AppConfig model = synth::inferAppModel(
            service.store(), storage::Query{}, opts, &istats);
        if (istats.tracesUsed == 0)
            return;
        std::ofstream f(infer_out);
        if (!f)
            util::fatal("cannot write ", infer_out);
        f << toJson(model).dump(2) << "\n";
        ++inferred_snapshots;
    };
    if (!metrics_text.empty() || !infer_out.empty()) {
        // Periodic snapshots on the driver thread: rewrite each file
        // every Nth poll so a scraper always sees a complete document.
        live.onPoll = [&](int64_t) {
            int64_t n = polls++;
            if (!metrics_text.empty() && n % metrics_every == 0) {
                std::ofstream f(metrics_text);
                if (!f)
                    util::fatal("cannot write ", metrics_text);
                f << obs::renderText();
                ++snapshots;
            }
            if (!infer_out.empty() && n % infer_every == 0)
                writeInferred();
        };
    }
    online::LiveRunResult run = online::runLiveLoad(
        app, cluster, {.seed = seed ^ 0x515u}, live, &service);

    if (!metrics_text.empty()) {
        // Final snapshot: everything the drain flushed is included.
        std::ofstream f(metrics_text);
        if (!f)
            util::fatal("cannot write ", metrics_text);
        f << obs::renderText();
        ++snapshots;
        std::printf("metrics exposition -> %s (%zu snapshots)\n",
                    metrics_text.c_str(), snapshots);
    }

    if (!infer_out.empty()) {
        // Final model: everything the drain stored is included.
        writeInferred();
        if (inferred_snapshots == 0)
            util::fatal("--infer-out ", infer_out,
                        ": no traces stored, nothing to infer");
        std::printf("inferred model -> %s (%zu snapshots)\n",
                    infer_out.c_str(), inferred_snapshots);
    }

    // --- Report. ---
    util::Json doc = service.statsJson();
    if (service.durable()) {
        char fp[24];
        std::snprintf(fp, sizeof fp, "%016llx",
                      static_cast<unsigned long long>(
                          service.servingFingerprint()));
        doc.set("servingFingerprint", std::string(fp));
    }
    doc.set("requests", run.requests);
    doc.set("spansDelivered", run.spansDelivered);
    doc.set("anomalousSimulated", run.anomalousSimulated);
    doc.set("ingestWallMillis", run.ingestWallMillis);
    doc.set("spansPerSec", run.spansPerSec);
    util::Json latencies = util::Json::array();
    for (int64_t l : run.detectionLatenciesUs)
        latencies.push(util::Json(l));
    doc.set("detectionLatenciesUs", std::move(latencies));
    util::Json incidents = util::Json::array();
    for (const online::Incident &incident : service.incidents())
        incidents.push(online::toJson(incident));
    doc.set("incidents", std::move(incidents));

    std::string text = doc.dump();
    if (!out.empty()) {
        std::ofstream f(out);
        if (!f)
            util::fatal("cannot write ", out);
        f << text;
        std::printf("metrics -> %s\n", out.c_str());
    } else {
        std::printf("%s\n", text.c_str());
    }

    online::OnlineStats stats = service.stats();
    std::printf("ingested %zu spans at %.0f spans/sec; stored %zu"
                " traces; %zu incidents (%zu analyzed, %zu resolved)\n",
                stats.spansIngested, run.spansPerSec, stats.tracesStored,
                stats.incidentsOpened, stats.incidentsAnalyzed,
                stats.incidentsResolved);
    for (const online::Incident &incident : service.incidents()) {
        std::printf("incident #%zu [%s]", incident.id,
                    online::toString(incident.state));
        for (const auto &[svc, votes] : incident.rankedRootCauses)
            std::printf(" %s(%zu)", svc.c_str(), votes);
        std::printf("\n");
    }
    return 0;
}
