// sleuth — command-line front end over the library's file formats.
//
// Subcommands:
//   generate  --rpcs N [--seed S] [--name NAME] [--out DIR]
//             Generate a synthetic benchmark; write config.json and the
//             deployable artifacts (proto / services / k8s / compose).
//   simulate  --config CONFIG.json --count N [--seed S] [--nodes K]
//             [--chaos EXPECTED_FAULTS] --out TRACES.json
//             Simulate traces (optionally under a chaos plan); SLOs are
//             calibrated and embedded per trace record.
//   train     --traces TRACES.json [--epochs E] [--embed D]
//             [--hidden H] --out MODEL.json
//             Train the Sleuth GNN unsupervised and save it.
//   analyze   --model MODEL.json --traces TRACES.json
//             [--normal NORMAL.json] [--threads N]
//             Run counterfactual RCA on every SLO-violating trace
//             (N worker threads; 0 = hardware concurrency; results
//             are identical at any thread count).
//   ingest    --traces IN.json [--protocol otel|zipkin|jaeger] [--slo US]
//             Run a trace file through the collector front end and
//             print acceptance plus per-reason drop counters.
//   metrics   --traces IN.json [--model MODEL.json] [--normal N.json]
//             [--threads N] [--out FILE]
//             Ingest the traces (and, with a model, analyze the
//             SLO-violating ones), then print the process metrics
//             registry in Prometheus text exposition format.
//   wal       --dir DIR [--verify] [--compact]
//             Inspect a durable data directory (DESIGN.md §3.15):
//             per-segment frame counts, CRC status, and record-kind
//             histograms, snapshot validity, and a config-free replay
//             summary. --verify exits non-zero on any corruption;
//             --compact folds the whole log into a fresh snapshot +
//             one near-empty segment.
//   infer     (--store DIR | --traces IN.json) --out MODEL.json
//             [--name NAME] [--max-traces N]
//             Infer an AppConfig from observed traces (DESIGN.md
//             §3.16): either replay a durable data directory and read
//             its store, or load a trace records file. The model
//             replays through `simulate` unmodified.
//
// Trace files are JSON arrays of {"slo": us, "trace": {...}} records
// (the "records" format) or bare arrays of traces (slo 0).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <system_error>

#include "collector/collector.h"
#include "core/anomaly.h"
#include "durable/durable_log.h"
#include "durable/snapshot.h"
#include "obs/metrics.h"
#include "core/counterfactual.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "online/durable_state.h"
#include "sim/simulator.h"
#include "synth/codegen.h"
#include "synth/generator.h"
#include "synth/infer.h"
#include "trace/trace_json.h"
#include "util/file.h"
#include "util/logging.h"

#include "cli_flags.h"

using namespace sleuth;

namespace {

/** Minimal --key value argument parser. */
class Args
{
  public:
    Args(int argc, char **argv, int from)
    {
        for (int i = from; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                util::fatal("unexpected argument '", key, "'");
            if (i + 1 >= argc)
                util::fatal("missing value for ", key);
            values_[key.substr(2)] = argv[++i];
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = values_.find(key);
        if (it != values_.end())
            return it->second;
        if (fallback.empty())
            util::fatal("missing required option --", key);
        return fallback;
    }

    std::string
    getOptional(const std::string &key,
                const std::string &fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    /** --key as an integer in [lo, hi] (fatal otherwise). */
    int64_t
    getInt(const std::string &key, int64_t fallback, int64_t lo,
           int64_t hi) const
    {
        auto it = values_.find(key);
        return it == values_.end()
                   ? fallback
                   : cli::parse("--" + key, it->second, lo, hi);
    }

    /** --key as a number in [lo, hi] (fatal otherwise). */
    double
    getDouble(const std::string &key, double fallback, double lo,
              double hi) const
    {
        auto it = values_.find(key);
        return it == values_.end()
                   ? fallback
                   : cli::parse("--" + key, it->second, lo, hi);
    }

    bool has(const std::string &key) const
    {
        return values_.count(key) > 0;
    }

  private:
    std::map<std::string, std::string> values_;
};

std::string
readFile(const std::string &path)
{
    std::string text;
    if (!util::readFile(path, &text))
        util::fatal("cannot read ", path);
    return text;
}

void
writeFile(const std::string &path, const std::string &contents)
{
    std::ofstream out(path);
    if (!out)
        util::fatal("cannot write ", path);
    out << contents;
}

util::Json
parseFile(const std::string &path)
{
    std::string err;
    util::Json doc = util::Json::parse(readFile(path), &err);
    if (!err.empty())
        util::fatal(path, ": ", err);
    return doc;
}

/**
 * Load and parse an app model through the recoverable path so a typo
 * in a hand-edited (or inferred) model exits with a message naming
 * the offending field instead of aborting.
 */
synth::AppConfig
loadAppConfig(const std::string &path)
{
    synth::AppConfig app;
    std::string err;
    if (!synth::tryAppFromJson(parseFile(path), &app, &err))
        util::fatal(path, ": ", err);
    return app;
}

/**
 * Load a trained model through the checked path: a malformed model
 * file exits 1 naming the file and the field.
 */
core::SleuthGnn
loadModel(const std::string &path)
{
    std::string err;
    std::optional<core::SleuthGnn> model =
        core::SleuthGnn::tryFromJson(parseFile(path), &err);
    if (!model)
        util::fatal(path, ": ", err);
    return std::move(*model);
}

/**
 * Require an existing directory before handing it to the durable
 * layer, which creates missing directories as a side effect of
 * opening a log — a typo'd path would otherwise be silently created
 * and reported as an empty (healthy) store.
 */
void
requireDataDir(const std::string &dir, const char *cmd)
{
    std::error_code ec;
    std::filesystem::file_status st = std::filesystem::status(dir, ec);
    if (ec || !std::filesystem::exists(st))
        util::fatal(cmd, ": data directory '", dir,
                    "' does not exist");
    if (!std::filesystem::is_directory(st))
        util::fatal(cmd, ": '", dir, "' is not a directory");
}

struct TraceRecord
{
    trace::Trace trace;
    int64_t sloUs = 0;
};

/**
 * Decode a --traces array of records {"slo", "trace"} or bare traces;
 * a schema defect exits 1 naming the file and the field path.
 */
std::vector<TraceRecord>
loadRecords(const std::string &path)
{
    util::Json doc = parseFile(path);
    if (doc.type() != util::Json::Type::Array)
        util::fatal(path, ": document: expected an array");
    const util::Json::Array &elems = doc.asArray();
    std::vector<TraceRecord> out(elems.size());
    std::string err;
    for (size_t i = 0; i < elems.size(); ++i) {
        std::string at = '[' + std::to_string(i) + ']';
        const util::Json *trace = elems[i].find("trace");
        if (trace == nullptr) {
            out[i].trace = trace::traceFromJson(elems[i], &err);
        } else if (util::getOptionalInt(elems[i], "", "slo",
                                        &out[i].sloUs, &err)) {
            out[i].trace = trace::traceFromJson(*trace, &err);
            at += ".trace";
        }
        if (!err.empty())
            util::fatal(path, ": ", util::underPath(at, err));
    }
    return out;
}

/** What `analyze` and `metrics` feed the pipeline. */
struct AnalysisInput
{
    core::NormalProfile profile;
    std::vector<trace::Trace> anomalous;
    std::vector<int64_t> slos;
};

/**
 * Build the normal profile — from --normal, else from the
 * non-violating input traces — and the SLO-violating batch. Malformed
 * profile traces are skipped and counted on stderr instead of killing
 * the run (NormalProfile::add dies on them); a malformed violating
 * trace reaches the pipeline, which gives it an error verdict.
 */
AnalysisInput
loadAnalysisInput(const Args &args,
                  const std::vector<TraceRecord> &records)
{
    AnalysisInput in;
    size_t skipped = 0;
    auto profile = [&](const trace::Trace &t) {
        trace::TraceGraph g;
        if (trace::TraceGraph::tryBuild(t, &g, nullptr))
            in.profile.add(t);
        else
            ++skipped;
    };
    const bool normal_file = args.has("normal");
    if (normal_file)
        for (const TraceRecord &r : loadRecords(args.get("normal")))
            profile(r.trace);
    for (const TraceRecord &r : records) {
        if (core::SloDetector::isAnomalous(r.trace, r.sloUs)) {
            in.anomalous.push_back(r.trace);
            in.slos.push_back(r.sloUs);
        } else if (!normal_file) {
            profile(r.trace);
        }
    }
    in.profile.finalize();
    if (skipped > 0)
        util::warn("normal profile: skipped ", skipped,
                   " malformed trace(s)");
    return in;
}

void
saveRecords(const std::string &path,
            const std::vector<TraceRecord> &records)
{
    util::Json arr = util::Json::array();
    for (const TraceRecord &r : records) {
        util::Json j = util::Json::object();
        j.set("slo", r.sloUs);
        j.set("trace", trace::toJson(r.trace));
        arr.push(std::move(j));
    }
    writeFile(path, arr.dump());
}

int
cmdGenerate(const Args &args)
{
    synth::GeneratorParams params = synth::syntheticParams(
        static_cast<int>(args.getInt("rpcs", 64, 2, cli::kMaxRpcs)),
        static_cast<uint64_t>(args.getInt("seed", 1, 0, cli::kMaxInt)));
    params.name = args.getOptional("name", params.name);
    synth::AppConfig app = synth::generateApp(params);
    std::string out = args.getOptional("out", "./" + params.name);
    synth::writeFiles(synth::generateCode(app), out);
    std::printf("generated '%s' (%zu services, %zu rpcs, %zu flows)"
                " under %s\n",
                app.name.c_str(), app.services.size(),
                app.rpcs.size(), app.flows.size(), out.c_str());
    return 0;
}

int
cmdSimulate(const Args &args)
{
    uint64_t seed =
        static_cast<uint64_t>(args.getInt("seed", 1, 0, cli::kMaxInt));
    int nodes = static_cast<int>(args.getInt("nodes", 100, 1, cli::kMaxNodes));
    size_t count =
        static_cast<size_t>(args.getInt("count", 1000, 1, cli::kMaxTraces));
    double expected_faults = args.getDouble("chaos", 2.0, 0.0, 1e6);
    synth::AppConfig app = loadAppConfig(args.get("config"));

    sim::ClusterModel cluster(app, nodes, seed);
    sim::Simulator::calibrateSlos(app, cluster, 300, 99.0, seed);

    chaos::FaultPlan plan;
    if (args.has("chaos")) {
        util::Rng rng(seed ^ 0xc4a05u);
        chaos::ChaosParams cp;
        cp.containerProb = std::min(
            1.0, expected_faults / static_cast<double>(
                                       cluster.allInstances().size()));
        plan = chaos::planFaults(cluster.allInstances(), cp, rng);
        std::printf("chaos plan: %zu faults\n", plan.faults.size());
        for (const chaos::FaultSpec &f : plan.faults)
            std::printf("  %s on %s %s\n", toString(f.type),
                        toString(f.scope), f.target.c_str());
    }

    sim::Simulator simulator(app, cluster, {.seed = seed ^ 0x515u},
                             plan);
    std::vector<TraceRecord> records;
    records.reserve(count);
    size_t anomalous = 0;
    for (size_t i = 0; i < count; ++i) {
        sim::SimResult r = simulator.simulateOne();
        TraceRecord rec;
        rec.sloUs =
            app.flows[static_cast<size_t>(r.flowIndex)].sloUs;
        if (r.violatesSlo(rec.sloUs))
            ++anomalous;
        rec.trace = std::move(r.trace);
        records.push_back(std::move(rec));
    }
    saveRecords(args.get("out"), records);
    std::printf("wrote %zu traces (%zu SLO-violating) to %s\n",
                records.size(), anomalous,
                args.get("out").c_str());
    return 0;
}

int
cmdTrain(const Args &args)
{
    core::GnnConfig gc;
    gc.embedDim = static_cast<size_t>(args.getInt("embed", 8, 1, 1024));
    gc.hidden = static_cast<size_t>(args.getInt("hidden", 16, 1, 4096));
    core::TrainConfig tc;
    tc.epochs = static_cast<int>(args.getInt("epochs", 10, 1, 100'000));

    std::vector<TraceRecord> records =
        loadRecords(args.get("traces"));
    std::vector<trace::Trace> corpus;
    for (TraceRecord &r : records)
        corpus.push_back(std::move(r.trace));

    core::SleuthGnn model(gc);
    core::FeatureEncoder encoder(gc.embedDim);
    core::Trainer trainer(model, encoder, tc);
    double loss = trainer.train(corpus);
    writeFile(args.get("out"), model.save().dump());
    std::printf("trained on %zu traces (%d epochs, final loss %.4f);"
                " model -> %s\n",
                corpus.size(), tc.epochs, loss,
                args.get("out").c_str());
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    size_t threads =
        static_cast<size_t>(args.getInt("threads", 1, 0, cli::kMaxThreads));
    core::SleuthGnn model = loadModel(args.get("model"));
    core::FeatureEncoder encoder(model.config().embedDim);

    std::vector<TraceRecord> records =
        loadRecords(args.get("traces"));
    AnalysisInput in = loadAnalysisInput(args, records);

    // Per-trace RCA through the pipeline's clustering-off path: the
    // verdicts match a direct CounterfactualRca loop exactly, but the
    // batch fans out over --threads workers and malformed traces
    // degrade to per-trace error verdicts instead of killing the run.
    core::PipelineConfig cfg;
    cfg.clustering = false;
    cfg.numThreads = threads;
    core::SleuthPipeline pipeline(model, encoder, in.profile, cfg);
    core::PipelineResult res = pipeline.analyze(in.anomalous, in.slos);
    for (size_t i = 0; i < in.anomalous.size(); ++i) {
        const core::RcaResult &verdict = res.perTrace[i];
        std::printf("%s (%lld us / SLO %lld us): ",
                    in.anomalous[i].traceId.c_str(),
                    static_cast<long long>(
                        in.anomalous[i].rootDurationUs()),
                    static_cast<long long>(in.slos[i]));
        if (!verdict.error.empty()) {
            std::printf("(skipped: %s)\n", verdict.error.c_str());
            continue;
        }
        for (const std::string &svc : verdict.services)
            std::printf("%s ", svc.c_str());
        std::printf("%s\n",
                    verdict.resolved ? "" : "(unresolved)");
    }
    std::printf("analyzed %zu anomalous traces of %zu"
                " (%zu skipped as malformed)\n",
                in.anomalous.size() - res.skippedTraces, records.size(),
                res.skippedTraces);
    return 0;
}

/** One record of a records-format file: its trace's text and SLO. */
struct RecordText
{
    std::string_view trace;
    int64_t slo = 0;
};

/**
 * Check the syntax of `text` in one pull-reader pass and, when `sniff`,
 * read it as a records file if its first element is an object with a
 * `trace` key. Returns the file's defect, with Json::parse's message for
 * a syntax error anywhere, else the first record's defect ("" when
 * none). *records stays empty unless the text is a records file.
 */
std::string
scanRecords(std::string_view text, bool sniff,
            std::vector<RecordText> *records)
{
    util::JsonReader r(text);
    std::string defect;
    size_t seen = 0;
    bool is_records = false;
    if (!sniff)
        r.skipValue();
    else if (r.enter(util::Json::Type::Array))
        util::readElements(r, "", &defect, [&](std::string *why) {
            if (seen++ > 0 && !is_records) {
                r.skipValue();
                return;
            }
            RecordText rec;
            bool has_trace = false;
            util::JsonFields fields(
                {{"trace", true}, {"slo", false, &rec.slo}});
            bool object = fields.read(r, why, [&](int f, std::string_view) {
                // The last `trace` member wins, as in the DOM.
                const size_t from = r.offset();
                r.skipValue();
                if (f != 0)
                    return;
                fields.mark(0, nullptr);
                has_trace = true;
                rec.trace = text.substr(from, r.offset() - from);
            });
            if (seen == 1)
                is_records = object && has_trace;
            if (!is_records)
                why->clear();
            else if (object && !fields.defect(why))
                records->push_back(rec);
        });
    return r.verdict(defect);
}

int
cmdIngest(const Args &args)
{
    std::string proto_name = args.getOptional("protocol", "otel");
    collector::Protocol proto;
    if (proto_name == "otel")
        proto = collector::Protocol::Otel;
    else if (proto_name == "zipkin")
        proto = collector::Protocol::Zipkin;
    else if (proto_name == "jaeger")
        proto = collector::Protocol::Jaeger;
    else
        util::fatal("unknown protocol '", proto_name, "'");
    int64_t slo = args.getInt("slo", 0, 0, cli::kMaxInt);

    storage::TraceStore store;
    collector::TraceCollector coll(&store);

    std::string path = args.get("traces");
    std::string text = readFile(path);
    std::vector<RecordText> records;
    std::string defect =
        scanRecords(text, proto == collector::Protocol::Otel, &records);
    if (!defect.empty())
        util::fatal(path, ": ", defect);
    // The records format carries a per-trace SLO: ingest each record's
    // trace as its own single-trace payload so the SLO sticks. A trace
    // that breaks the schema is the collector's to reject; a broken
    // record envelope is the file's defect.
    for (const RecordText &rec : records)
        coll.ingest('[' + std::string(rec.trace) + ']', proto, rec.slo);
    if (records.empty())
        coll.ingest(text, proto, slo);

    const collector::CollectorStats &s = coll.stats();
    size_t anomalous = store.scan()
                           .filter([](const storage::Record *r) {
                               return r->anomalous();
                           })
                           .size();
    std::printf("ingested %s (%s): %zu traces accepted (%zu spans),"
                " %zu rejected (%zu spans)\n",
                path.c_str(), proto_name.c_str(),
                s.tracesAccepted, s.spansAccepted, s.tracesRejected,
                s.spansRejected);
    std::printf("  drops: orphan=%zu duplicate=%zu"
                " late-after-eviction=%zu malformed=%zu"
                " backpressure=%zu\n",
                s.droppedOrphan, s.droppedDuplicate, s.droppedLate,
                s.droppedMalformed, s.droppedBackpressure);
    std::printf("  stored: %zu records, %zu spans, %zu SLO-violating\n",
                store.size(), store.totalSpans(), anomalous);
    return 0;
}

int
cmdMetrics(const Args &args)
{
    // Exercise the instrumented paths in this process, then dump the
    // registry: ingestion always, batch analysis when a model is given.
    size_t threads =
        static_cast<size_t>(args.getInt("threads", 1, 0, cli::kMaxThreads));
    storage::TraceStore store;
    collector::TraceCollector coll(&store);
    std::vector<TraceRecord> records =
        loadRecords(args.get("traces"));
    for (const TraceRecord &r : records) {
        util::Json payload = util::Json::array();
        payload.push(trace::toJson(r.trace));
        coll.ingest(payload.dump(), collector::Protocol::Otel,
                    r.sloUs);
    }

    if (args.has("model")) {
        core::SleuthGnn model = loadModel(args.get("model"));
        core::FeatureEncoder encoder(model.config().embedDim);
        AnalysisInput in = loadAnalysisInput(args, records);
        core::PipelineConfig cfg;
        cfg.numThreads = threads;
        core::SleuthPipeline pipeline(model, encoder, in.profile, cfg);
        pipeline.analyze(in.anomalous, in.slos);
    }

    std::string text = obs::renderText();
    if (args.has("out")) {
        writeFile(args.get("out"), text);
        std::printf("metrics exposition -> %s\n",
                    args.get("out").c_str());
    } else {
        std::fputs(text.c_str(), stdout);
    }
    return 0;
}

int
cmdInfer(const Args &args)
{
    synth::InferOptions opts;
    opts.name = args.getOptional("name", "inferred");
    opts.maxTraces = static_cast<size_t>(
        args.getInt("max-traces", 0, 0, cli::kMaxInt));

    synth::InferStats stats;
    synth::AppConfig app;
    if (args.has("store")) {
        std::string dir = args.get("store");
        requireDataDir(dir, "infer");
        durable::DurableConfig cfg;
        cfg.dir = dir;
        online::RecoveryInfo info;
        online::DurableServingState state =
            online::recoverState(cfg, {}, &info);
        if (!info.haveData)
            util::fatal("infer: data directory '", dir,
                        "' holds no recoverable state");
        if (!info.ok)
            util::fatal("infer: cannot replay '", dir, "': ",
                        info.error);
        app = synth::inferAppModel(state.store, storage::Query{},
                                   opts, &stats);
    } else if (args.has("traces")) {
        std::vector<trace::Trace> traces;
        std::vector<int64_t> slos;
        for (TraceRecord &r : loadRecords(args.get("traces"))) {
            slos.push_back(r.sloUs);
            traces.push_back(std::move(r.trace));
        }
        app = synth::inferAppModel(traces, slos, opts, &stats);
    } else {
        util::fatal("infer requires --store DIR or --traces IN.json");
    }

    if (stats.tracesUsed == 0)
        util::fatal("infer: no usable traces (", stats.tracesSkipped,
                    " skipped as malformed)");
    writeFile(args.get("out"), toJson(app).dump(2) + "\n");
    std::printf("inferred '%s' from %zu traces / %zu spans"
                " (%zu skipped): %zu services, %zu rpcs, %zu flows"
                " -> %s\n",
                app.name.c_str(), stats.tracesUsed, stats.spans,
                stats.tracesSkipped, app.services.size(),
                app.rpcs.size(), app.flows.size(),
                args.get("out").c_str());
    return 0;
}

// Parses its own argv: --verify/--compact are value-less flags, which
// the shared Args parser (strictly --key value) does not model.
int
cmdWal(int argc, char **argv)
{
    std::string dir;
    bool verify = false;
    bool compact = false;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--dir" && i + 1 < argc)
            dir = argv[++i];
        else if (a == "--verify")
            verify = true;
        else if (a == "--compact")
            compact = true;
        else
            util::fatal("unknown wal option '", a,
                        "' (want --dir DIR [--verify] [--compact])");
    }
    if (dir.empty())
        util::fatal("wal requires --dir DIR");
    requireDataDir(dir, "wal");

    bool corrupt = false;

    // Per-segment valid-prefix scan + record-kind histogram.
    for (const auto &[index, path] : durable::listSegments(dir)) {
        durable::SegmentScan scan = durable::scanSegment(path);
        std::map<std::string, size_t> kinds;
        for (const durable::WalFrame &f : scan.frames)
            ++kinds[durable::toString(f.kind)];
        std::printf("segment %010llu: %zu frames, %llu/%llu bytes",
                    static_cast<unsigned long long>(index),
                    scan.frames.size(),
                    static_cast<unsigned long long>(scan.validBytes),
                    static_cast<unsigned long long>(scan.fileBytes));
        if (scan.torn) {
            std::printf("  TORN (%s)", scan.tornReason.c_str());
            corrupt = true;
        }
        std::printf("\n ");
        for (const auto &[kind, count] : kinds)
            std::printf(" %s=%zu", kind.c_str(), count);
        std::printf("\n");
    }
    for (const auto &[index, path] : durable::listSnapshots(dir)) {
        std::string payload;
        std::string err;
        bool ok = durable::readSnapshotFile(path, &payload, &err);
        std::printf("snapshot %010llu: %s (%zu bytes)\n",
                    static_cast<unsigned long long>(index),
                    ok ? "valid" : err.c_str(), payload.size());
        if (!ok)
            corrupt = true;
    }

    // Config-free replay: the epoch records / snapshot carry the
    // detector configuration, so no model or service config is needed.
    durable::DurableConfig cfg;
    cfg.dir = dir;
    online::RecoveryInfo info;
    online::DurableServingState state =
        online::recoverState(cfg, {}, &info);
    if (!info.haveData) {
        std::printf("replay: empty data directory\n");
    } else if (info.ok) {
        std::printf(
            "replay: ok — snapshot=%s polls=%llu frames=%llu "
            "discarded-tail=%llu -> %zu records / %zu spans, "
            "%zu incidents, watermark %lld, store fingerprint "
            "%016llx\n",
            info.usedSnapshot ? "yes" : "no",
            static_cast<unsigned long long>(info.pollsReplayed),
            static_cast<unsigned long long>(info.framesReplayed),
            static_cast<unsigned long long>(info.discardedTailFrames),
            state.store.size(), state.store.totalSpans(),
            state.incidents.size(),
            static_cast<long long>(state.watermarkUs),
            static_cast<unsigned long long>(
                state.store.contentFingerprint()));
    } else {
        std::printf("replay: FAILED — %s\n", info.error.c_str());
        corrupt = true;
    }

    if (compact) {
        if (corrupt && !info.ok)
            util::fatal("refusing to compact: the log does not "
                        "replay cleanly");
        if (!info.haveData) {
            std::printf("nothing to compact\n");
        } else {
            durable::DurableLog log(cfg);
            durable::RecoveredLog recovered = log.recover();
            std::string epoch =
                online::encodeEpochPayload(state.detectorConfig);
            std::string err;
            if (!log.openForAppend(recovered, epoch, &err))
                util::fatal("cannot open log for compaction: ", err);
            if (!log.rotateWithSnapshot(
                    online::encodeSnapshotPayload(state), epoch, &err))
                util::fatal("compaction failed: ", err);
            std::printf("compacted -> snapshot %llu + segment %llu\n",
                        static_cast<unsigned long long>(
                            log.segmentIndex()),
                        static_cast<unsigned long long>(
                            log.segmentIndex()));
        }
    }
    return verify && corrupt ? 1 : 0;
}

void
usage()
{
    std::printf(
        "usage: sleuth <generate|simulate|train|analyze|ingest|"
        "metrics|wal|infer> [--opt value]...\n"
        "  generate --rpcs N [--seed S] [--name NAME] [--out DIR]\n"
        "  simulate --config CONFIG.json --count N --out OUT.json\n"
        "           [--seed S] [--nodes K] [--chaos EXPECTED]\n"
        "  train    --traces IN.json --out MODEL.json [--epochs E]\n"
        "           [--embed D] [--hidden H]\n"
        "  analyze  --model MODEL.json --traces IN.json\n"
        "           [--normal NORMAL.json] [--threads N]\n"
        "  ingest   --traces IN.json [--protocol otel|zipkin|jaeger]\n"
        "           [--slo US]  (validate + store; prints accept/drop\n"
        "           counters by reason)\n"
        "  metrics  --traces IN.json [--model MODEL.json]\n"
        "           [--normal N.json] [--threads N] [--out FILE]\n"
        "           (ingest, optionally analyze, then print the\n"
        "           Prometheus text exposition of process metrics)\n"
        "  wal      --dir DIR [--verify] [--compact]\n"
        "           (inspect a durable data directory: segment CRC\n"
        "           status, record-kind histograms, replay summary;\n"
        "           --verify exits non-zero on corruption; --compact\n"
        "           folds the log into a fresh snapshot)\n"
        "  infer    (--store DIR | --traces IN.json) --out MODEL.json\n"
        "           [--name NAME] [--max-traces N]\n"
        "           (infer an app model from observed traces; the\n"
        "           model replays through `simulate` unmodified)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "wal")
        return cmdWal(argc, argv);
    Args args(argc, argv, 2);
    if (cmd == "generate")
        return cmdGenerate(args);
    if (cmd == "simulate")
        return cmdSimulate(args);
    if (cmd == "train")
        return cmdTrain(args);
    if (cmd == "analyze")
        return cmdAnalyze(args);
    if (cmd == "ingest")
        return cmdIngest(args);
    if (cmd == "metrics")
        return cmdMetrics(args);
    if (cmd == "infer")
        return cmdInfer(args);
    usage();
    return 2;
}
