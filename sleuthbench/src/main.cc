// The Sleuth benchmark program.
//
//   sleuthbench --workload <storm_batch|serve_steady|serve_storm>
//               --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it alternates untraced and traced units of work,
// replays every layer from outside, reports the per-layer metrics,
// prints self time per layer and writes its spans as trace JSON into
// the output directory. Either way it prints a metric table
// (name, value, unit, samples) and, as the last line, one JSON result
// object. The exit code is nonzero when a correctness check failed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "report.h"
#include "tracer.h"
#include "workloads.h"

using namespace sleuthbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every workload reports each (BENCHMARK.json). */
const std::vector<std::string> kEndToEnd = {
    "setup_s",
    "peak_rss_mb",
    "failed_fraction",
    "rca_top3_hit_rate",
    "ingest_spans_per_s",
    "latency_ms_p50",
    "latency_ms_p75",
    "verdict_ms_p50",
};

/**
 * Per-layer metrics of the traced run. A layer a workload does not
 * exercise reports 0 there.
 */
const std::vector<MetricDef> kPerLayer = {
    {"util.json_parse_ms", "ms"},
    {"collector.normalize_ms", "ms"},
    {"collector.rejected_traces", "count"},
    {"storage.insert_ms", "ms"},
    {"storage.query_ms", "ms"},
    {"trace.materialize_ms", "ms"},
    {"storage.evicted_records", "count"},
    {"storage.bytes_per_span", "bytes"},
    {"trace.graph_build_ms", "ms"},
    {"distance.encode_ms", "ms"},
    {"distance.matrix_ms", "ms"},
    {"distance.pairs", "count"},
    {"cluster.hdbscan_ms", "ms"},
    {"cluster.representatives_ms", "ms"},
    {"cluster.clusters", "count"},
    {"cluster.noise_traces", "count"},
    {"core.rca_ms", "ms"},
    {"core.rca_calls", "count"},
    {"core.rca_iterations", "count"},
    {"core.rca_resolved_ratio", "ratio"},
    {"core.feature_encode_us", "us"},
    {"core.gnn_propagate_us", "us"},
    {"core.analyze_ms", "ms"},
    {"core.pipeline_residual_ms", "ms"},
    {"core.incident_analyze_ms", "ms"},
    {"core.cache_hit_ratio.encoding", "ratio"},
    {"core.cache_hit_ratio.distance", "ratio"},
    {"core.cache_hit_ratio.verdict", "ratio"},
    {"core.cache_hit_ratio.batch", "ratio"},
    {"core.cache_hit_ratio.matrix_prefix", "ratio"},
    {"online.ingest_call_ns_p50", "ns"},
    {"online.ingest_call_ns_p99", "ns"},
    {"online.ingest_busy_ms", "ms"},
    {"online.poll_busy_ms", "ms"},
    {"online.drain_ms", "ms"},
    {"online.spans_per_poll", "spans"},
    {"online.assemble_ms", "ms"},
    {"online.detect_ms", "ms"},
    {"online.poll_residual_ms", "ms"},
    {"online.detection_latency_ms_p50", "ms"},
    {"durable.append_ms", "ms"},
    {"durable.commit_ms", "ms"},
    {"durable.wal_bytes_per_span", "bytes"},
    {"durable.snapshot_ms", "ms"},
    {"durable.recovery_ms_p50", "ms"},
    {"nn.train_step_ms", "ms"},
    {"util.pool_speedup_4t", "x"},
    {"bench.tracing_overhead_pct", "%"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "sleuthbench: %s\nusage: sleuthbench --workload "
                 "<storm_batch|serve_steady|serve_storm> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    opts.outDir = ".bench_out";
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opts.workload = value;
        } else if (key == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0')
                return usage("--seed needs a whole number");
        } else if (key == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(opts.seconds > 0))
                return usage("--seconds needs a positive number");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            opts.trace = value == "1";
        } else if (key == "--out") {
            opts.outDir = value;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (argc % 2 != 1)
        return usage("arguments come in --key value pairs");
    std::error_code ec;
    std::filesystem::create_directories(opts.outDir, ec);
    if (ec)
        return usage(("cannot create " + opts.outDir).c_str());

    Report report;
    Tracer tracer(opts.trace);
    if (opts.workload == "storm_batch")
        runStormBatch(opts, report, tracer);
    else if (opts.workload == "serve_steady" || opts.workload == "serve_storm")
        runServe(opts, report, tracer);
    else
        return usage("unknown workload");

    std::vector<std::string> keep;
    if (opts.trace) {
        for (const MetricDef &m : kPerLayer) {
            keep.push_back(m.name);
            bool present = false;
            for (const Metric &have : report.metrics())
                present |= have.name == m.name;
            if (!present)
                report.set(m.name, 0.0, m.unit, 0);
        }
        tracer.printSelfTimes();
        std::string path = opts.outDir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".trace.json";
        if (tracer.writeJson(path))
            std::printf("spans written to %s\n", path.c_str());
        else
            report.fail("cannot write " + path);
    } else {
        for (const std::string &name : kEndToEnd) {
            keep.push_back(name);
            if (report.get(name) == 0.0)
                report.fail("end-to-end metric " + name + " is missing or 0");
        }
    }
    report.print(keep);
    return report.correct() ? 0 : 1;
}
