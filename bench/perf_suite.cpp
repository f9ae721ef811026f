// Performance suite for the storm-pipeline hot paths: pairwise
// distance-matrix construction, end-to-end SleuthPipeline::analyze on
// a trace storm, counterfactual RCA throughput, and GNN training
// throughput. Every row is an absolute measurement; the bitwise
// oracles for the optimized paths live in the unit tests
// (MergeJaccard.MatchesHashMapReference,
// DistanceMatrix.FromSpanSetsMatchesPairwiseJaccard,
// PropagateFrom.RcaVerdictsIdenticalWithAndWithoutIncremental).
// Results are written as machine-readable {metric, value, unit} rows
// to BENCH_pipeline.json (path overridable via argv[1]).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/trainer.h"
#include "distance/distance_matrix.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/trace_store.h"
#include "synth/generator.h"
#include "synth/infer.h"
#include "trace/columnar.h"
#include "util/json.h"
#include "util/simd.h"

using namespace sleuth;
using namespace sleuth::core;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Best-of-n wall time of a thunk, in milliseconds. */
template <typename Fn>
double
bestOfMs(int reps, Fn &&fn)
{
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        fn();
        best = std::min(best, msSince(t0));
    }
    return best;
}

// ---------------------------------------------------------------------
// Workload construction.
// ---------------------------------------------------------------------

std::vector<distance::WeightedSpanSet>
encodeAll(const std::vector<trace::Trace> &traces)
{
    std::vector<distance::WeightedSpanSet> sets;
    sets.reserve(traces.size());
    for (const trace::Trace &t : traces) {
        trace::TraceGraph g = trace::TraceGraph::build(t);
        sets.push_back(distance::encodeSpanSet(t, g));
    }
    return sets;
}

int64_t
stormSlo(const std::vector<trace::Trace> &traces)
{
    // An SLO below the storm's median root latency: most traces
    // violate it, so RCA actually iterates (the realistic regime).
    std::vector<int64_t> durs;
    durs.reserve(traces.size());
    for (const trace::Trace &t : traces)
        durs.push_back(t.rootDurationUs());
    std::nth_element(durs.begin(), durs.begin() + durs.size() / 2,
                     durs.end());
    return std::max<int64_t>(1, durs[durs.size() / 2] / 2);
}

struct Row
{
    std::string metric;
    double value;
    std::string unit;
    /** Optional annotation (e.g. "skipped_single_core"). */
    std::string note;
};

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path =
        argc > 1 ? argv[1] : "BENCH_pipeline.json";
    std::vector<Row> rows;

    // --- Shared fixture: simulated application, trained model. ---
    synth::AppConfig app =
        synth::generateApp(synth::syntheticParams(28, 11));
    sim::ClusterModel cluster_model(app, 10, 1);
    sim::Simulator simulator(app, cluster_model, {.seed = 5});
    std::vector<trace::Trace> corpus;
    for (int i = 0; i < 192; ++i)
        corpus.push_back(simulator.simulateOne().trace);
    NormalProfile profile;
    for (const trace::Trace &t : corpus)
        profile.add(t);
    profile.finalize();
    GnnConfig gc;
    gc.embedDim = 8;
    gc.hidden = 16;
    gc.seed = 4;
    SleuthGnn model(gc);
    FeatureEncoder encoder(8);

    // --- (d) Training throughput. ---
    {
        TrainConfig tc;
        tc.epochs = 3;
        tc.tracesPerBatch = 16;
        Trainer trainer(model, encoder, tc);
        Clock::time_point t0 = Clock::now();
        trainer.train(corpus);
        double ms = msSince(t0);
        double steps = static_cast<double>(tc.epochs) *
                       std::ceil(static_cast<double>(corpus.size()) /
                                 static_cast<double>(tc.tracesPerBatch));
        rows.push_back(
            {"train_steps_per_sec", steps / (ms / 1000.0), "steps/s"});
        std::printf("training: %.0f steps in %.1f ms\n", steps, ms);
    }

    // --- (a) Pairwise distance matrix, 256- and 1024-trace storms. ---
    // A storm mixing a handful of failure modes (flows), the regime
    // clustering is built for: HDBSCAN's excess-of-mass selection
    // never selects the root cluster, so a single homogeneous blob
    // would (correctly) come back as all noise.
    sim::Simulator storm_sim(app, cluster_model, {.seed = 17});
    int num_flows =
        std::min<int>(4, static_cast<int>(app.flows.size()));
    std::vector<trace::Trace> storm1024;
    for (int i = 0; i < 1024; ++i)
        storm1024.push_back(
            storm_sim.simulateFlow(i % num_flows).trace);
    std::vector<trace::Trace> storm256(storm1024.begin(),
                                       storm1024.begin() + 256);
    for (size_t n : {size_t{256}, size_t{1024}}) {
        std::vector<trace::Trace> traces(storm1024.begin(),
                                         storm1024.begin() +
                                             static_cast<long>(n));
        std::vector<distance::WeightedSpanSet> sets =
            encodeAll(traces);
        distance::DistanceMatrix m;
        double ms = bestOfMs(3, [&] {
            m = distance::DistanceMatrix::fromSpanSets(sets);
        });
        rows.push_back(
            {"distance_matrix_" + std::to_string(n) + "_ms", ms, "ms"});
        std::printf("distance matrix n=%zu: %.2f ms\n", n, ms);
        SLEUTH_ASSERT(m.size() == n, "distance matrix size");
    }

    // --- (b) End-to-end storm analysis, 256 traces. ---
    {
        std::vector<int64_t> slos(storm256.size(),
                                  stormSlo(storm256));
        PipelineConfig cfg;
        SleuthPipeline pipeline(model, encoder, profile, cfg);

        // Warm the encoder's embedding cache so the timed runs pay no
        // first-touch costs.
        PipelineResult res = pipeline.analyze(storm256, slos);
        double ms = bestOfMs(
            3, [&] { res = pipeline.analyze(storm256, slos); });
        if (std::getenv("SLEUTH_STAGE_PROBE")) {
            std::string text = obs::renderText();
            size_t pos = 0;
            while ((pos = text.find("sleuth_pipeline_stage_ms", pos)) !=
                   std::string::npos) {
                size_t eol = text.find('\n', pos);
                std::fprintf(stderr, "%s\n",
                             text.substr(pos, eol - pos).c_str());
                pos = eol;
            }
        }

        SLEUTH_ASSERT(res.perTrace.size() == storm256.size(),
                      "result size");
        SLEUTH_ASSERT(res.distanceEvaluations ==
                          storm256.size() * (storm256.size() - 1) / 2,
                      "distance evaluation count");

        rows.push_back({"e2e_analyze_256_ms", ms, "ms"});
        rows.push_back({"e2e_analyze_256_distance_evals",
                        static_cast<double>(res.distanceEvaluations),
                        "pairs"});
        std::printf("e2e analyze n=256: %.1f ms, %d clusters, %zu rca "
                    "invocations\n",
                    ms, res.numClusters, res.rcaInvocations);
    }

    // --- (e) Thread-pool scaling on the 256-trace storm. ---
    // The parallel engine is deterministic: every row set below is
    // produced from bitwise-identical results (asserted), only the
    // wall time varies with the worker count. On a single-core host
    // the speedup is bounded at ~1x; the hardware_concurrency row
    // records what this machine could exploit.
    {
        std::vector<int64_t> slos(storm256.size(),
                                  stormSlo(storm256));
        const size_t cores = std::thread::hardware_concurrency();
        PipelineResult ref;
        double t1_ms = 0.0;
        for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
            // On a single-core host the >1-thread timings measure
            // oversubscription, not parallel speedup: a "0.84x" row
            // would read as a regression. Emit annotated placeholders
            // instead of misleading numbers.
            if (threads > 1 && cores <= 1) {
                rows.push_back({"e2e_analyze_256_t" +
                                    std::to_string(threads) + "_ms",
                                0.0, "ms", "skipped_single_core"});
                if (threads == 4)
                    rows.push_back(
                        {"e2e_analyze_256_parallel_speedup_4t", 0.0,
                         "x", "skipped_single_core"});
                std::printf("e2e analyze n=256 threads=%zu: skipped "
                            "(single-core host)\n",
                            threads);
                continue;
            }
            PipelineConfig cfg;
            cfg.numThreads = threads;
            SleuthPipeline pipeline(model, encoder, profile, cfg);
            PipelineResult res;
            double ms = bestOfMs(
                3, [&] { res = pipeline.analyze(storm256, slos); });
            if (threads == 1) {
                ref = res;
                t1_ms = ms;
            } else {
                SLEUTH_ASSERT(res.clusterLabels == ref.clusterLabels,
                              "thread-count determinism: labels");
                SLEUTH_ASSERT(res.rcaInvocations == ref.rcaInvocations,
                              "thread-count determinism: invocations");
                for (size_t i = 0; i < res.perTrace.size(); ++i)
                    SLEUTH_ASSERT(res.perTrace[i].services ==
                                      ref.perTrace[i].services,
                                  "thread-count determinism at ", i);
            }
            rows.push_back({"e2e_analyze_256_t" +
                                std::to_string(threads) + "_ms",
                            ms, "ms"});
            if (threads == 4)
                rows.push_back({"e2e_analyze_256_parallel_speedup_4t",
                                t1_ms / ms, "x"});
            std::printf("e2e analyze n=256 threads=%zu: %.1f ms\n",
                        threads, ms);
        }
        rows.push_back({"hardware_concurrency",
                        static_cast<double>(cores), "cores"});
    }

    // --- (c) Counterfactual RCA throughput. ---
    {
        std::vector<trace::Trace> anomalous(storm1024.begin(),
                                            storm1024.begin() + 32);
        int64_t slo = stormSlo(anomalous);
        CounterfactualRca rca(model, encoder, profile, {});
        size_t candidates = 0;
        Clock::time_point t0 = Clock::now();
        for (const trace::Trace &t : anomalous)
            candidates += rca.analyze(t, slo).iterations;
        double ms = msSince(t0);
        rows.push_back({"rca_candidates_per_sec",
                        static_cast<double>(candidates) / (ms / 1000.0),
                        "candidates/s"});
        std::printf("rca: %zu candidates in %.1f ms\n", candidates,
                    ms);
    }

    // --- (f) Self-observability overhead on the 256-trace storm. ---
    // The metrics layer is a write-only side channel: results must be
    // bitwise identical with it on or off, and the acceptance bar for
    // the instrumentation is < 2% overhead on this path.
    {
        std::vector<int64_t> slos(storm256.size(),
                                  stormSlo(storm256));
        PipelineConfig cfg;
        SleuthPipeline pipeline(model, encoder, profile, cfg);
        PipelineResult on_res;
        double on_ms = bestOfMs(
            5, [&] { on_res = pipeline.analyze(storm256, slos); });
        obs::setEnabled(false);
        PipelineResult off_res;
        double off_ms = bestOfMs(
            5, [&] { off_res = pipeline.analyze(storm256, slos); });
        obs::setEnabled(true);
        SLEUTH_ASSERT(on_res.clusterLabels == off_res.clusterLabels,
                      "metrics on/off determinism: labels");
        SLEUTH_ASSERT(on_res.rcaInvocations == off_res.rcaInvocations,
                      "metrics on/off determinism: invocations");
        for (size_t i = 0; i < on_res.perTrace.size(); ++i)
            SLEUTH_ASSERT(on_res.perTrace[i].services ==
                              off_res.perTrace[i].services,
                          "metrics on/off determinism at ", i);
        double overhead_pct = off_ms > 0.0
                                  ? (on_ms - off_ms) / off_ms * 100.0
                                  : 0.0;
        rows.push_back(
            {"e2e_analyze_256_metrics_on_ms", on_ms, "ms"});
        rows.push_back(
            {"e2e_analyze_256_metrics_off_ms", off_ms, "ms"});
        rows.push_back({"e2e_analyze_256_metrics_overhead_pct",
                        overhead_pct, "%"});
        std::printf("e2e analyze n=256 metrics on/off: %.1f / %.1f ms"
                    " (%.2f%% overhead)\n",
                    on_ms, off_ms, overhead_pct);
    }

    // --- (g) Columnar storage: resident bytes per span. ---
    // Before/after for the columnar refactor: the legacy figure is the
    // SSO-aware estimate of the row-oriented AoS Span layout for the
    // same traces, the columnar figure is the store's own accounting
    // (columns + indexes + shared interner) divided by its span count.
    {
        storage::TraceStore store;
        size_t legacy_bytes = 0;
        for (const trace::Trace &t : storm1024) {
            legacy_bytes += trace::approxTraceMemoryBytes(t);
            store.insert(t);
        }
        double per_span_columnar =
            static_cast<double>(store.memoryBytes()) /
            static_cast<double>(store.totalSpans());
        double per_span_legacy =
            static_cast<double>(legacy_bytes) /
            static_cast<double>(store.totalSpans());
        SLEUTH_ASSERT(per_span_columnar < per_span_legacy,
                      "columnar layout must shrink bytes/span");
        rows.push_back({"memory_bytes_per_span", per_span_columnar,
                        "bytes"});
        rows.push_back({"memory_bytes_per_span_legacy", per_span_legacy,
                        "bytes"});
        rows.push_back({"memory_bytes_per_span_reduction",
                        per_span_legacy / per_span_columnar, "x"});
        std::printf("memory: %.1f bytes/span columnar vs %.1f legacy "
                    "(%.2fx smaller), %zu spans\n",
                    per_span_columnar, per_span_legacy,
                    per_span_legacy / per_span_columnar,
                    store.totalSpans());
    }

    // --- (g2) Trace-driven app inference over a 100k-span store. ---
    // The profile-and-clone path: fill a store past 100k spans with
    // simulated traffic, then time synth::inferAppModel reconstructing
    // a full replayable AppConfig from it.
    {
        storage::TraceStore store;
        sim::Simulator feed(app, cluster_model, {.seed = 23});
        while (store.totalSpans() < 100'000) {
            sim::SimResult r = feed.simulateOne();
            store.insert(r.trace,
                         app.flows[static_cast<size_t>(r.flowIndex)]
                             .sloUs,
                         r.flowIndex);
        }
        synth::InferStats stats;
        synth::AppConfig inferred;
        double ms = bestOfMs(3, [&] {
            inferred = synth::inferAppModel(store, storage::Query{},
                                            {}, &stats);
        });
        SLEUTH_ASSERT(!inferred.services.empty(),
                      "inference must reconstruct the fixture app");
        double spans = static_cast<double>(stats.spans);
        rows.push_back({"infer_100k_spans_ms", ms, "ms"});
        rows.push_back({"infer_spans_per_sec", spans / (ms / 1000.0),
                        "spans/s"});
        std::printf("infer: %zu traces / %zu spans -> %zu services, "
                    "%zu flow shapes in %.1f ms\n",
                    stats.tracesUsed, stats.spans,
                    inferred.services.size(), stats.flowShapes, ms);
    }

    // --- SIMD dispatch provenance for this run. ---
    rows.push_back({"simd_compiled_avx2",
                    simd::compiledAvx2() ? 1.0 : 0.0, "bool"});
    rows.push_back(
        {"simd_cpu_avx2", simd::cpuAvx2() ? 1.0 : 0.0, "bool"});
    rows.push_back({"simd_dispatch_active",
                    simd::active() ? 1.0 : 0.0, "bool",
                    simd::activeIsaName()});
    std::printf("simd dispatch: %s (compiled_avx2=%d cpu_avx2=%d)\n",
                simd::activeIsaName(), simd::compiledAvx2() ? 1 : 0,
                simd::cpuAvx2() ? 1 : 0);

    // --- Emit machine-readable rows. ---
    util::Json doc = util::Json::array();
    for (const Row &r : rows) {
        util::Json row = util::Json::object();
        row.set("metric", r.metric);
        row.set("value", r.value);
        row.set("unit", r.unit);
        if (!r.note.empty())
            row.set("note", r.note);
        doc.push(std::move(row));
    }
    std::ofstream f(out_path);
    f << doc.dump(2) << "\n";
    f.close();
    std::printf("wrote %s\n", out_path);
    return 0;
}
