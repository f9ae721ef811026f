#pragma once

/**
 * @file
 * The end-to-end Sleuth pipeline (paper §3.1): cluster the incoming
 * anomalous traces with the weighted-Jaccard distance + HDBSCAN, run
 * the counterfactual RCA once per cluster representative (geometric
 * median), and generalize each representative's root causes to the
 * whole cluster. Noise traces are analyzed individually. Clustering
 * cuts ML inference by orders of magnitude during incident storms.
 *
 * An optional cross-poll incremental cache (PipelineCache, DESIGN.md
 * §3.14) memoizes per-trace encodings and verdicts between analyses
 * of overlapping snapshots.
 */

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/hdbscan.h"
#include "core/counterfactual.h"
#include "distance/distance_matrix.h"
#include "distance/trace_distance.h"

namespace sleuth::core {

class PipelineCache;

/** Pipeline knobs. */
struct PipelineConfig
{
    /** Clustering algorithm choice. */
    enum class Algorithm { Hdbscan, Dbscan };

    /** Cluster before RCA (disable to analyze every trace). */
    bool clustering = true;
    /** HDBSCAN (paper §3.3.2) or plain DBSCAN (paper §3.1). */
    Algorithm algorithm = Algorithm::Hdbscan;
    /** HDBSCAN parameters (paper defaults 10 / 5 / epsilon). */
    cluster::HdbscanParams hdbscan{10, 5, 0.05};
    /** DBSCAN parameters (used when algorithm == Dbscan). */
    cluster::DbscanParams dbscan{0.3, 4};
    /** Span-identifier options for the trace distance. */
    distance::SpanSetOptions distanceOpts;
    /** RCA knobs. */
    RcaParams rca;
    /**
     * Members farther than this from their cluster's representative
     * fall back to individual RCA instead of inheriting its verdict
     * (bounds the damage of an impure cluster; 0 disables).
     */
    double maxRepresentativeDistance = 0.6;
    /**
     * Worker threads for span-set encoding, distance-matrix
     * construction, and the RCA loops. 0 = hardware concurrency,
     * 1 = fully serial (no threads spawned). Results are bitwise
     * identical at every setting (DESIGN.md §3.8).
     */
    size_t numThreads = 1;
};

/** Result of a pipeline run over a batch of anomalous traces. */
struct PipelineResult
{
    /** Per-input-trace RCA verdicts (cluster members share one). */
    std::vector<RcaResult> perTrace;
    /** Cluster label per trace; -1 = analyzed individually. */
    std::vector<int> clusterLabels;
    /** Number of clusters formed. */
    int numClusters = 0;
    /**
     * Counterfactual RCA verdicts the batch logically required
     * (representatives + individually analyzed traces). A warm
     * incremental cache satisfies some from memory without running the
     * model — PipelineCache::Stats holds the executed/hit split — so
     * this count is identical between a cold and a warm run of the
     * same batch (part of the incremental-repoll ≡ guarantee).
     */
    size_t rcaInvocations = 0;
    /**
     * Pairwise distance evaluations performed for this batch: exactly
     * m(m-1)/2 over the m well-formed traces when clustering ran (the
     * matrix is computed once and memoized), 0 when clustering was
     * disabled. Malformed traces never reach the matrix, whether it is
     * built from span sets or from a caller's distance.
     */
    size_t distanceEvaluations = 0;
    /**
     * Traces skipped because TraceGraph::tryBuild rejected them
     * (cycle, missing/duplicate root, unresolved parentSpanId, ...).
     * Each carries an RcaResult with a non-empty error and cluster
     * label -1; well-formed traces in the same batch are unaffected.
     */
    size_t skippedTraces = 0;
};

/**
 * Rank root-cause services across a batch result by verdict votes: a
 * service earns one vote per trace whose verdict lists it. Ties break
 * lexicographically, so the ranking is a deterministic function of the
 * result. Used by the online serving layer to headline incidents.
 */
std::vector<std::pair<std::string, size_t>>
aggregateRootCauses(const PipelineResult &result);

/** The trace-storm-scale RCA front end. */
class SleuthPipeline
{
  public:
    /** All components are held by reference and must outlive this. */
    SleuthPipeline(const SleuthGnn &model, FeatureEncoder &encoder,
                   const NormalProfile &profile, PipelineConfig config);

    /**
     * Analyze a batch of anomalous traces: encode, distance matrix,
     * cluster, RCA. When cache is non-null, encodings and verdicts
     * memoized from previous polls are reused and fresh ones inserted
     * (the cache must always be paired with the same pipeline
     * configuration). Results are bitwise identical to the cache-free
     * run of the same batch.
     *
     * @param traces the anomalous traces
     * @param slos per-trace latency SLO in microseconds
     * @param cache optional cross-poll incremental cache
     */
    PipelineResult analyze(const std::vector<trace::Trace> &traces,
                           const std::vector<int64_t> &slos,
                           PipelineCache *cache = nullptr) const;

    /**
     * Forwards to analyze(traces, slos, cache). Kept only for the
     * benchmark's serve workload (sleuthbench/src/serve.cc), which
     * still calls the former four-argument form
     * analyze(traces, slos, nullptr, cache).
     */
    PipelineResult analyze(const std::vector<trace::Trace> &traces,
                           const std::vector<int64_t> &slos,
                           std::nullptr_t, PipelineCache *cache) const
    {
        return analyze(traces, slos, cache);
    }

    /**
     * As analyze(), but clustering uses a caller-provided distance
     * (e.g. the DeepTraLog SVDD embedding distance for comparison)
     * over indices into traces. Malformed traces are compacted out
     * first, exactly as in analyze(): the oracle is invoked only on
     * well-formed index pairs, m(m-1)/2 times, to memoize a
     * DistanceMatrix that every downstream consumer reads.
     */
    PipelineResult analyzeWithDistance(
        const std::vector<trace::Trace> &traces,
        const std::vector<int64_t> &slos,
        const std::function<double(size_t, size_t)> &dist) const;

  private:
    /**
     * Per-batch parallel engine: a thread pool plus one
     * CounterfactualRca (and FeatureEncoder, whose embedding cache is
     * the only shared mutable state) per worker. Defined in the .cc.
     */
    struct Engine;

    /**
     * The one analysis flow behind analyze() and analyzeWithDistance():
     * validate each trace once (encoding its span set unless an oracle
     * supplies the distance or clustering is off), compact the
     * well-formed ones, build their matrix when clustering, run
     * analyzeCore, and scatter the results back with an error verdict
     * and label -1 per malformed trace.
     */
    PipelineResult analyzeBatch(
        const std::vector<trace::Trace> &traces,
        const std::vector<int64_t> &slos, PipelineCache *cache,
        const std::function<double(size_t, size_t)> *oracle) const;

    /**
     * Clustering and RCA over well-formed traces addressed by pointer.
     * dist covers exactly these traces; nullptr (clustering off)
     * analyzes every trace individually. fps holds the traces' cache
     * fingerprints (empty when cache is null).
     */
    PipelineResult analyzeCore(
        const std::vector<const trace::Trace *> &traces,
        const std::vector<int64_t> &slos,
        const distance::DistanceMatrix *dist, Engine &engine,
        PipelineCache *cache, const std::vector<uint64_t> &fps) const;

    const SleuthGnn &model_;
    FeatureEncoder &encoder_;
    const NormalProfile &profile_;
    PipelineConfig config_;
};

} // namespace sleuth::core
