#pragma once

/**
 * @file
 * Cross-poll incremental pipeline cache (DESIGN.md §3.14). The online
 * service can re-analyze an open incident on every poll as the
 * detection window slides; most of the snapshot persists between
 * polls, so the cache memoizes the two per-trace functions the
 * pipeline computes — extending the GNN's propagateFrom idea to the
 * whole pipeline:
 *
 *  - span-set encodings, keyed by (traceId, content fingerprint);
 *  - RCA verdicts, keyed by (traceId, content fingerprint, SLO).
 *
 * The distance matrix and the clustering are recomputed every batch:
 * the grouped SIMD weighted-Jaccard kernel recomputes a pair faster
 * than a hash lookup can return it.
 *
 * Because every cached value is the output of a pure function of the
 * fingerprinted inputs, a warm analysis is bitwise-identical to a full
 * recompute (pinned by the incremental-repoll campaign invariant).
 * Invalidation is by content: a trace that mutated between polls (new
 * span, changed error flag, shifted timestamp) changes its fingerprint
 * and falls back to full recompute; entries unused for
 * Config::maxGenerations batches age out (covering store-retention
 * eviction), and Config::maxTraces bounds memory.
 *
 * Not thread-safe: the pipeline performs lookups and inserts only on
 * the calling thread, before/after its parallel sections.
 */

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "core/pipeline.h"
#include "distance/trace_distance.h"

namespace sleuth::core {

/** Keyed cross-poll cache of per-trace encodings and verdicts. */
class PipelineCache
{
  public:
    struct Config
    {
        /** Max cached traces (oldest-generation evicted beyond). */
        size_t maxTraces = 8192;
        /** Batches an untouched entry survives before aging out. */
        size_t maxGenerations = 8;
    };

    /** Cumulative counters (also mirrored as obs counters). */
    struct Stats
    {
        size_t encodingHits = 0;
        size_t encodingMisses = 0;
        size_t verdictHits = 0;
        size_t verdictMisses = 0;
        /** Entries dropped because the trace content changed. */
        size_t invalidations = 0;
        /** Entries dropped by age/capacity retention. */
        size_t evictions = 0;
        /**
         * Always 0: the per-pair distance, whole-batch and
         * matrix-prefix tiers they counted are gone. Kept only because
         * the benchmark's serve workload (sleuthbench/src/serve.cc)
         * still reads them into its core.cache_hit_ratio rows.
         */
        size_t distanceHits = 0;
        size_t distanceMisses = 0;
        size_t batchHits = 0;
        size_t matrixPrefixHits = 0;
    };

    PipelineCache();
    explicit PipelineCache(Config config);

    /** Content fingerprint over the trace id and every span field. */
    static uint64_t fingerprint(const trace::Trace &t);

    /**
     * Start a new batch generation: ages out entries untouched for
     * maxGenerations batches and enforces maxTraces. The pipeline
     * calls this once per cached analyze.
     */
    void beginBatch();

    /**
     * Look up a cached span-set encoding. A fingerprint mismatch
     * counts an invalidation, drops the stale entry, and misses.
     */
    const distance::WeightedSpanSet *
    lookupEncoding(const std::string &traceId, uint64_t fp);

    /** Insert a freshly computed encoding. */
    void storeEncoding(const std::string &traceId, uint64_t fp,
                       distance::WeightedSpanSet set);

    /** Cached RCA verdict (key includes the SLO). */
    const RcaResult *lookupVerdict(const std::string &traceId,
                                   uint64_t fp, int64_t sloUs);
    void storeVerdict(const std::string &traceId, uint64_t fp,
                      int64_t sloUs, RcaResult verdict);

    Stats stats() const { return stats_; }
    /** Cached trace entries currently held. */
    size_t size() const { return entries_.size(); }
    /** Current batch generation (starts at 0, bumped by beginBatch). */
    uint64_t generation() const { return generation_; }

  private:
    struct Entry
    {
        uint64_t fp = 0;
        uint64_t lastGen = 0;
        bool hasSet = false;
        distance::WeightedSpanSet set;
        /** sloUs -> verdict. */
        std::map<int64_t, RcaResult> verdicts;
    };

    /** The entry for traceId if its content still matches fp (a stale
        one is dropped as an invalidation); touched for this batch. */
    Entry *find(const std::string &traceId, uint64_t fp);
    /** The entry for traceId, stamped with fp and this generation
        (callers look up first, which drops a stale entry). */
    Entry &slot(const std::string &traceId, uint64_t fp);

    Config config_;
    Stats stats_;
    uint64_t generation_ = 0;
    std::unordered_map<std::string, Entry> entries_;
};

} // namespace sleuth::core
