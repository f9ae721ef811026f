#pragma once

/**
 * @file
 * Cross-poll incremental pipeline cache (DESIGN.md §3.14). The online
 * service re-analyzes an open incident on every poll as the detection
 * window slides; most of the snapshot persists between polls, so the
 * cache memoizes the pure per-trace and per-pair functions the
 * pipeline computes — extending PR 1's propagateFrom idea from the
 * GNN to the whole pipeline:
 *
 *  - span-set encodings, keyed by (traceId, content fingerprint);
 *  - weighted-Jaccard distances, keyed by the encoding-id pair;
 *  - RCA verdicts, keyed by (fingerprint, SLO);
 *  - whole batch results, keyed by the fingerprint+SLO sequence (the
 *    unchanged-snapshot fast path; cluster assignments are only
 *    reusable wholesale, because clustering is a function of the full
 *    matrix).
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
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "distance/distance_matrix.h"
#include "distance/trace_distance.h"

namespace sleuth::core {

/** Keyed cross-poll cache of encodings, distances, and verdicts. */
class PipelineCache
{
  public:
    struct Config
    {
        /** Max cached traces (oldest-generation evicted beyond). */
        size_t maxTraces = 8192;
        /** Batches an untouched entry survives before aging out. */
        size_t maxGenerations = 8;
        /** Largest batch whose distance matrix is retained for the
            prefix fast path (the packed triangle is O(n^2) doubles, so
            storm-scale batches are not worth pinning in memory). */
        size_t maxMatrixTraces = 1024;
    };

    /** Cumulative counters (also mirrored as obs counters). */
    struct Stats
    {
        size_t encodingHits = 0;
        size_t encodingMisses = 0;
        size_t distanceHits = 0;
        size_t distanceMisses = 0;
        size_t verdictHits = 0;
        size_t verdictMisses = 0;
        size_t batchHits = 0;
        /** Previous distance matrix reused wholesale as a prefix. */
        size_t matrixPrefixHits = 0;
        /** Entries dropped because the trace content changed. */
        size_t invalidations = 0;
        /** Entries dropped by age/capacity retention. */
        size_t evictions = 0;
    };

    PipelineCache();
    explicit PipelineCache(Config config);

    /** Content fingerprint over the trace id and every span field. */
    static uint64_t fingerprint(const trace::Trace &t);

    /**
     * Start a new batch generation: ages out entries untouched for
     * maxGenerations batches and enforces maxTraces (their distance
     * pairs go too). The pipeline calls this once per cached analyze.
     */
    void beginBatch();

    /**
     * Look up a cached span-set encoding. On hit returns the set and
     * writes its stable encoding id. A fingerprint mismatch counts an
     * invalidation, drops the stale entry (and its pairs), and misses.
     */
    const distance::WeightedSpanSet *
    lookupEncoding(const std::string &traceId, uint64_t fp,
                   uint32_t *encId);

    /** Insert a freshly computed encoding; writes its encoding id. */
    void storeEncoding(const std::string &traceId, uint64_t fp,
                       distance::WeightedSpanSet set, uint32_t *encId);

    /** Cached pairwise distance between two encoding ids. */
    bool lookupDistance(uint32_t a, uint32_t b, double *out);
    void storeDistance(uint32_t a, uint32_t b, double d);

    /**
     * Growing-window matrix reuse: if the previous batch's encoding-id
     * sequence is a prefix of this batch's, its packed lower-triangular
     * matrix is a literal prefix of the new one (row i occupies the
     * contiguous packed slice i(i-1)/2 .. i(i+1)/2), so the caller can
     * bulk-copy it and compute only the appended rows. Encoding ids
     * are assigned monotonically and never reused, so a mutated,
     * evicted, or re-encoded trace changes its id and breaks the
     * prefix — there is no aliasing to invalidate.
     *
     * On hit, returns the stored matrix and writes its item count.
     */
    const distance::DistanceMatrix *
    lookupMatrixPrefix(const std::vector<uint32_t> &encIds,
                       size_t *prefixLen);

    /** Retain a batch's matrix for the next poll's prefix lookup
        (skipped above Config::maxMatrixTraces items). */
    void storeMatrix(const std::vector<uint32_t> &encIds,
                     const distance::DistanceMatrix &m);

    /** Cached RCA verdict (key includes the SLO). */
    const RcaResult *lookupVerdict(const std::string &traceId,
                                   uint64_t fp, int64_t sloUs);
    void storeVerdict(const std::string &traceId, uint64_t fp,
                      int64_t sloUs, RcaResult verdict);

    /** Unchanged-snapshot fast path: the whole previous result. */
    const PipelineResult *lookupBatch(uint64_t batchKey);
    void storeBatch(uint64_t batchKey, const PipelineResult &result);

    Stats stats() const { return stats_; }
    /** Cached trace entries currently held. */
    size_t size() const { return entries_.size(); }
    /** Cached distance pairs currently held. */
    size_t pairCount() const { return pairs_.size(); }
    /** Current batch generation (starts at 0, bumped by beginBatch). */
    uint64_t generation() const { return generation_; }

  private:
    struct Entry
    {
        uint64_t fp = 0;
        uint32_t encId = 0;
        uint64_t lastGen = 0;
        bool hasSet = false;
        distance::WeightedSpanSet set;
        /** sloUs -> verdict. */
        std::map<int64_t, RcaResult> verdicts;
    };

    static uint64_t pairKey(uint32_t a, uint32_t b);

    void eraseEntry(const std::string &traceId, bool invalidated);
    void dropPairsOf(const std::vector<uint32_t> &encIds);

    Config config_;
    Stats stats_;
    uint64_t generation_ = 0;
    uint32_t nextEncId_ = 1;
    std::unordered_map<std::string, Entry> entries_;
    std::unordered_map<uint64_t, double> pairs_;
    uint64_t batchKey_ = 0;
    std::unique_ptr<PipelineResult> batchResult_;
    /** Last batch's encoding-id sequence + distance matrix. */
    std::vector<uint32_t> matrixEncIds_;
    distance::DistanceMatrix matrix_;
};

} // namespace sleuth::core
