#include "pipeline.h"

#include <algorithm>
#include <map>
#include <memory>

#include "cluster/svdd.h"
#include "core/pipeline_cache.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace sleuth::core {

namespace {

/** Per-stage wall-clock histogram for sleuth_pipeline_stage_ms. */
enum class Stage { Encode, Distance, Cluster, Rca };

obs::Histogram &
stageHistogram(Stage stage)
{
    static const char *name = "sleuth_pipeline_stage_ms";
    static const char *help =
        "Wall-clock milliseconds per pipeline stage per batch";
    static obs::Histogram &encode =
        obs::histogram(name, help, {{"stage", "encode"}});
    static obs::Histogram &distance =
        obs::histogram(name, help, {{"stage", "distance"}});
    static obs::Histogram &cluster =
        obs::histogram(name, help, {{"stage", "cluster"}});
    static obs::Histogram &rca =
        obs::histogram(name, help, {{"stage", "rca"}});
    switch (stage) {
      case Stage::Encode: return encode;
      case Stage::Distance: return distance;
      case Stage::Cluster: return cluster;
      case Stage::Rca: return rca;
    }
    util::panic("invalid pipeline stage");
}

/** Batch entry accounting shared by the analyze* entry points. */
void
countBatch(size_t traces)
{
    static obs::Counter &batches = obs::counter(
        "sleuth_pipeline_batches_total", "Analysis batches started");
    static obs::Counter &traceCount = obs::counter(
        "sleuth_pipeline_traces_total",
        "Traces submitted for analysis");
    batches.add();
    traceCount.add(traces);
}

/** The verdict recorded for a trace the graph builder rejected. */
RcaResult
errorVerdict(const std::string &why)
{
    RcaResult r;
    r.error = "malformed trace: " + why;
    return r;
}

} // namespace

/**
 * Per-batch parallel engine. Worker 0 (the calling thread) reuses the
 * pipeline's shared FeatureEncoder so its embedding cache stays warm
 * across batches; every additional worker owns a private encoder —
 * the token-hash embedding is a pure function of the input string, so
 * a cold cache changes cost, never results — because the cache inside
 * TextEmbedder is the one piece of shared mutable state the
 * const-correctness audit found on the RCA path (NormalProfile and
 * SleuthGnn are read-only after construction and safely shared).
 */
struct SleuthPipeline::Engine
{
    /** Private encoder + RCA for one spawned worker. */
    struct PerWorker
    {
        FeatureEncoder encoder;
        CounterfactualRca rca;

        explicit PerWorker(const SleuthPipeline &p)
            : encoder(p.encoder_.embedder().dim(), p.encoder_.scale()),
              rca(p.model_, encoder, p.profile_, p.config_.rca)
        {
        }
    };

    util::ThreadPool pool;
    CounterfactualRca rca0;
    std::vector<std::unique_ptr<PerWorker>> extra;

    explicit Engine(const SleuthPipeline &p)
        : pool(util::ThreadPool::resolveThreads(p.config_.numThreads)),
          rca0(p.model_, p.encoder_, p.profile_, p.config_.rca)
    {
        extra.reserve(pool.size() - 1);
        for (size_t w = 1; w < pool.size(); ++w)
            extra.push_back(std::make_unique<PerWorker>(p));
    }

    CounterfactualRca &
    rcaFor(size_t worker)
    {
        return worker == 0 ? rca0 : extra[worker - 1]->rca;
    }
};

SleuthPipeline::SleuthPipeline(const SleuthGnn &model,
                               FeatureEncoder &encoder,
                               const NormalProfile &profile,
                               PipelineConfig config)
    : model_(model), encoder_(encoder), profile_(profile),
      config_(config)
{
}

PipelineResult
SleuthPipeline::analyze(const std::vector<trace::Trace> &traces,
                        const std::vector<int64_t> &slos,
                        PipelineCache *cache) const
{
    SLEUTH_ASSERT(traces.size() == slos.size(),
                  "trace/slo count mismatch");
    countBatch(traces.size());
    const size_t n = traces.size();
    std::vector<const trace::Trace *> ptrs(n);
    for (size_t i = 0; i < n; ++i)
        ptrs[i] = &traces[i];
    Engine engine(*this);

    // Content fingerprints drive every cache key.
    std::vector<uint64_t> fps;
    if (cache != nullptr) {
        fps.resize(n);
        engine.pool.parallelFor(n, [&](size_t i, size_t) {
            fps[i] = PipelineCache::fingerprint(traces[i]);
        });
        cache->beginBatch();
    }

    if (!config_.clustering)
        return analyzeIndividualImpl(ptrs, slos, cache, fps, engine);

    // Weighted-Jaccard over encoded span sets, pre-encoded once per
    // trace, then memoized into one packed matrix per batch (paper
    // Eq. 1). Encoding validates each trace; malformed ones are
    // compacted out so they neither crash the batch nor distort
    // clustering. A cached encoding implies the trace was well-formed
    // last time it was seen, so hits skip validation too.
    std::vector<std::string> errors(n);
    std::vector<distance::WeightedSpanSet> sets(n);
    std::vector<char> needEncode(n, 1);
    if (cache != nullptr) {
        for (size_t i = 0; i < n; ++i) {
            if (const distance::WeightedSpanSet *hit =
                    cache->lookupEncoding(traces[i].traceId, fps[i])) {
                sets[i] = *hit;
                needEncode[i] = 0;
            }
        }
    }
    {
        obs::ScopedTimer timer(stageHistogram(Stage::Encode));
        engine.pool.parallelFor(n, [&](size_t i, size_t) {
            if (!needEncode[i])
                return;
            trace::TraceGraph g;
            std::string err;
            if (!trace::TraceGraph::tryBuild(traces[i], &g, &err)) {
                errors[i] = err;
                return;
            }
            sets[i] = distance::encodeSpanSet(traces[i], g,
                                              config_.distanceOpts);
        });
    }
    if (cache != nullptr)
        for (size_t i = 0; i < n; ++i)
            if (needEncode[i] && errors[i].empty())
                cache->storeEncoding(traces[i].traceId, fps[i], sets[i]);

    std::vector<size_t> valid;
    valid.reserve(n);
    for (size_t i = 0; i < n; ++i)
        if (errors[i].empty())
            valid.push_back(i);

    auto distanceMatrix =
        [&](const std::vector<distance::WeightedSpanSet> &s) {
            obs::ScopedTimer timer(stageHistogram(Stage::Distance));
            return distance::DistanceMatrix::fromSpanSets(s,
                                                          &engine.pool);
        };
    if (valid.size() == n)
        return analyzeCore(ptrs, slos, distanceMatrix(sets), errors,
                           engine, cache, fps);

    // Compact the well-formed subset, analyze it, scatter back.
    std::vector<const trace::Trace *> sub_ptrs;
    std::vector<int64_t> sub_slos;
    std::vector<distance::WeightedSpanSet> sub_sets;
    std::vector<uint64_t> sub_fps;
    sub_ptrs.reserve(valid.size());
    sub_slos.reserve(valid.size());
    sub_sets.reserve(valid.size());
    for (size_t i : valid) {
        sub_ptrs.push_back(ptrs[i]);
        sub_slos.push_back(slos[i]);
        sub_sets.push_back(std::move(sets[i]));
        if (cache != nullptr)
            sub_fps.push_back(fps[i]);
    }
    PipelineResult sub = analyzeCore(
        sub_ptrs, sub_slos, distanceMatrix(sub_sets),
        std::vector<std::string>(valid.size()), engine, cache, sub_fps);

    PipelineResult scattered;
    scattered.perTrace.resize(n);
    scattered.clusterLabels.assign(n, -1);
    scattered.numClusters = sub.numClusters;
    scattered.rcaInvocations = sub.rcaInvocations;
    scattered.distanceEvaluations = sub.distanceEvaluations;
    scattered.skippedTraces = n - valid.size();
    for (size_t k = 0; k < valid.size(); ++k) {
        scattered.perTrace[valid[k]] = std::move(sub.perTrace[k]);
        scattered.clusterLabels[valid[k]] = sub.clusterLabels[k];
    }
    for (size_t i = 0; i < n; ++i)
        if (!errors[i].empty())
            scattered.perTrace[i] = errorVerdict(errors[i]);
    return scattered;
}

PipelineResult
SleuthPipeline::analyzeWithDistance(
    const std::vector<trace::Trace> &traces,
    const std::vector<int64_t> &slos,
    const std::function<double(size_t, size_t)> &dist) const
{
    if (!config_.clustering) {
        countBatch(traces.size());
        std::vector<const trace::Trace *> ptrs(traces.size());
        for (size_t i = 0; i < traces.size(); ++i)
            ptrs[i] = &traces[i];
        Engine engine(*this);
        return analyzeIndividualImpl(ptrs, slos, nullptr, {}, engine);
    }
    return analyzeWithMatrix(
        traces, slos,
        distance::DistanceMatrix::compute(traces.size(), dist));
}

PipelineResult
SleuthPipeline::analyzeIndividualImpl(
    const std::vector<const trace::Trace *> &traces,
    const std::vector<int64_t> &slos, PipelineCache *cache,
    const std::vector<uint64_t> &fps, Engine &engine) const
{
    const size_t n = traces.size();
    PipelineResult out;
    out.perTrace.resize(n);
    out.clusterLabels.assign(n, -1);

    // Cached verdicts first: a stored verdict with a matching
    // fingerprint implies the trace was well-formed, so hits also skip
    // re-validation.
    std::vector<char> done(n, 0);
    if (cache != nullptr) {
        for (size_t i = 0; i < n; ++i) {
            const RcaResult *hit = cache->lookupVerdict(
                traces[i]->traceId, fps[i], slos[i]);
            if (hit != nullptr) {
                out.perTrace[i] = *hit;
                done[i] = 1;
            }
        }
    }
    std::vector<size_t> todo;
    todo.reserve(n);
    for (size_t i = 0; i < n; ++i)
        if (!done[i])
            todo.push_back(i);
    std::vector<std::string> errors(todo.size());
    engine.pool.parallelFor(todo.size(), [&](size_t k, size_t) {
        trace::TraceGraph g;
        std::string err;
        if (!trace::TraceGraph::tryBuild(*traces[todo[k]], &g, &err))
            errors[k] = err;
    });
    std::vector<size_t> runnable;
    runnable.reserve(todo.size());
    for (size_t k = 0; k < todo.size(); ++k) {
        if (errors[k].empty()) {
            runnable.push_back(todo[k]);
        } else {
            out.perTrace[todo[k]] = errorVerdict(errors[k]);
            ++out.skippedTraces;
        }
    }
    {
        obs::ScopedTimer timer(stageHistogram(Stage::Rca));
        engine.pool.parallelFor(runnable.size(), [&](size_t k,
                                                     size_t w) {
            size_t i = runnable[k];
            out.perTrace[i] = engine.rcaFor(w).analyze(*traces[i], slos[i]);
        });
    }
    if (cache != nullptr)
        for (size_t i : runnable)
            cache->storeVerdict(traces[i]->traceId, fps[i], slos[i],
                                out.perTrace[i]);
    out.rcaInvocations = n - out.skippedTraces;
    return out;
}

PipelineResult
SleuthPipeline::analyzeWithMatrix(
    const std::vector<trace::Trace> &traces,
    const std::vector<int64_t> &slos,
    const distance::DistanceMatrix &dist) const
{
    SLEUTH_ASSERT(traces.size() == slos.size(),
                  "trace/slo count mismatch");
    SLEUTH_ASSERT(dist.size() == traces.size(),
                  "distance matrix / trace count mismatch");
    countBatch(traces.size());
    Engine engine(*this);
    std::vector<const trace::Trace *> ptrs(traces.size());
    std::vector<std::string> errors(traces.size());
    for (size_t i = 0; i < traces.size(); ++i)
        ptrs[i] = &traces[i];
    engine.pool.parallelFor(traces.size(), [&](size_t i, size_t) {
        trace::TraceGraph g;
        std::string err;
        if (!trace::TraceGraph::tryBuild(traces[i], &g, &err))
            errors[i] = err;
    });
    return analyzeCore(ptrs, slos, dist, errors, engine);
}

PipelineResult
SleuthPipeline::analyzeCore(
    const std::vector<const trace::Trace *> &traces,
    const std::vector<int64_t> &slos,
    const distance::DistanceMatrix &dist,
    const std::vector<std::string> &errors, Engine &engine,
    PipelineCache *cache, const std::vector<uint64_t> &fps) const
{
    SLEUTH_ASSERT(dist.size() == traces.size(),
                  "distance matrix / trace count mismatch");
    const size_t n = traces.size();
    PipelineResult out;
    out.perTrace.resize(n);
    out.clusterLabels.assign(n, -1);
    if (n == 0)
        return out;
    // Distance work is accounted over the well-formed traces only, so
    // the analyzeWithMatrix path (whose caller-provided matrix covers
    // malformed rows too) reports the same m(m-1)/2 the compacted
    // analyze() path does for the same batch.
    size_t well_formed = 0;
    for (size_t i = 0; i < n; ++i)
        if (errors[i].empty())
            ++well_formed;
    out.distanceEvaluations =
        well_formed * (well_formed > 0 ? well_formed - 1 : 0) / 2;

    cluster::ClusterResult clusters = [&] {
        obs::ScopedTimer timer(stageHistogram(Stage::Cluster));
        return config_.algorithm == PipelineConfig::Algorithm::Hdbscan
                   ? cluster::hdbscan(dist, config_.hdbscan)
                   : cluster::dbscan(dist, config_.dbscan);
    }();

    // Malformed traces (analyzeWithMatrix path: the caller's matrix
    // covers them) are forced out of their clusters; cluster IDs are
    // then compacted so no cluster is left empty.
    std::vector<bool> assigned(n, false);
    for (size_t i = 0; i < n; ++i) {
        if (!errors[i].empty()) {
            clusters.labels[i] = -1;
            out.perTrace[i] = errorVerdict(errors[i]);
            assigned[i] = true;
            ++out.skippedTraces;
        }
    }
    if (out.skippedTraces > 0) {
        std::vector<int> remap(
            static_cast<size_t>(clusters.numClusters), -1);
        int next = 0;
        for (size_t i = 0; i < n; ++i) {
            int c = clusters.labels[i];
            if (c < 0)
                continue;
            if (remap[static_cast<size_t>(c)] < 0)
                remap[static_cast<size_t>(c)] = next++;
            clusters.labels[i] = remap[static_cast<size_t>(c)];
        }
        clusters.numClusters = next;
    }
    out.clusterLabels = clusters.labels;
    out.numClusters = clusters.numClusters;

    auto cachedVerdict = [&](size_t i) -> const RcaResult * {
        return cache != nullptr
                   ? cache->lookupVerdict(traces[i]->traceId, fps[i],
                                          slos[i])
                   : nullptr;
    };

    // One RCA per cluster representative (geometric median), run in
    // parallel — one verdict slot per cluster is preallocated and each
    // worker writes only its own clusters, so the output is identical
    // at any thread count. The verdict then generalizes to every
    // member. Verdicts memoized by the incremental cache are filled in
    // serially first; only misses run the model.
    obs::ScopedTimer rca_timer(stageHistogram(Stage::Rca));
    std::vector<size_t> reps = cluster::selectRepresentatives(
        clusters.labels, clusters.numClusters, dist);
    const size_t num_clusters = static_cast<size_t>(clusters.numClusters);
    std::vector<RcaResult> verdicts(num_clusters);
    std::vector<size_t> miss_clusters;
    miss_clusters.reserve(num_clusters);
    for (size_t c = 0; c < num_clusters; ++c) {
        if (const RcaResult *hit = cachedVerdict(reps[c]))
            verdicts[c] = *hit;
        else
            miss_clusters.push_back(c);
    }
    engine.pool.parallelFor(miss_clusters.size(), [&](size_t k,
                                                      size_t w) {
        size_t c = miss_clusters[k];
        verdicts[c] =
            engine.rcaFor(w).analyze(*traces[reps[c]], slos[reps[c]]);
    });
    if (cache != nullptr)
        for (size_t c : miss_clusters) {
            size_t i = reps[c];
            cache->storeVerdict(traces[i]->traceId, fps[i], slos[i],
                                verdicts[c]);
        }
    out.rcaInvocations += num_clusters;
    for (int c = 0; c < clusters.numClusters; ++c) {
        size_t rep = reps[static_cast<size_t>(c)];
        for (size_t i = 0; i < n; ++i) {
            if (clusters.labels[i] != c)
                continue;
            // Far-from-representative members do not inherit the
            // verdict; they fall through to individual analysis.
            if (config_.maxRepresentativeDistance > 0.0 && i != rep &&
                dist.at(i, rep) > config_.maxRepresentativeDistance)
                continue;
            out.perTrace[i] = verdicts[static_cast<size_t>(c)];
            assigned[i] = true;
        }
    }
    // Noise traces and far members are analyzed individually, again
    // into preallocated per-trace slots (cache hits first, as above).
    std::vector<size_t> rest;
    for (size_t i = 0; i < n; ++i)
        if (!assigned[i])
            rest.push_back(i);
    std::vector<size_t> miss_rest;
    miss_rest.reserve(rest.size());
    for (size_t i : rest) {
        if (const RcaResult *hit = cachedVerdict(i))
            out.perTrace[i] = *hit;
        else
            miss_rest.push_back(i);
    }
    engine.pool.parallelFor(miss_rest.size(), [&](size_t k, size_t w) {
        size_t i = miss_rest[k];
        out.perTrace[i] = engine.rcaFor(w).analyze(*traces[i], slos[i]);
    });
    if (cache != nullptr)
        for (size_t i : miss_rest)
            cache->storeVerdict(traces[i]->traceId, fps[i], slos[i],
                                out.perTrace[i]);
    out.rcaInvocations += rest.size();
    static obs::Counter &rcaRuns = obs::counter(
        "sleuth_pipeline_rca_invocations_total",
        "Counterfactual RCA analyses run");
    static obs::Counter &skipped = obs::counter(
        "sleuth_pipeline_skipped_traces_total",
        "Malformed traces skipped by analysis batches");
    rcaRuns.add(miss_clusters.size() + miss_rest.size());
    skipped.add(out.skippedTraces);
    return out;
}

std::vector<std::pair<std::string, size_t>>
aggregateRootCauses(const PipelineResult &result)
{
    // std::map keeps services sorted, so equal vote counts resolve
    // lexicographically after the stable sort below.
    std::map<std::string, size_t> votes;
    for (const RcaResult &r : result.perTrace)
        for (const std::string &svc : r.services)
            ++votes[svc];
    std::vector<std::pair<std::string, size_t>> ranked(votes.begin(),
                                                       votes.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    return ranked;
}

} // namespace sleuth::core
