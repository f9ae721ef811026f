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
    return analyzeBatch(traces, slos, cache, nullptr);
}

PipelineResult
SleuthPipeline::analyzeWithDistance(
    const std::vector<trace::Trace> &traces,
    const std::vector<int64_t> &slos,
    const std::function<double(size_t, size_t)> &dist) const
{
    return analyzeBatch(traces, slos, nullptr, &dist);
}

PipelineResult
SleuthPipeline::analyzeBatch(
    const std::vector<trace::Trace> &traces,
    const std::vector<int64_t> &slos, PipelineCache *cache,
    const std::function<double(size_t, size_t)> *oracle) const
{
    SLEUTH_ASSERT(traces.size() == slos.size(),
                  "trace/slo count mismatch");
    const size_t n = traces.size();
    static obs::Counter &batches = obs::counter(
        "sleuth_pipeline_batches_total", "Analysis batches started");
    static obs::Counter &submitted = obs::counter(
        "sleuth_pipeline_traces_total", "Traces submitted for analysis");
    batches.add();
    submitted.add(n);
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

    // Validate every trace once. The weighted-Jaccard matrix (paper
    // Eq. 1) also needs each trace's span set, encoded from the same
    // graph. A cached encoding implies the trace was well-formed when
    // it was stored, so hits skip validation too.
    const bool encode = config_.clustering && oracle == nullptr;
    std::vector<std::string> errors(n);
    std::vector<distance::WeightedSpanSet> sets(encode ? n : 0);
    std::vector<char> cached(n, 0);
    if (cache != nullptr && encode) {
        for (size_t i = 0; i < n; ++i) {
            if (const distance::WeightedSpanSet *hit =
                    cache->lookupEncoding(traces[i].traceId, fps[i])) {
                sets[i] = *hit;
                cached[i] = 1;
            }
        }
    }
    {
        obs::ScopedTimer timer(stageHistogram(Stage::Encode));
        engine.pool.parallelFor(n, [&](size_t i, size_t) {
            trace::TraceGraph g;
            if (cached[i] ||
                !trace::TraceGraph::tryBuild(traces[i], &g, &errors[i]))
                return;
            if (encode)
                sets[i] = distance::encodeSpanSet(traces[i], g,
                                                  config_.distanceOpts);
        });
    }
    if (cache != nullptr && encode)
        for (size_t i = 0; i < n; ++i)
            if (!cached[i] && errors[i].empty())
                cache->storeEncoding(traces[i].traceId, fps[i], sets[i]);

    // Compact the well-formed traces: malformed ones never reach the
    // matrix, the clustering or the RCA.
    std::vector<size_t> valid;
    valid.reserve(n);
    for (size_t i = 0; i < n; ++i)
        if (errors[i].empty())
            valid.push_back(i);
    const size_t m = valid.size();
    std::vector<const trace::Trace *> sub_traces(m);
    std::vector<int64_t> sub_slos(m);
    std::vector<uint64_t> sub_fps(cache != nullptr ? m : 0);
    std::vector<distance::WeightedSpanSet> sub_sets(encode ? m : 0);
    for (size_t k = 0; k < m; ++k) {
        sub_traces[k] = &traces[valid[k]];
        sub_slos[k] = slos[valid[k]];
        if (cache != nullptr)
            sub_fps[k] = fps[valid[k]];
        if (encode)
            sub_sets[k] = std::move(sets[valid[k]]);
    }

    // Their matrix, memoized once: from the span sets, or from the
    // caller's oracle consulted only on well-formed index pairs.
    distance::DistanceMatrix dist;
    if (config_.clustering) {
        obs::ScopedTimer timer(stageHistogram(Stage::Distance));
        dist = encode
                   ? distance::DistanceMatrix::fromSpanSets(sub_sets,
                                                            &engine.pool)
                   : distance::DistanceMatrix::compute(
                         m, [&](size_t a, size_t b) {
                             return (*oracle)(valid[a], valid[b]);
                         });
    }
    PipelineResult sub =
        analyzeCore(sub_traces, sub_slos,
                    config_.clustering ? &dist : nullptr, engine, cache,
                    sub_fps);

    // Scatter back; each malformed trace gets an error verdict and
    // label -1.
    PipelineResult out;
    out.perTrace.resize(n);
    out.clusterLabels.assign(n, -1);
    out.numClusters = sub.numClusters;
    out.rcaInvocations = sub.rcaInvocations;
    out.distanceEvaluations = sub.distanceEvaluations;
    out.skippedTraces = n - m;
    for (size_t k = 0; k < m; ++k) {
        out.perTrace[valid[k]] = std::move(sub.perTrace[k]);
        out.clusterLabels[valid[k]] = sub.clusterLabels[k];
    }
    for (size_t i = 0; i < n; ++i)
        if (!errors[i].empty())
            out.perTrace[i].error = "malformed trace: " + errors[i];
    static obs::Counter &skipped = obs::counter(
        "sleuth_pipeline_skipped_traces_total",
        "Malformed traces skipped by analysis batches");
    skipped.add(out.skippedTraces);
    return out;
}

PipelineResult
SleuthPipeline::analyzeCore(
    const std::vector<const trace::Trace *> &traces,
    const std::vector<int64_t> &slos,
    const distance::DistanceMatrix *dist, Engine &engine,
    PipelineCache *cache, const std::vector<uint64_t> &fps) const
{
    const size_t n = traces.size();
    PipelineResult out;
    out.perTrace.resize(n);
    out.clusterLabels.assign(n, -1);
    if (n == 0)
        return out;

    if (dist != nullptr) {
        SLEUTH_ASSERT(dist->size() == n,
                      "distance matrix / trace count mismatch");
        out.distanceEvaluations = n * (n - 1) / 2;
        obs::ScopedTimer timer(stageHistogram(Stage::Cluster));
        cluster::ClusterResult clusters =
            config_.algorithm == PipelineConfig::Algorithm::Hdbscan
                ? cluster::hdbscan(*dist, config_.hdbscan)
                : cluster::dbscan(*dist, config_.dbscan);
        out.clusterLabels = std::move(clusters.labels);
        out.numClusters = clusters.numClusters;
    }

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
    const size_t num_clusters = static_cast<size_t>(out.numClusters);
    std::vector<size_t> reps;
    if (num_clusters > 0)
        reps = cluster::selectRepresentatives(out.clusterLabels,
                                              out.numClusters, *dist);
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
    std::vector<bool> assigned(n, false);
    for (int c = 0; c < out.numClusters; ++c) {
        size_t rep = reps[static_cast<size_t>(c)];
        for (size_t i = 0; i < n; ++i) {
            if (out.clusterLabels[i] != c)
                continue;
            // Far-from-representative members do not inherit the
            // verdict; they fall through to individual analysis.
            if (config_.maxRepresentativeDistance > 0.0 && i != rep &&
                dist->at(i, rep) > config_.maxRepresentativeDistance)
                continue;
            out.perTrace[i] = verdicts[static_cast<size_t>(c)];
            assigned[i] = true;
        }
    }
    // Noise traces and far members — every trace when clustering is
    // off — are analyzed individually, again into preallocated
    // per-trace slots (cache hits first, as above).
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
    rcaRuns.add(miss_clusters.size() + miss_rest.size());
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
