#include "pipeline_cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/strings.h"

namespace sleuth::core {

namespace {

/** Cache-traffic counter, labelled by layer and outcome. */
obs::Counter &
cacheCounter(const char *layer, const char *outcome)
{
    return obs::counter("sleuth_pipeline_cache_events_total",
                        "Incremental pipeline cache traffic",
                        {{"layer", layer}, {"outcome", outcome}});
}

uint64_t
mix(uint64_t h, uint64_t v)
{
    // splitmix64-style combine: cheap, well-distributed, stable.
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

uint64_t
mixString(uint64_t h, const std::string &s)
{
    return mix(h, util::fnv1a(s));
}

} // namespace

PipelineCache::PipelineCache() : PipelineCache(Config{})
{
}

PipelineCache::PipelineCache(Config config) : config_(config)
{
}

uint64_t
PipelineCache::fingerprint(const trace::Trace &t)
{
    uint64_t h = mixString(0x5175e1a7ull, t.traceId);
    h = mix(h, t.spans.size());
    for (const trace::Span &s : t.spans) {
        h = mixString(h, s.spanId);
        h = mixString(h, s.parentSpanId);
        h = mixString(h, s.service);
        h = mixString(h, s.name);
        h = mix(h, static_cast<uint64_t>(s.kind));
        h = mix(h, static_cast<uint64_t>(s.startUs));
        h = mix(h, static_cast<uint64_t>(s.endUs));
        h = mix(h, static_cast<uint64_t>(s.status));
        h = mixString(h, s.container);
        h = mixString(h, s.pod);
        h = mixString(h, s.node);
    }
    return h;
}

uint64_t
PipelineCache::pairKey(uint32_t a, uint32_t b)
{
    uint32_t lo = std::min(a, b);
    uint32_t hi = std::max(a, b);
    return (static_cast<uint64_t>(hi) << 32) | lo;
}

void
PipelineCache::beginBatch()
{
    ++generation_;
    // Age-based retention: entries untouched for maxGenerations
    // batches (store-evicted traces stop appearing in snapshots and
    // age out here), then capacity retention oldest-generation first.
    std::vector<std::string> stale;
    for (const auto &[id, e] : entries_)
        if (e.lastGen + config_.maxGenerations < generation_)
            stale.push_back(id);
    std::vector<uint32_t> dropped;
    for (const std::string &id : stale) {
        dropped.push_back(entries_[id].encId);
        entries_.erase(id);
        ++stats_.evictions;
        cacheCounter("entry", "evicted").add();
    }
    if (entries_.size() > config_.maxTraces) {
        // Deterministic victim order: (lastGen, traceId).
        std::vector<std::pair<uint64_t, std::string>> order;
        order.reserve(entries_.size());
        for (const auto &[id, e] : entries_)
            order.push_back({e.lastGen, id});
        std::sort(order.begin(), order.end());
        size_t excess = entries_.size() - config_.maxTraces;
        for (size_t i = 0; i < excess; ++i) {
            dropped.push_back(entries_[order[i].second].encId);
            entries_.erase(order[i].second);
            ++stats_.evictions;
            cacheCounter("entry", "evicted").add();
        }
    }
    dropPairsOf(dropped);
}

void
PipelineCache::dropPairsOf(const std::vector<uint32_t> &encIds)
{
    if (encIds.empty() || pairs_.empty())
        return;
    std::vector<char> gone; // dense membership by encoding id
    uint32_t max_id = 0;
    for (uint32_t id : encIds)
        max_id = std::max(max_id, id);
    gone.assign(static_cast<size_t>(max_id) + 1, 0);
    for (uint32_t id : encIds)
        gone[id] = 1;
    auto is_gone = [&](uint32_t id) {
        return id < gone.size() && gone[id];
    };
    for (auto it = pairs_.begin(); it != pairs_.end();) {
        uint32_t lo = static_cast<uint32_t>(it->first);
        uint32_t hi = static_cast<uint32_t>(it->first >> 32);
        if (is_gone(lo) || is_gone(hi))
            it = pairs_.erase(it);
        else
            ++it;
    }
}

void
PipelineCache::eraseEntry(const std::string &traceId, bool invalidated)
{
    auto it = entries_.find(traceId);
    if (it == entries_.end())
        return;
    std::vector<uint32_t> dropped{it->second.encId};
    entries_.erase(it);
    if (invalidated) {
        ++stats_.invalidations;
        cacheCounter("entry", "invalidated").add();
    }
    dropPairsOf(dropped);
}

const distance::WeightedSpanSet *
PipelineCache::lookupEncoding(const std::string &traceId, uint64_t fp,
                              uint32_t *encId)
{
    auto it = entries_.find(traceId);
    if (it != entries_.end() && it->second.fp != fp) {
        // The trace mutated between polls (new span, changed error
        // flag, ...): everything derived from it is stale.
        eraseEntry(traceId, /*invalidated=*/true);
        it = entries_.end();
    }
    if (it == entries_.end() || !it->second.hasSet) {
        ++stats_.encodingMisses;
        cacheCounter("encoding", "miss").add();
        return nullptr;
    }
    it->second.lastGen = generation_;
    ++stats_.encodingHits;
    cacheCounter("encoding", "hit").add();
    *encId = it->second.encId;
    return &it->second.set;
}

void
PipelineCache::storeEncoding(const std::string &traceId, uint64_t fp,
                             distance::WeightedSpanSet set,
                             uint32_t *encId)
{
    Entry &e = entries_[traceId];
    if (e.encId == 0)
        e.encId = nextEncId_++;
    e.fp = fp;
    e.lastGen = generation_;
    e.hasSet = true;
    e.set = std::move(set);
    *encId = e.encId;
}

bool
PipelineCache::lookupDistance(uint32_t a, uint32_t b, double *out)
{
    auto it = pairs_.find(pairKey(a, b));
    if (it == pairs_.end()) {
        ++stats_.distanceMisses;
        return false;
    }
    ++stats_.distanceHits;
    *out = it->second;
    return true;
}

void
PipelineCache::storeDistance(uint32_t a, uint32_t b, double d)
{
    pairs_[pairKey(a, b)] = d;
}

const distance::DistanceMatrix *
PipelineCache::lookupMatrixPrefix(const std::vector<uint32_t> &encIds,
                                  size_t *prefixLen)
{
    const size_t k = matrixEncIds_.size();
    if (k < 2 || k > encIds.size() ||
        !std::equal(matrixEncIds_.begin(), matrixEncIds_.end(),
                    encIds.begin())) {
        cacheCounter("matrix", "miss").add();
        return nullptr;
    }
    ++stats_.matrixPrefixHits;
    cacheCounter("matrix", "hit").add();
    *prefixLen = k;
    return &matrix_;
}

void
PipelineCache::storeMatrix(const std::vector<uint32_t> &encIds,
                           const distance::DistanceMatrix &m)
{
    if (encIds.size() < 2 || encIds.size() > config_.maxMatrixTraces)
        return;
    matrixEncIds_ = encIds;
    matrix_ = m;
}

const RcaResult *
PipelineCache::lookupVerdict(const std::string &traceId, uint64_t fp,
                             int64_t sloUs)
{
    auto it = entries_.find(traceId);
    if (it != entries_.end() && it->second.fp != fp) {
        eraseEntry(traceId, /*invalidated=*/true);
        it = entries_.end();
    }
    if (it == entries_.end()) {
        ++stats_.verdictMisses;
        cacheCounter("verdict", "miss").add();
        return nullptr;
    }
    auto v = it->second.verdicts.find(sloUs);
    if (v == it->second.verdicts.end()) {
        ++stats_.verdictMisses;
        cacheCounter("verdict", "miss").add();
        return nullptr;
    }
    it->second.lastGen = generation_;
    ++stats_.verdictHits;
    cacheCounter("verdict", "hit").add();
    return &v->second;
}

void
PipelineCache::storeVerdict(const std::string &traceId, uint64_t fp,
                            int64_t sloUs, RcaResult verdict)
{
    Entry &e = entries_[traceId];
    if (e.encId == 0)
        e.encId = nextEncId_++;
    e.fp = fp;
    e.lastGen = generation_;
    e.verdicts[sloUs] = std::move(verdict);
}

const PipelineResult *
PipelineCache::lookupBatch(uint64_t batchKey)
{
    if (batchResult_ == nullptr || batchKey_ != batchKey) {
        cacheCounter("batch", "miss").add();
        return nullptr;
    }
    ++stats_.batchHits;
    cacheCounter("batch", "hit").add();
    return batchResult_.get();
}

void
PipelineCache::storeBatch(uint64_t batchKey,
                          const PipelineResult &result)
{
    batchKey_ = batchKey;
    batchResult_ = std::make_unique<PipelineResult>(result);
}

} // namespace sleuth::core
