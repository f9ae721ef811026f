#include "pipeline_cache.h"

#include <algorithm>
#include <utility>
#include <vector>

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

void
PipelineCache::beginBatch()
{
    ++generation_;
    // Age-based retention: entries untouched for maxGenerations
    // batches (store-evicted traces stop appearing in snapshots and
    // age out here), then capacity retention oldest-generation first.
    size_t evicted = std::erase_if(entries_, [&](const auto &kv) {
        return kv.second.lastGen + config_.maxGenerations < generation_;
    });
    if (entries_.size() > config_.maxTraces) {
        // Deterministic victim order: (lastGen, traceId).
        std::vector<std::pair<uint64_t, std::string>> order;
        order.reserve(entries_.size());
        for (const auto &[id, e] : entries_)
            order.push_back({e.lastGen, id});
        std::sort(order.begin(), order.end());
        size_t excess = entries_.size() - config_.maxTraces;
        for (size_t i = 0; i < excess; ++i)
            entries_.erase(order[i].second);
        evicted += excess;
    }
    if (evicted > 0) {
        stats_.evictions += evicted;
        cacheCounter("entry", "evicted").add(evicted);
    }
}

PipelineCache::Entry *
PipelineCache::find(const std::string &traceId, uint64_t fp)
{
    auto it = entries_.find(traceId);
    if (it == entries_.end())
        return nullptr;
    if (it->second.fp != fp) {
        // The trace mutated between polls (new span, changed error
        // flag, ...): everything derived from it is stale.
        entries_.erase(it);
        ++stats_.invalidations;
        cacheCounter("entry", "invalidated").add();
        return nullptr;
    }
    it->second.lastGen = generation_;
    return &it->second;
}

PipelineCache::Entry &
PipelineCache::slot(const std::string &traceId, uint64_t fp)
{
    Entry &e = entries_[traceId];
    e.fp = fp;
    e.lastGen = generation_;
    return e;
}

const distance::WeightedSpanSet *
PipelineCache::lookupEncoding(const std::string &traceId, uint64_t fp)
{
    Entry *e = find(traceId, fp);
    if (e == nullptr || !e->hasSet) {
        ++stats_.encodingMisses;
        cacheCounter("encoding", "miss").add();
        return nullptr;
    }
    ++stats_.encodingHits;
    cacheCounter("encoding", "hit").add();
    return &e->set;
}

void
PipelineCache::storeEncoding(const std::string &traceId, uint64_t fp,
                             distance::WeightedSpanSet set)
{
    Entry &e = slot(traceId, fp);
    e.hasSet = true;
    e.set = std::move(set);
}

const RcaResult *
PipelineCache::lookupVerdict(const std::string &traceId, uint64_t fp,
                             int64_t sloUs)
{
    if (Entry *e = find(traceId, fp)) {
        auto v = e->verdicts.find(sloUs);
        if (v != e->verdicts.end()) {
            ++stats_.verdictHits;
            cacheCounter("verdict", "hit").add();
            return &v->second;
        }
    }
    ++stats_.verdictMisses;
    cacheCounter("verdict", "miss").add();
    return nullptr;
}

void
PipelineCache::storeVerdict(const std::string &traceId, uint64_t fp,
                            int64_t sloUs, RcaResult verdict)
{
    slot(traceId, fp).verdicts[sloUs] = std::move(verdict);
}

} // namespace sleuth::core
