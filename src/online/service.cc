#include "service.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <limits>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/strings.h"

namespace sleuth::online {

namespace {

const trace::Span *
rootSpan(const trace::Trace &t)
{
    for (const trace::Span &s : t.spans)
        if (s.parentSpanId.empty())
            return &s;
    return nullptr;
}

} // namespace

const char *
toString(ShedPolicy p)
{
    switch (p) {
      case ShedPolicy::DropNewest: return "drop-newest";
      case ShedPolicy::DropOldest: return "drop-oldest";
      case ShedPolicy::Sample: return "sample";
    }
    util::panic("invalid shed policy");
}

bool
shedPolicyFromString(std::string_view name, ShedPolicy *out)
{
    if (name == "drop-newest") {
        *out = ShedPolicy::DropNewest;
        return true;
    }
    if (name == "drop-oldest") {
        *out = ShedPolicy::DropOldest;
        return true;
    }
    if (name == "sample") {
        *out = ShedPolicy::Sample;
        return true;
    }
    return false;
}

OnlineService::OnlineService(const core::SleuthGnn &model,
                             core::FeatureEncoder &encoder,
                             const core::NormalProfile &profile,
                             OnlineConfig config)
    : config_(std::move(config)),
      pipeline_(model, encoder, profile, config_.pipeline),
      cache_(config_.cacheConfig),
      ring_(config_.ringCapacitySpans),
      assembler_(config_.assembler),
      store_(config_.retention),
      detector_(config_.detector)
{
}

EndpointProfile
OnlineService::profileFor(const std::string &endpoint) const
{
    auto it = config_.endpoints.find(endpoint);
    return it == config_.endpoints.end() ? EndpointProfile{} : it->second;
}

bool
OnlineService::ingest(const SpanEvent &event)
{
    return ingest(SpanEvent(event));
}

bool
OnlineService::ingest(SpanEvent &&event)
{
    // The hot path only bumps relaxed counters; poll() delta-flushes
    // the sum into the obs registry (a per-span counter add costs a
    // measurable ~2% of ingest throughput).
    spans_offered_.fetch_add(1, std::memory_order_relaxed);
    if (!ring_.tryPush(std::move(event))) {
        // Physically full: last-resort enqueue-side drop. Only the
        // count is deterministic here (see file comment in service.h).
        ring_full_drops_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    return true;
}

std::vector<trace::Trace>
OnlineService::drainRing(int64_t nowUs)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanEvent> &batch = batch_;
    batch.clear();
    ring_.drainInto(&batch);

    // The ring interleaves producer streams nondeterministically;
    // canonical event-time order (endUs, traceId, spanId) restores a
    // batch that is a pure function of the event multiset before any
    // decision is taken. Sorting (endUs, position) keys leaves the
    // events in place. Duplicate deliveries tie on every key and are
    // content-identical, so an unstable sort is still deterministic.
    std::vector<std::pair<int64_t, size_t>> &order = drain_order_;
    order.resize(batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
        order[i] = {batch[i].span.endUs, i};
    std::sort(order.begin(), order.end(),
              [&](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first < b.first;
                  const SpanEvent &x = batch[a.second];
                  const SpanEvent &y = batch[b.second];
                  if (x.traceId != y.traceId)
                      return x.traceId < y.traceId;
                  return x.span.spanId < y.span.spanId;
              });

    // Poll-side deterministic shedding: survivors are a pure function
    // of the canonical order, never of producer interleaving.
    size_t budget = config_.shedBudgetSpans;
    if (budget > 0 && order.size() > budget) {
        size_t shed = order.size() - budget;
        switch (config_.shedPolicy) {
          case ShedPolicy::DropNewest:
            order.resize(budget); // keep the oldest events
            break;
          case ShedPolicy::DropOldest:
            order.erase(order.begin(), order.begin() + shed); // newest
            break;
          case ShedPolicy::Sample: {
            // Bottom-budget by (fnv1a(traceId), traceId, spanId):
            // trace-coherent (spans of one trace sort adjacently) and
            // uniform across trace ids. The survivors keep their
            // canonical ranks' order, so the assembler feed stays in
            // event-time order.
            auto ranked = [&](size_t k) -> const SpanEvent & {
                return batch[order[k].second];
            };
            std::vector<std::pair<uint64_t, size_t>> keyed(order.size());
            for (size_t k = 0; k < order.size(); ++k)
                keyed[k] = {util::fnv1a(ranked(k).traceId), k};
            std::sort(keyed.begin(), keyed.end(),
                      [&](const auto &a, const auto &b) {
                          if (a.first != b.first)
                              return a.first < b.first;
                          const SpanEvent &x = ranked(a.second);
                          const SpanEvent &y = ranked(b.second);
                          if (x.traceId != y.traceId)
                              return x.traceId < y.traceId;
                          return x.span.spanId < y.span.spanId;
                      });
            keyed.resize(budget);
            std::sort(keyed.begin(), keyed.end(),
                      [](const auto &a, const auto &b) {
                          return a.second < b.second;
                      });
            // keyed[k].second >= k, so no surviving rank is
            // overwritten before it moves.
            for (size_t k = 0; k < budget; ++k)
                order[k] = order[keyed[k].second];
            order.resize(budget);
            break;
          }
        }
        ring_stats_.countDrop(collector::DropReason::Shed, shed);
        static obs::Counter &shedCount = obs::counter(
            "sleuth_service_shed_spans_total",
            "Spans shed poll-side by the backpressure policy");
        shedCount.add(shed);
    }

    // Fold the enqueue-side ring-full drops accumulated since the
    // last poll into the poll-side stats block.
    size_t ring_full = ring_full_drops_.load(std::memory_order_relaxed);
    if (ring_full > ring_full_flushed_) {
        ring_stats_.countDrop(collector::DropReason::RingFull,
                              ring_full - ring_full_flushed_);
        ring_full_flushed_ = ring_full;
    }

    // Move the survivors in canonical order, then advance the
    // assembler's watermark.
    for (const auto &key : order)
        assembler_.add(std::move(batch[key.second]));
    batch.clear();
    return assembler_.drain(nowUs);
}

void
OnlineService::absorb(std::vector<trace::Trace> traces)
{
    for (trace::Trace &t : traces) {
        const trace::Span *root = rootSpan(t);
        // The assembler only emits TraceGraph-validated traces, which
        // always have exactly one root.
        SLEUTH_ASSERT(root != nullptr, "assembled trace lost its root");
        std::string endpoint = root->service + "/" + root->name;
        EndpointProfile prof = profileFor(endpoint);

        Observation obs;
        obs.endpoint = std::move(endpoint);
        obs.startUs = root->startUs;
        obs.durationUs = root->durationUs();
        obs.error = root->hasError();
        obs.anomalous =
            obs.error || (prof.sloUs > 0 && obs.durationUs > prof.sloUs);

        last_record_id_ =
            store_.insert(std::move(t), prof.sloUs, prof.flowIndex);
        ++traces_stored_;
        // Capture the record's bytes while it is guaranteed live (a
        // record is never evicted during its own insert; see the
        // poll_batch_ comment in service.h).
        if (durable_log_) {
            appendSpanBatchRecord(poll_batch_,
                                  store_.at(last_record_id_));
            ++poll_batch_count_;
        }

        detector_.observe(obs);
    }
    static obs::Counter &stored = obs::counter(
        "sleuth_service_traces_stored_total",
        "Assembled traces absorbed into the online trace store");
    stored.add(traces.size());
}

std::vector<size_t>
OnlineService::poll(int64_t nowUs)
{
    std::vector<trace::Trace> completed = drainRing(nowUs);
    // Amortized flush of the per-span ingest count (see ingest()).
    static obs::Counter &ingested = obs::counter(
        "sleuth_service_spans_ingested_total",
        "Spans offered to the online service (pre-admission)");
    size_t ingested_total = spans_offered_.load(std::memory_order_relaxed);
    ingested.add(ingested_total - obs_ingested_flushed_);
    obs_ingested_flushed_ = ingested_total;
    static obs::Histogram &batch = obs::histogram(
        "sleuth_service_poll_batch_traces",
        "Traces completed per service poll");
    batch.record(static_cast<double>(completed.size()));
    absorb(std::move(completed));
    watermark_ = std::max(watermark_, nowUs - config_.assembler.latenessUs);
    // Instantaneous health gauges, refreshed once per poll.
    static obs::Gauge &backlog = obs::gauge(
        "sleuth_service_backlog_spans",
        "Spans buffered in the ingest assembler");
    static obs::Gauge &pendingTraces = obs::gauge(
        "sleuth_service_pending_traces",
        "Incomplete traces buffered in the ingest assembler");
    static obs::Gauge &lag = obs::gauge(
        "sleuth_service_watermark_lag_us",
        "Distance from the poll clock to the event-time watermark");
    static obs::Gauge &stored = obs::gauge(
        "sleuth_service_stored_records",
        "Trace records currently retained by the online store");
    // poll() is the assembler's only writer, so it reads it unlocked.
    backlog.set(static_cast<int64_t>(assembler_.pendingSpans()));
    pendingTraces.set(static_cast<int64_t>(assembler_.pendingTraces()));
    lag.set(nowUs - watermark_);
    stored.set(static_cast<int64_t>(store_.size()));
    std::vector<size_t> changed = evaluate(watermark_);
    if (durable_log_)
        commitPoll(changed);
    return changed;
}

std::vector<size_t>
OnlineService::drainAll(int64_t nowUs)
{
    std::vector<size_t> changed = poll(nowUs);
    std::vector<trace::Trace> completed;
    {
        std::lock_guard<std::mutex> lock(mu_);
        completed = assembler_.flush();
    }
    absorb(std::move(completed));
    // Evaluate at nowUs itself: the flush already forfeited lateness.
    watermark_ = std::max(watermark_, nowUs);
    std::vector<size_t> more = evaluate(watermark_);
    changed.insert(changed.end(), more.begin(), more.end());
    // The stream is over: advance past every detection window so the
    // storms observe the silence, clear, and resolve open incidents.
    watermark_ +=
        (static_cast<int64_t>(config_.detector.windowBuckets) + 1) *
        config_.detector.bucketUs;
    more = evaluate(watermark_);
    changed.insert(changed.end(), more.begin(), more.end());
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());
    // The flush + resolution sweep is one more commit group (poll()
    // above already sealed its own). Re-logging an incident already
    // updated this call is an idempotent overwrite on replay.
    if (durable_log_)
        commitPoll(changed);
    return changed;
}

std::vector<size_t>
OnlineService::evaluate(int64_t watermark_us)
{
    // Storm hysteresis makes the flags depend on the whole advance
    // sequence, so each advance is journaled for the poll marker.
    if (durable_log_)
        pending_advances_.push_back(watermark_us);
    std::vector<StormTransition> transitions =
        detector_.advance(watermark_us);
    std::vector<size_t> changed;

    // At most one incident is open at a time: concurrent endpoint
    // storms are one outage seen from several endpoints.
    Incident *open = nullptr;
    size_t open_index = 0;
    if (!incidents_.empty() &&
        incidents_.back().state != Incident::State::Resolved) {
        open = &incidents_.back();
        open_index = incidents_.size() - 1;
    }

    std::vector<std::string> onsets;
    for (const StormTransition &t : transitions)
        if (t.kind == StormTransition::Kind::Onset)
            onsets.push_back(t.endpoint);

    if (!onsets.empty()) {
        if (open == nullptr) {
            Incident incident;
            incident.id = incidents_.size();
            incident.state = Incident::State::Open;
            incident.openedAtUs = watermark_us;
            incident.endpoints = onsets;
            incidents_.push_back(std::move(incident));
            open = &incidents_.back();
            open_index = incidents_.size() - 1;
            static obs::Counter &opened = obs::counter(
                "sleuth_service_incidents_total",
                "Incident lifecycle events", {{"event", "opened"}});
            opened.add();
            analyzeIncident(open, watermark_us);
            changed.push_back(open_index);
        } else {
            for (const std::string &e : onsets)
                if (std::find(open->endpoints.begin(),
                              open->endpoints.end(),
                              e) == open->endpoints.end())
                    open->endpoints.push_back(e);
            changed.push_back(open_index);
        }
    }

    // A persisting storm keeps depositing traces into the detection
    // window; optionally refresh the open incident's verdict over the
    // slid window. The incremental cache re-encodes and re-judges only
    // the traces that are new or changed since the previous snapshot.
    if (config_.reanalyzeOpenIncidents && open != nullptr &&
        open->state == Incident::State::Analyzed &&
        !detector_.stormingEndpoints().empty() &&
        last_record_id_ != open->snapshotMaxRecordId) {
        analyzeIncident(open, watermark_us);
        changed.push_back(open_index);
    }

    if (open != nullptr && detector_.stormingEndpoints().empty()) {
        open->state = Incident::State::Resolved;
        open->resolvedAtUs = watermark_us;
        static obs::Counter &resolved = obs::counter(
            "sleuth_service_incidents_total",
            "Incident lifecycle events", {{"event", "resolved"}});
        resolved.add();
        changed.push_back(open_index);
    }
    static obs::Gauge &openGauge = obs::gauge(
        "sleuth_service_open_incidents",
        "Incidents currently open or analyzed but unresolved");
    openGauge.set(open != nullptr &&
                          open->state != Incident::State::Resolved
                      ? 1
                      : 0);

    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());
    return changed;
}

void
OnlineService::analyzeIncident(Incident *incident, int64_t watermark_us)
{
    // Re-analysis rebuilds the snapshot over the slid window: clear
    // everything derived from the previous one first.
    incident->anomalousTraces.clear();
    incident->slos.clear();
    incident->normalSample.clear();
    incident->normalsConsidered = 0;
    incident->rankedRootCauses.clear();

    // The detector window at watermark W covers buckets lo..hi, i.e.
    // event times [lo*bucketUs, (hi+1)*bucketUs). Snapshot exactly it.
    int64_t bucket = config_.detector.bucketUs;
    int64_t hi = watermark_us / bucket;
    if (watermark_us % bucket < 0)
        --hi;
    int64_t lo =
        hi - static_cast<int64_t>(config_.detector.windowBuckets) + 1;
    incident->windowStartUs = lo * bucket;
    incident->windowEndUs = (hi + 1) * bucket;
    // Pin the store high-water mark: traces finishing assembly after
    // this point may carry start times inside the window but were not
    // part of the snapshot. Queries filtered by id <= this reproduce it.
    incident->snapshotMaxRecordId = last_record_id_;

    storage::Query q;
    q.minStartUs = incident->windowStartUs;
    q.maxStartUs = incident->windowEndUs;
    std::vector<const storage::Record *> window = store_.query(q);

    std::vector<const storage::Record *> normals;
    for (const storage::Record *r : window) {
        if (r->anomalous()) {
            incident->anomalousTraces.push_back(r->trace());
            incident->slos.push_back(r->sloUs);
        } else {
            normals.push_back(r);
        }
    }
    incident->normalsConsidered = normals.size();

    // Canonical snapshot order: (root start, traceId). The batch side
    // of the online/batch differential sorts identically, so HDBSCAN
    // sees the same batch order on both paths.
    std::vector<size_t> order(incident->anomalousTraces.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return canonicalTraceOrder(incident->anomalousTraces[a],
                                   incident->anomalousTraces[b]);
    });
    std::vector<trace::Trace> sorted_traces;
    std::vector<int64_t> sorted_slos;
    sorted_traces.reserve(order.size());
    sorted_slos.reserve(order.size());
    for (size_t i : order) {
        sorted_traces.push_back(std::move(incident->anomalousTraces[i]));
        sorted_slos.push_back(incident->slos[i]);
    }
    incident->anomalousTraces = std::move(sorted_traces);
    incident->slos = std::move(sorted_slos);

    // Deterministic normal sample: bottom-k by (hash, traceId) — a
    // uniform reservoir-equivalent that never depends on store order.
    // The hash was computed once at store insert (Record::traceIdHash),
    // so the sort never re-hashes a record per comparison.
    if (config_.normalSampleSize > 0 && !normals.empty()) {
        std::sort(normals.begin(), normals.end(),
                  [](const storage::Record *a, const storage::Record *b) {
                      if (a->traceIdHash != b->traceIdHash)
                          return a->traceIdHash < b->traceIdHash;
                      return a->traceId() < b->traceId();
                  });
        size_t k = std::min(config_.normalSampleSize, normals.size());
        incident->normalSample.reserve(k);
        for (size_t i = 0; i < k; ++i)
            incident->normalSample.push_back(normals[i]->trace());
    }

    if (!incident->anomalousTraces.empty()) {
        int64_t earliest = incident->anomalousTraces[0].rootStartUs();
        for (const trace::Trace &t : incident->anomalousTraces)
            earliest = std::min(earliest, t.rootStartUs());
        incident->detectionLatencyUs = incident->openedAtUs - earliest;
    }

    auto t0 = std::chrono::steady_clock::now();
    incident->rca = pipeline_.analyze(
        incident->anomalousTraces, incident->slos,
        config_.incrementalCache ? &cache_ : nullptr);
    auto t1 = std::chrono::steady_clock::now();
    incident->rcaMillis =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    incident->rankedRootCauses = core::aggregateRootCauses(incident->rca);
    incident->state = Incident::State::Analyzed;
    static obs::Counter &analyzed = obs::counter(
        "sleuth_service_incidents_total", "Incident lifecycle events",
        {{"event", "analyzed"}});
    analyzed.add();
    static obs::Histogram &rcaMs = obs::histogram(
        "sleuth_service_incident_rca_ms",
        "Incident-scoped RCA wall-clock milliseconds");
    rcaMs.record(incident->rcaMillis);
}

RecoveryInfo
OnlineService::enableDurability(const durable::DurableConfig &cfg,
                                const RecoverOptions &opts)
{
    SLEUTH_ASSERT(durable_log_ == nullptr,
                  "durability is already enabled");
    SLEUTH_ASSERT(traces_stored_ == 0 && store_.size() == 0 &&
                      incidents_.empty(),
                  "enable durability on a fresh service, before "
                  "any ingest");

    auto log = std::make_unique<durable::DurableLog>(cfg);
    durable::RecoveredLog recovered = log->recover();

    RecoveryInfo info;
    auto t0 = std::chrono::steady_clock::now();
    DurableServingState state =
        replayRecoveredLog(recovered, config_.detector, opts, &info);
    auto t1 = std::chrono::steady_clock::now();
    static obs::Histogram &recoveryMs = obs::histogram(
        "sleuth_recovery_ms",
        "Durable recovery wall-clock milliseconds (scan + replay)");
    recoveryMs.record(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (!info.ok)
        return info;

    // Install the recovered state wholesale: the replayed store owns
    // its own interner and the detector its rebuilt rings. Eviction
    // tracking goes on BEFORE the retention policy is re-applied so a
    // config shrink's evictions land in the first commit group.
    store_ = std::move(state.store);
    store_.trackEvictions(true);
    store_.setRetention(config_.retention);
    detector_ = std::move(state.detector);
    incidents_ = std::move(state.incidents);
    watermark_ = state.watermarkUs;
    traces_stored_ = state.tracesStored;
    last_record_id_ = state.lastRecordId;
    interner_logged_ = store_.interner()->size();

    // Late-span semantics must survive the restart: a committed poll
    // at nowUs left the assembler's watermark at nowUs - latenessUs,
    // which is exactly the watermark the marker recorded. Seed the
    // fresh assembler's clock from it so a span the crashed process
    // would have rejected as late (at-least-once upstreams redeliver
    // the tail, stragglers included) is rejected identically here.
    if (watermark_ != std::numeric_limits<int64_t>::min())
        assembler_.drain(watermark_ + config_.assembler.latenessUs);

    std::string err;
    if (!log->openForAppend(recovered,
                            encodeEpochPayload(config_.detector),
                            &err)) {
        info.ok = false;
        info.error = "open for append failed: " + err;
        return info;
    }
    durable_log_ = std::move(log);
    return info;
}

bool
OnlineService::snapshotNow(std::string *err)
{
    SLEUTH_ASSERT(durable_log_ != nullptr,
                  "snapshotNow requires durability to be enabled");
    std::string payload = encodeSnapshotPayload(
        store_, config_.detector, detector_, incidents_, watermark_,
        traces_stored_, last_record_id_);
    std::string e;
    if (!durable_log_->rotateWithSnapshot(
            payload, encodeEpochPayload(config_.detector), &e)) {
        util::warn("snapshot rotation failed: ", e);
        if (err != nullptr)
            *err = std::move(e);
        return false;
    }
    polls_since_snapshot_ = 0;
    return true;
}

uint64_t
OnlineService::servingFingerprint() const
{
    return servingStateFingerprint(store_, detector_, incidents_,
                                   watermark_, traces_stored_,
                                   last_record_id_);
}

void
OnlineService::commitPoll(const std::vector<size_t> &changed)
{
    // One commit group, in replay order: vocabulary first (the span
    // batch's raw u32 ids reference it), then the batch, the eviction
    // summary, incident updates, and the sealing marker. The group
    // fsync (policy=group) lands on the marker via commit().
    const auto &interner = store_.interner();
    size_t interned = interner->size();
    if (interned > interner_logged_) {
        durable_log_->append(
            durable::RecordKind::InternerDelta,
            encodeInternerDeltaPayload(
                static_cast<uint32_t>(interner_logged_),
                interner->namesFrom(interner_logged_)));
        interner_logged_ = interned;
    }
    if (poll_batch_count_ > 0) {
        durable_log_->append(durable::RecordKind::SpanBatch,
                             poll_batch_.take());
        poll_batch_count_ = 0;
    }
    std::vector<size_t> evicted = store_.takeRecentEvictions();
    if (!evicted.empty())
        durable_log_->append(durable::RecordKind::Eviction,
                             encodeEvictionPayload(evicted));
    for (size_t index : changed)
        durable_log_->append(
            durable::RecordKind::IncidentUpdate,
            encodeIncidentUpdatePayload(index, incidents_[index]));

    PollMarkerPayload marker;
    marker.watermarkUs = watermark_;
    marker.lastRecordId = last_record_id_;
    marker.tracesStored = traces_stored_;
    marker.storeRecords = store_.size();
    marker.storeSpans = store_.totalSpans();
    marker.internerSize = interner->size();
    marker.advanceWatermarks = std::move(pending_advances_);
    pending_advances_.clear();
    durable_log_->append(durable::RecordKind::PollMarker,
                         encodePollMarkerPayload(marker));
    durable_log_->commit();

    ++polls_since_snapshot_;
    uint64_t every = durable_log_->config().snapshotEveryPolls;
    if (every > 0 && polls_since_snapshot_ >= every)
        snapshotNow();
}

size_t
OnlineService::backlogSpans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Ring occupancy counts too: an enqueued span is buffered until
    // the next poll drains it (exact under mu_ when producers are
    // quiescent — the barrier points callers use).
    return assembler_.pendingSpans() + ring_.sizeApprox();
}

OnlineStats
OnlineService::stats() const
{
    OnlineStats s;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.spansIngested = spans_offered_.load(std::memory_order_relaxed);
        s.assembly = assembler_.stats();
        s.assembly.merge(ring_stats_);
        // Ring-full drops not yet folded by a poll.
        size_t ring_full =
            ring_full_drops_.load(std::memory_order_relaxed);
        if (ring_full > ring_full_flushed_) {
            size_t unflushed = ring_full - ring_full_flushed_;
            s.assembly.spansRejected += unflushed;
            s.assembly.droppedRingFull += unflushed;
        }
    }
    s.tracesStored = traces_stored_;
    for (const Incident &i : incidents_) {
        ++s.incidentsOpened;
        if (i.state != Incident::State::Open)
            ++s.incidentsAnalyzed;
        if (i.state == Incident::State::Resolved)
            ++s.incidentsResolved;
    }
    return s;
}

util::Json
OnlineService::statsJson() const
{
    OnlineStats s = stats();
    util::Json doc = util::Json::object();
    doc.set("spansIngested", s.spansIngested);
    doc.set("spansAccepted", s.assembly.spansAccepted);
    doc.set("spansRejected", s.assembly.spansRejected);
    doc.set("tracesAccepted", s.assembly.tracesAccepted);
    doc.set("tracesRejected", s.assembly.tracesRejected);
    doc.set("tracesStored", s.tracesStored);
    util::Json drops = util::Json::object();
    drops.set("orphan", s.assembly.droppedOrphan);
    drops.set("duplicate", s.assembly.droppedDuplicate);
    drops.set("lateAfterEviction", s.assembly.droppedLate);
    drops.set("malformed", s.assembly.droppedMalformed);
    drops.set("backpressure", s.assembly.droppedBackpressure);
    drops.set("ringFull", s.assembly.droppedRingFull);
    drops.set("shed", s.assembly.droppedShed);
    doc.set("drops", std::move(drops));
    doc.set("shedPolicy", std::string(toString(config_.shedPolicy)));
    doc.set("backlogSpans", backlogSpans());
    doc.set("watermarkUs", watermark_);
    doc.set("storedRecords", store_.size());
    doc.set("storedSpans", store_.totalSpans());
    doc.set("evictedRecords", store_.evictions().records);
    doc.set("evictedSpans", store_.evictions().spans);
    doc.set("incidentsOpened", s.incidentsOpened);
    doc.set("incidentsAnalyzed", s.incidentsAnalyzed);
    doc.set("incidentsResolved", s.incidentsResolved);
    if (config_.incrementalCache) {
        core::PipelineCache::Stats cs = cache_.stats();
        util::Json cache = util::Json::object();
        cache.set("entries", cache_.size());
        cache.set("encodingHits", cs.encodingHits);
        cache.set("encodingMisses", cs.encodingMisses);
        cache.set("verdictHits", cs.verdictHits);
        cache.set("verdictMisses", cs.verdictMisses);
        cache.set("invalidations", cs.invalidations);
        cache.set("evictions", cs.evictions);
        doc.set("incrementalCache", std::move(cache));
    }
    return doc;
}

} // namespace sleuth::online
