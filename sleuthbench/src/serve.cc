// serve_steady and serve_storm: the online daemon as sleuth_serviced
// runs it, fed by a delivery schedule the benchmark builds during
// set-up (simulated requests on a Poisson arrival timeline, each span
// delivered at its end time plus jitter, some twice).
//
// The benchmark thread is the single producer. Per poll interval it calls
// OnlineService::ingest for that interval's deliveries, then poll():
// a closed loop in event time (the next interval is delivered only
// after the poll returns), with no threads spawned per poll.
//
//  - serve_steady: durable (fsync=group, snapshot every 64 polls),
//    100k-span retention so most polls evict, 2,000 requests/s, a series
//    of short fault phases each opening one incident analyzed once.
//    Ingest, assembly, detection, store and WAL dominate.
//  - serve_storm: not durable, ~400 requests/s, one fault phase over
//    most of the stream and reanalyzeOpenIncidents on, so almost every
//    poll re-analyzes the incident through the PipelineCache.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "core/pipeline_cache.h"
#include "durable/durable_log.h"
#include "fixture.h"
#include "online/durable_state.h"
#include "online/live_source.h"
#include "online/service.h"
#include "sim/simulator.h"
#include "util/binary.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace sleuthbench {

using namespace sleuth;

namespace {

constexpr int64_t kPollUs = 250'000;
constexpr int64_t kJitterUs = 20'000;
constexpr double kDuplicateProb = 0.02;
/** Timed snapshots per traced stream and recoveries per stream. */
constexpr int kSnapshotRepeats = 5;
constexpr int kRecoveryRepeats = 3;

struct Spec
{
    bool steady = true;
    size_t requests = 0;
    double ratePerSec = 0.0;
};

Spec
specFor(const std::string &workload)
{
    if (workload == "serve_steady")
        return {true, 26'000, 2'000.0};
    return {false, 4'800, 400.0};
}

/** The fault phases of a stream; starts are off the 250 ms poll grid. */
chaos::FaultSchedule
faultSchedule(const Fixture &fx, const Spec &spec)
{
    chaos::FaultSchedule s;
    s.phases.push_back({0, {}});
    if (spec.steady) {
        for (int j = 0; j < 6; ++j) {
            int64_t start = 1'137'000 + j * 2'300'000;
            s.phases.push_back(
                {start, effectivePlan(fx, 1 + j % 2, 0x5e7d + j)});
            s.phases.push_back({start + 600'000, {}});
        }
    } else {
        s.phases.push_back({1'137'000, effectivePlan(fx, 1, 0x5707)});
        s.phases.push_back({10'911'000, {}});
    }
    return s;
}

online::OnlineConfig
serviceConfig(const Fixture &fx, const Spec &spec)
{
    online::OnlineConfig cfg;
    cfg.endpoints = online::endpointProfiles(fx.app);
    // Full from about the 12th poll of serve_steady on, so that most
    // polls evict: the daemon's steady state, and one regime for the
    // median and p75 instead of a boundary between two.
    cfg.retention.maxSpans = 100'000;
    cfg.detector.bucketUs = kPollUs;
    cfg.detector.windowBuckets = 4;
    cfg.reanalyzeOpenIncidents = !spec.steady;
    return cfg;
}

/**
 * One span delivery of the schedule, its strings interned: the full
 * SpanEvent of a stream would take ~0.7 KB per delivery, most of it in
 * repeated service, operation and placement names.
 */
struct Delivery
{
    int64_t atUs = 0;
    int64_t startUs = 0;
    int64_t endUs = 0;
    uint32_t traceId = 0;
    uint32_t spanId = 0;
    uint32_t parentSpanId = 0;
    uint32_t service = 0;
    uint32_t name = 0;
    uint32_t container = 0;
    uint32_t pod = 0;
    uint32_t node = 0;
    trace::SpanKind kind = trace::SpanKind::Server;
    trace::StatusCode status = trace::StatusCode::Unset;
};

class Vocabulary
{
  public:
    uint32_t
    id(const std::string &s)
    {
        auto [it, fresh] =
            ids_.try_emplace(s, static_cast<uint32_t>(names_.size()));
        if (fresh)
            names_.push_back(s);
        return it->second;
    }
    const std::string &name(uint32_t id) const { return names_[id]; }

  private:
    std::vector<std::string> names_;
    std::unordered_map<std::string, uint32_t> ids_;
};

struct Inputs
{
    std::unique_ptr<Fixture> fx;
    Spec spec;
    chaos::FaultSchedule schedule;
    /** Ground truth per phase: services of the faulted instances. */
    std::vector<std::set<std::string>> phaseServices;
    /** Deliveries in delivery order, and the strings they name. */
    std::vector<Delivery> deliveries;
    Vocabulary vocab;
    /** Poll j is at pollAt[j], after deliveries [pollEnd[j-1], pollEnd[j]). */
    std::vector<int64_t> pollAt;
    std::vector<size_t> pollEnd;
    int64_t drainAt = 0;
    uint64_t digest = 0;

    online::SpanEvent
    event(size_t i) const
    {
        const Delivery &d = deliveries[i];
        online::SpanEvent e;
        e.traceId = vocab.name(d.traceId);
        e.span.spanId = vocab.name(d.spanId);
        e.span.parentSpanId = vocab.name(d.parentSpanId);
        e.span.service = vocab.name(d.service);
        e.span.name = vocab.name(d.name);
        e.span.kind = d.kind;
        e.span.startUs = d.startUs;
        e.span.endUs = d.endUs;
        e.span.status = d.status;
        e.span.container = vocab.name(d.container);
        e.span.pod = vocab.name(d.pod);
        e.span.node = vocab.name(d.node);
        return e;
    }
};

/** The delivery schedule, built exactly as online::runLiveLoad does. */
Inputs
buildInputs(uint64_t seed, const Spec &spec)
{
    Inputs in;
    in.fx = buildFixture();
    in.spec = spec;
    const Fixture &fx = *in.fx;
    in.schedule = faultSchedule(fx, spec);
    for (const chaos::FaultPhase &p : in.schedule.phases)
        in.phaseServices.push_back(faultedServices(fx, p.plan));

    sim::Simulator simulator(fx.app, *fx.cluster,
                             {.seed = deriveSeed(seed, 0x515)});
    util::Rng rng(deriveSeed(seed, 0xa441));
    util::Rng delivery_rng = rng.fork(0xde11);
    std::vector<Delivery> &deliveries = in.deliveries;
    Vocabulary &vocab = in.vocab;
    const chaos::FaultPlan *active = nullptr;
    double clock = 0.0;
    int64_t last_event = 0;
    for (size_t i = 0; i < spec.requests; ++i) {
        clock += rng.exponential(spec.ratePerSec / 1e6);
        int64_t arrival = static_cast<int64_t>(std::llround(clock));
        const chaos::FaultPlan &plan = in.schedule.activeAt(arrival);
        if (&plan != active) {
            simulator.setFaultPlan(plan);
            active = &plan;
        }
        sim::SimResult res = simulator.simulateOne();
        for (trace::Span &span : res.trace.spans) {
            span.startUs += arrival;
            span.endUs += arrival;
            last_event = std::max(last_event, span.endUs);
            Delivery d;
            d.atUs = span.endUs + delivery_rng.uniformInt(0, kJitterUs);
            d.startUs = span.startUs;
            d.endUs = span.endUs;
            d.traceId = vocab.id(res.trace.traceId);
            d.spanId = vocab.id(span.spanId);
            d.parentSpanId = vocab.id(span.parentSpanId);
            d.service = vocab.id(span.service);
            d.name = vocab.id(span.name);
            d.container = vocab.id(span.container);
            d.pod = vocab.id(span.pod);
            d.node = vocab.id(span.node);
            d.kind = span.kind;
            d.status = span.status;
            deliveries.push_back(d);
            if (delivery_rng.bernoulli(kDuplicateProb)) {
                Delivery dup = deliveries.back();
                dup.atUs += delivery_rng.uniformInt(0, kJitterUs);
                deliveries.push_back(dup);
            }
        }
    }
    std::stable_sort(deliveries.begin(), deliveries.end(),
                     [&vocab](const Delivery &a, const Delivery &b) {
                         if (a.atUs != b.atUs)
                             return a.atUs < b.atUs;
                         if (a.traceId != b.traceId)
                             return vocab.name(a.traceId) <
                                    vocab.name(b.traceId);
                         return vocab.name(a.spanId) < vocab.name(b.spanId);
                     });
    int64_t next_poll = kPollUs;
    size_t cursor = 0;
    while (cursor < deliveries.size()) {
        while (cursor < deliveries.size() &&
               deliveries[cursor].atUs < next_poll)
            ++cursor;
        in.pollAt.push_back(next_poll);
        in.pollEnd.push_back(cursor);
        next_poll += kPollUs;
    }
    in.drainAt = last_event + kJitterUs + kPollUs;
    for (const Delivery &d : deliveries)
        in.digest = in.digest * 31 + static_cast<uint64_t>(d.atUs) +
                    util::fnv1a(vocab.name(d.traceId));
    return in;
}

/** Index of the latest faulty phase started at or before t (or -1). */
int
faultyPhaseAt(const Inputs &in, int64_t t)
{
    int found = -1;
    for (size_t p = 0; p < in.schedule.phases.size(); ++p)
        if (in.schedule.phases[p].startUs <= t &&
            !in.schedule.phases[p].plan.empty())
            found = static_cast<int>(p);
    return found;
}

/**
 * Detection latency as online::runLiveLoad defines it, taken from the
 * snapshot of the poll that opened the incident: the opening watermark
 * minus the earliest anomalous root start at or after the fault phase
 * began.
 */
void
noteDetection(const Inputs &in, const online::Incident &inc,
              std::vector<double> *out)
{
    int p = faultyPhaseAt(in, inc.openedAtUs);
    if (p < 0)
        return;
    int64_t phase_start = in.schedule.phases[static_cast<size_t>(p)].startUs;
    int64_t onset = INT64_MAX;
    for (const trace::Trace &t : inc.anomalousTraces)
        for (const trace::Span &s : t.spans)
            if (s.parentSpanId.empty() && s.startUs >= phase_start)
                onset = std::min(onset, s.startUs);
    if (onset == INT64_MAX)
        onset = phase_start;
    out->push_back(static_cast<double>(inc.openedAtUs - onset) / 1000.0);
}

/** One incident analysis the service published during a poll. */
struct Analysis
{
    size_t poll = 0;
    int64_t openedAtUs = 0;
    std::vector<std::string> top3;
    /** Copied only for the traced stream that the replays re-run. */
    online::Incident incident;
};

/** Everything one stream through a fresh service produced. */
struct StreamResult
{
    double loopMs = 0.0;
    double ingestBusyMs = 0.0;
    double pollBusyMs = 0.0;
    double drainMs = 0.0;
    /** Per poll interval: its ingest calls plus its poll(). */
    std::vector<double> stepMs;
    std::vector<double> pollMs;
    std::vector<double> ingestCallNs;
    std::vector<Analysis> analyses;
    std::vector<double> detectionMs;
    std::vector<double> recoveryMs;
    std::vector<double> snapshotMs;
    uint64_t fingerprint = 0;
    size_t delivered = 0;
    size_t dropped = 0;
    size_t ringFull = 0;
    size_t storeRecords = 0;
    size_t storeSpans = 0;
    size_t evicted = 0;
    size_t tracesStored = 0;
    double bytesPerSpan = 0.0;
    core::PipelineCache::Stats cache;
};

std::vector<std::string>
topThree(const online::Incident &incident)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < incident.rankedRootCauses.size() && i < 3; ++i)
        out.push_back(incident.rankedRootCauses[i].first);
    return out;
}

/**
 * Deliver the whole schedule to a fresh service. `detail` (the traced
 * stream the replays re-run) additionally times every ingest call,
 * copies each analyzed incident and times snapshots.
 */
StreamResult
runStream(const Inputs &in, const RunOptions &opts, size_t stream,
          Tracer &tracer, bool detail, Report &report)
{
    const Fixture &fx = *in.fx;
    online::OnlineConfig cfg = serviceConfig(fx, in.spec);
    online::OnlineService svc(*fx.model, *fx.encoder, fx.profile, cfg);
    durable::DurableConfig dcfg;
    if (in.spec.steady) {
        dcfg.dir = opts.outDir + "/serve-" + std::to_string(getpid()) + "-" +
                   std::to_string(stream);
        dcfg.fsyncPolicy = durable::FsyncPolicy::Group;
        dcfg.snapshotEveryPolls = 64;
        std::filesystem::remove_all(dcfg.dir);
        std::filesystem::create_directories(dcfg.dir);
        online::RecoveryInfo boot = svc.enableDurability(dcfg);
        if (!boot.ok)
            report.fail("enableDurability: " + boot.error);
    }

    StreamResult r;
    std::vector<online::SpanEvent> batch;
    size_t begin = 0;
    // One incident analysis shows from outside as a new incident or as
    // a new snapshot high-water mark on the open one.
    auto analyzed = [&](size_t incidents_before, size_t snapshot_before) {
        const std::vector<online::Incident> &inc = svc.incidents();
        if (inc.empty())
            return false;
        return inc.size() > incidents_before ||
               (inc.back().state == online::Incident::State::Analyzed &&
                inc.back().snapshotMaxRecordId != snapshot_before);
    };
    auto note = [&](size_t poll, bool opened) {
        const online::Incident &i = svc.incidents().back();
        if (opened)
            noteDetection(in, i, &r.detectionMs);
        Analysis a;
        a.poll = poll;
        a.openedAtUs = i.openedAtUs;
        a.top3 = topThree(i);
        if (detail)
            a.incident = i;
        r.analyses.push_back(std::move(a));
    };
    auto state = [&] {
        const std::vector<online::Incident> &inc = svc.incidents();
        return std::make_pair(inc.size(),
                              inc.empty() ? 0 : inc.back().snapshotMaxRecordId);
    };

    for (size_t j = 0; j < in.pollAt.size(); ++j) {
        batch.clear();
        for (; begin < in.pollEnd[j]; ++begin)
            batch.push_back(in.event(begin));
        if (tracer.enabled())
            tracer.beginTrace(opts.workload + "/stream" +
                              std::to_string(stream) + "/poll" +
                              std::to_string(j));
        Tracer::Span root(tracer, "bench", "poll");
        {
            Tracer::Span span(tracer, "online", "OnlineService::ingest");
            if (detail) {
                for (online::SpanEvent &e : batch) {
                    Clock::time_point t0 = Clock::now();
                    bool ok = svc.ingest(std::move(e));
                    r.ingestCallNs.push_back(
                        std::chrono::duration<double, std::nano>(
                            Clock::now() - t0)
                            .count());
                    r.ringFull += ok ? 0 : 1;
                }
            } else {
                for (online::SpanEvent &e : batch)
                    r.ringFull += svc.ingest(std::move(e)) ? 0 : 1;
            }
            r.ingestBusyMs += span.end();
        }
        auto [incidents_before, snapshot_before] = state();
        double poll_ms = 0.0;
        {
            Tracer::Span span(tracer, "online", "OnlineService::poll");
            svc.poll(in.pollAt[j]);
            poll_ms = span.end();
        }
        r.pollMs.push_back(poll_ms);
        r.pollBusyMs += poll_ms;
        r.stepMs.push_back(root.end());
        r.loopMs += r.stepMs.back();
        if (analyzed(incidents_before, snapshot_before))
            note(j, svc.incidents().size() > incidents_before);
        r.delivered += batch.size();
    }
    {
        if (tracer.enabled())
            tracer.beginTrace(opts.workload + "/stream" +
                              std::to_string(stream) + "/drain");
        auto [incidents_before, snapshot_before] = state();
        Tracer::Span span(tracer, "online", "OnlineService::drainAll");
        svc.drainAll(in.drainAt);
        r.drainMs = span.end();
        r.loopMs += r.drainMs;
        r.pollBusyMs += r.drainMs;
        if (analyzed(incidents_before, snapshot_before))
            note(in.pollAt.size(), svc.incidents().size() > incidents_before);
    }
    report.countAttempted(r.delivered + in.pollAt.size() + 1);
    report.countFailed(r.ringFull);

    online::OnlineStats stats = svc.stats();
    r.dropped = stats.assembly.spansRejected;
    r.tracesStored = stats.tracesStored;
    r.fingerprint = svc.servingFingerprint();
    const storage::TraceStore &store = svc.store();
    r.storeRecords = store.size();
    r.storeSpans = store.totalSpans();
    r.evicted = store.evictions().records;
    r.bytesPerSpan = static_cast<double>(store.memoryBytes()) /
                     static_cast<double>(std::max<size_t>(1, r.storeSpans));
    r.cache = svc.cache().stats();

    if (in.spec.steady) {
        for (int k = 0; k < kRecoveryRepeats; ++k) {
            online::RecoveryInfo info;
            Clock::time_point t0 = Clock::now();
            online::DurableServingState st =
                online::recoverState(dcfg, {}, &info);
            r.recoveryMs.push_back(msSince(t0));
            uint64_t fp = online::servingStateFingerprint(
                st.store, st.detector, st.incidents, st.watermarkUs,
                st.tracesStored, st.lastRecordId);
            if (!info.ok || fp != r.fingerprint)
                report.fail("state recovered from the data directory does "
                            "not match the live service" +
                            (info.ok ? std::string() : ": " + info.error));
        }
        if (detail) {
            tracer.beginTrace(opts.workload + "/stream" +
                              std::to_string(stream) + "/snapshots");
            Tracer::Span root(tracer, "bench", "snapshots");
            for (int k = 0; k < kSnapshotRepeats; ++k) {
                Tracer::Span span(tracer, "online",
                                  "OnlineService::snapshotNow");
                std::string err;
                if (!svc.snapshotNow(&err))
                    report.fail("snapshotNow: " + err);
                r.snapshotMs.push_back(span.end());
            }
        }
    }
    std::error_code ec;
    if (!dcfg.dir.empty())
        std::filesystem::remove_all(dcfg.dir, ec);
    return r;
}

const trace::Span *
rootOf(const trace::Trace &t)
{
    for (const trace::Span &s : t.spans)
        if (s.parentSpanId.empty())
            return &s;
    return nullptr;
}

bool
byRootStart(const trace::Trace &a, const trace::Trace &b)
{
    const trace::Span *ra = rootOf(a);
    const trace::Span *rb = rootOf(b);
    int64_t sa = ra ? ra->startUs : 0;
    int64_t sb = rb ? rb->startUs : 0;
    if (sa != sb)
        return sa < sb;
    return a.traceId < b.traceId;
}

/**
 * Replay the traced stream's polls through the service's components,
 * each called directly on exactly the input the service saw: the span
 * assembler and storm detector, store insertion under the same
 * retention, the WAL append/commit of the stored records (durable
 * workload, into a second data directory), and the incident analyses.
 */
void
replayLayers(const Inputs &in, const RunOptions &opts,
             const StreamResult &live, Tracer &tracer, Report &report)
{
    const Fixture &fx = *in.fx;
    online::OnlineConfig cfg = serviceConfig(fx, in.spec);
    online::SpanAssembler assembler(cfg.assembler);
    online::StormDetector detector(cfg.detector);
    storage::TraceStore store(cfg.retention);
    core::SleuthPipeline pipeline(*fx.model, *fx.encoder, fx.profile,
                                  cfg.pipeline);
    core::PipelineCache cache(cfg.cacheConfig);

    std::unique_ptr<durable::DurableLog> log;
    durable::DurableConfig dcfg;
    if (in.spec.steady) {
        dcfg.dir = opts.outDir + "/replay-" + std::to_string(getpid());
        dcfg.fsyncPolicy = durable::FsyncPolicy::Group;
        std::filesystem::remove_all(dcfg.dir);
        std::filesystem::create_directories(dcfg.dir);
        log = std::make_unique<durable::DurableLog>(dcfg);
        durable::RecoveredLog rec = log->recover();
        std::string err;
        if (!log->openForAppend(rec, online::encodeEpochPayload(cfg.detector),
                                &err))
            report.fail("replay log: " + err);
    }

    double assemble_ms = 0.0;
    double detect_ms = 0.0;
    double insert_ms = 0.0;
    double append_ms = 0.0;
    double commit_ms = 0.0;
    double query_ms = 0.0;
    double materialize_ms = 0.0;
    double incident_ms = 0.0;
    size_t stored = 0;
    size_t wal_spans = 0;
    int64_t watermark = INT64_MIN;

    auto absorb = [&](std::vector<trace::Trace> done) {
        std::sort(done.begin(), done.end(), byRootStart);
        std::vector<online::Observation> obs(done.size());
        std::vector<size_t> ids;
        ids.reserve(done.size());
        {
            Tracer::Span span(tracer, "storage", "TraceStore::insert");
            for (size_t i = 0; i < done.size(); ++i) {
                const trace::Span *root = rootOf(done[i]);
                obs[i].endpoint = root->service + "/" + root->name;
                online::EndpointProfile prof;
                auto it = cfg.endpoints.find(obs[i].endpoint);
                if (it != cfg.endpoints.end())
                    prof = it->second;
                obs[i].startUs = root->startUs;
                obs[i].durationUs = root->durationUs();
                obs[i].error = root->hasError();
                obs[i].anomalous = obs[i].error || (prof.sloUs > 0 &&
                                                    obs[i].durationUs >
                                                        prof.sloUs);
                ids.push_back(store.insert(std::move(done[i]), prof.sloUs,
                                           prof.flowIndex));
            }
            insert_ms += span.end();
        }
        stored += ids.size();
        {
            Tracer::Span span(tracer, "online", "StormDetector::observe");
            for (const online::Observation &o : obs)
                detector.observe(o);
            detect_ms += span.end();
        }
        if (log && !ids.empty()) {
            Tracer::Span span(tracer, "durable", "DurableLog::append");
            util::BinaryWriter w;
            for (size_t id : ids) {
                if (!store.contains(id))
                    continue;
                online::appendSpanBatchRecord(w, store.at(id));
                wal_spans += store.at(id).spanCount();
            }
            log->append(durable::RecordKind::SpanBatch, w.take());
            append_ms += span.end();
        }
    };
    auto advance = [&](int64_t w) {
        Tracer::Span span(tracer, "online", "StormDetector::advance");
        detector.advance(w);
        detect_ms += span.end();
    };
    auto commit = [&] {
        if (!log)
            return;
        Tracer::Span span(tracer, "durable", "DurableLog::commit");
        log->commit();
        commit_ms += span.end();
    };

    size_t next_analysis = 0;
    auto replayAnalyses = [&](size_t poll) {
        for (; next_analysis < live.analyses.size() &&
               live.analyses[next_analysis].poll == poll;
             ++next_analysis) {
            const online::Incident &inc =
                live.analyses[next_analysis].incident;
            storage::Query q;
            q.minStartUs = inc.windowStartUs;
            q.maxStartUs = inc.windowEndUs;
            std::vector<const storage::Record *> recs;
            {
                Tracer::Span span(tracer, "storage", "TraceStore::query");
                recs = store.query(q);
                query_ms += span.end();
            }
            std::vector<trace::Trace> snapshot;
            {
                Tracer::Span span(tracer, "trace", "Record::trace");
                for (const storage::Record *rec : recs)
                    if (rec->anomalous() && rec->id <= inc.snapshotMaxRecordId)
                        snapshot.push_back(rec->trace());
                materialize_ms += span.end();
            }
            if (snapshot.size() != inc.anomalousTraces.size())
                report.fail("replayed store holds " +
                            std::to_string(snapshot.size()) +
                            " anomalous traces in an incident window the "
                            "service snapshotted with " +
                            std::to_string(inc.anomalousTraces.size()));
            core::PipelineResult res;
            {
                Tracer::Span span(tracer, "core", "SleuthPipeline::analyze");
                res = pipeline.analyze(inc.anomalousTraces, inc.slos, nullptr,
                                       in.spec.steady ? nullptr : &cache);
                incident_ms += span.end();
            }
            if (verdictDigest(res) != verdictDigest(inc.rca))
                report.fail("replayed incident analysis differs from the "
                            "service's verdicts");
        }
    };

    std::vector<online::SpanEvent> batch;
    size_t begin = 0;
    auto canonical = [](const online::SpanEvent &a,
                        const online::SpanEvent &b) {
        if (a.span.endUs != b.span.endUs)
            return a.span.endUs < b.span.endUs;
        if (a.traceId != b.traceId)
            return a.traceId < b.traceId;
        return a.span.spanId < b.span.spanId;
    };
    auto step = [&](size_t j, int64_t at, size_t end, bool analyses) {
        batch.clear();
        for (; begin < end; ++begin)
            batch.push_back(in.event(begin));
        std::sort(batch.begin(), batch.end(), canonical);
        tracer.beginTrace(opts.workload + "/layers/poll" + std::to_string(j));
        Tracer::Span root(tracer, "bench", "replay");
        std::vector<trace::Trace> done;
        {
            Tracer::Span span(tracer, "online", "SpanAssembler::add+drain");
            for (const online::SpanEvent &e : batch)
                assembler.add(e);
            done = assembler.drain(at);
            assemble_ms += span.end();
        }
        absorb(std::move(done));
        watermark = std::max(watermark, at - cfg.assembler.latenessUs);
        advance(watermark);
        if (analyses)
            replayAnalyses(j);
        commit();
    };
    for (size_t j = 0; j < in.pollAt.size(); ++j)
        step(j, in.pollAt[j], in.pollEnd[j], true);
    // drainAll: one more poll, flush, then sweep past every window. An
    // incident analyzed during the drain is replayed after the flush;
    // its snapshot high-water mark selects exactly the records it saw.
    step(in.pollAt.size(), in.drainAt, in.deliveries.size(), false);
    {
        tracer.beginTrace(opts.workload + "/layers/drain");
        Tracer::Span root(tracer, "bench", "replay");
        std::vector<trace::Trace> rest;
        {
            Tracer::Span span(tracer, "online", "SpanAssembler::flush");
            rest = assembler.flush();
            assemble_ms += span.end();
        }
        absorb(std::move(rest));
        watermark = std::max(watermark, in.drainAt);
        advance(watermark);
        advance(watermark + (static_cast<int64_t>(cfg.detector.windowBuckets) +
                             1) *
                                cfg.detector.bucketUs);
        replayAnalyses(in.pollAt.size());
        commit();
    }

    if (store.size() != live.storeRecords ||
        store.totalSpans() != live.storeSpans ||
        store.evictions().records != live.evicted ||
        stored != live.tracesStored)
        report.fail("component replay stored " + std::to_string(store.size()) +
                    " records / " + std::to_string(store.totalSpans()) +
                    " spans; the service stored " +
                    std::to_string(live.storeRecords) + " / " +
                    std::to_string(live.storeSpans));

    double wal_bytes = log ? static_cast<double>(log->segmentBytes()) : 0.0;
    log.reset();
    std::error_code ec;
    if (!dcfg.dir.empty())
        std::filesystem::remove_all(dcfg.dir, ec);

    report.set("online.assemble_ms", assemble_ms, "ms", in.pollAt.size());
    report.set("online.detect_ms", detect_ms, "ms", in.pollAt.size());
    report.set("storage.insert_ms", insert_ms, "ms", stored);
    report.set("storage.query_ms", query_ms, "ms", live.analyses.size());
    report.set("trace.materialize_ms", materialize_ms, "ms",
               live.analyses.size());
    report.set("durable.append_ms", append_ms, "ms", in.pollAt.size());
    report.set("durable.commit_ms", commit_ms, "ms", in.pollAt.size());
    report.set("durable.wal_bytes_per_span",
               wal_spans > 0 ? wal_bytes / static_cast<double>(wal_spans)
                             : 0.0,
               "bytes", wal_spans);
    report.set("core.incident_analyze_ms", incident_ms, "ms",
               live.analyses.size());
    report.set("online.poll_residual_ms",
               live.pollBusyMs - (assemble_ms + detect_ms + insert_ms +
                                  append_ms + commit_ms + query_ms +
                                  materialize_ms + incident_ms),
               "ms", in.pollAt.size() + 1);
}

double
ratio(size_t hits, size_t misses)
{
    return hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
}

/**
 * Every stream of a run replays the same schedule and does the same
 * work in each poll (their fingerprints are equal), so each poll keeps
 * its fastest time over the streams: on a shared host a sample is the
 * poll's cost plus whatever interference it met, and the minimum over
 * repeats removes most of the interference.
 */
struct FastestPerPoll
{
    std::vector<double> pollMs;
    std::vector<double> stepMs;
    double drainMs = 0.0;
    size_t samples = 0;

    explicit FastestPerPoll(const std::vector<StreamResult> &runs)
    {
        const StreamResult &first = runs.front();
        pollMs = first.pollMs;
        stepMs = first.stepMs;
        drainMs = first.drainMs;
        for (const StreamResult &r : runs) {
            for (size_t j = 0; j < pollMs.size(); ++j) {
                pollMs[j] = std::min(pollMs[j], r.pollMs[j]);
                stepMs[j] = std::min(stepMs[j], r.stepMs[j]);
            }
            drainMs = std::min(drainMs, r.drainMs);
            samples += r.pollMs.size();
        }
    }

    /** Time of the poll (or, past the last, the drain) at index j. */
    double
    at(size_t j) const
    {
        return j < pollMs.size() ? pollMs[j] : drainMs;
    }
};

/** End-to-end metrics over the streams of one phase of the run. */
void
reportEndToEnd(const Inputs &in, const std::vector<StreamResult> &runs,
               Report &report)
{
    const FastestPerPoll best(runs);
    const StreamResult &first = runs.front();
    double loop_ms = best.drainMs;
    for (double ms : best.stepMs)
        loop_ms += ms;
    std::vector<double> verdict_ms;
    for (const Analysis &a : first.analyses)
        verdict_ms.push_back(best.at(a.poll));
    size_t hits = 0;
    for (const Analysis &a : first.analyses) {
        int p = faultyPhaseAt(in, a.openedAtUs);
        if (p < 0)
            continue;
        const std::set<std::string> &truth =
            in.phaseServices[static_cast<size_t>(p)];
        for (const std::string &svc : a.top3) {
            if (truth.count(svc)) {
                ++hits;
                break;
            }
        }
    }
    report.set("ingest_spans_per_s",
               static_cast<double>(first.delivered) / (loop_ms / 1000.0),
               "spans/s", runs.size());
    report.set("latency_ms_p50", median(best.pollMs), "ms", best.samples);
    report.set("latency_ms_p75", quantile(best.pollMs, 0.75), "ms",
               best.samples);
    report.set("verdict_ms_p50", median(verdict_ms), "ms",
               verdict_ms.size() * runs.size());
    report.set("failed_fraction",
               static_cast<double>(first.dropped) /
                   static_cast<double>(first.delivered),
               "fraction", first.delivered);
    report.set("rca_top3_hit_rate",
               first.analyses.empty()
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(first.analyses.size()),
               "fraction", first.analyses.size());
    report.set("peak_rss_mb", peakRssMb(), "MB");
}

/** One more stream into *runs; every stream must fingerprint equal. */
void
measureStream(const Inputs &in, const RunOptions &opts, Tracer &tracer,
              bool detail, size_t *stream_counter, uint64_t *fingerprint,
              Report &report, std::vector<StreamResult> *runs)
{
    runs->push_back(
        runStream(in, opts, (*stream_counter)++, tracer, detail, report));
    if (*fingerprint == 0)
        *fingerprint = runs->back().fingerprint;
    else if (runs->back().fingerprint != *fingerprint)
        report.fail("servingFingerprint differs between streams of the "
                    "same schedule");
}

} // namespace

void
runServe(const RunOptions &opts, Report &report, Tracer &tracer)
{
    const Spec spec = specFor(opts.workload);
    std::vector<double> setup_s;
    Inputs in;
    uint64_t first_digest = 0;
    for (int s = 0; s < kSetups; ++s) {
        in = Inputs{};
        Clock::time_point t0 = Clock::now();
        in = buildInputs(opts.seed, spec);
        setup_s.push_back(msSince(t0) / 1000.0);
        if (s == 0)
            first_digest = in.digest;
        else if (in.digest != first_digest)
            report.fail("set-up is not deterministic in the seed");
    }
    report.set("setup_s", median(setup_s), "s", setup_s.size());
    report.set("nn.train_step_ms", in.fx->trainStepMs, "ms",
               in.fx->trainSteps);
    std::printf("%s: %zu deliveries over %zu polls, %zu fault phases\n",
                opts.workload.c_str(), in.deliveries.size(), in.pollAt.size(),
                in.schedule.phases.size() / 2);

    // Streams until time is up. A traced run alternates untraced and
    // traced streams, so both halves see the same warm-up and drift.
    size_t streams = 0;
    uint64_t fingerprint = 0;
    Tracer off(false);
    std::vector<StreamResult> runs;
    std::vector<StreamResult> traced;
    Clock::time_point deadline = Clock::now() + secondsOf(opts.seconds);
    do {
        measureStream(in, opts, off, false, &streams, &fingerprint, report,
                      &runs);
        if (opts.trace)
            measureStream(in, opts, tracer, traced.empty(), &streams,
                          &fingerprint, report, &traced);
    } while (Clock::now() < deadline);
    reportEndToEnd(in, runs, report);

    std::vector<double> recovery;
    std::vector<double> detection;
    for (const StreamResult &r : runs)
        recovery.insert(recovery.end(), r.recoveryMs.begin(),
                        r.recoveryMs.end());
    detection = runs.front().detectionMs;
    report.set("durable.recovery_ms_p50", median(recovery), "ms",
               recovery.size());
    report.set("online.detection_latency_ms_p50", median(detection), "ms",
               detection.size());
    std::printf("%s: %zu streams, %zu analyses per stream\n",
                opts.workload.c_str(), runs.size(),
                runs.front().analyses.size());
    if (!opts.trace)
        return;

    double u = report.get("latency_ms_p50");
    const FastestPerPoll traced_best(traced);
    double t = median(traced_best.pollMs);
    report.set("bench.tracing_overhead_pct", (t - u) / u * 100.0, "%",
               traced_best.samples);

    const StreamResult &d = traced.front();
    report.set("online.ingest_call_ns_p50", median(d.ingestCallNs), "ns",
               d.ingestCallNs.size());
    report.set("online.ingest_call_ns_p99", quantile(d.ingestCallNs, 0.99),
               "ns", d.ingestCallNs.size());
    report.set("online.ingest_busy_ms", d.ingestBusyMs, "ms",
               d.pollMs.size());
    report.set("online.poll_busy_ms", d.pollBusyMs, "ms",
               d.pollMs.size() + 1);
    report.set("online.drain_ms", d.drainMs, "ms");
    report.set("online.spans_per_poll",
               static_cast<double>(d.delivered) /
                   static_cast<double>(d.pollMs.size()),
               "spans", d.pollMs.size());
    report.set("storage.evicted_records", static_cast<double>(d.evicted),
               "count");
    report.set("storage.bytes_per_span", d.bytesPerSpan, "bytes");
    report.set("durable.snapshot_ms", median(d.snapshotMs), "ms",
               d.snapshotMs.size());
    const core::PipelineCache::Stats &c = d.cache;
    double analyses = static_cast<double>(std::max<size_t>(1, d.analyses.size()));
    report.set("core.cache_hit_ratio.encoding",
               ratio(c.encodingHits, c.encodingMisses), "ratio",
               c.encodingHits + c.encodingMisses);
    report.set("core.cache_hit_ratio.distance",
               ratio(c.distanceHits, c.distanceMisses), "ratio",
               c.distanceHits + c.distanceMisses);
    report.set("core.cache_hit_ratio.verdict",
               ratio(c.verdictHits, c.verdictMisses), "ratio",
               c.verdictHits + c.verdictMisses);
    report.set("core.cache_hit_ratio.batch",
               static_cast<double>(c.batchHits) / analyses, "ratio",
               d.analyses.size());
    report.set("core.cache_hit_ratio.matrix_prefix",
               static_cast<double>(c.matrixPrefixHits) / analyses, "ratio",
               d.analyses.size());
    replayLayers(in, opts, d, tracer, report);
}

} // namespace sleuthbench
