#include "live_source.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sleuth::online {

std::map<std::string, EndpointProfile>
endpointProfiles(const synth::AppConfig &app)
{
    std::map<std::string, EndpointProfile> out;
    for (size_t i = 0; i < app.flows.size(); ++i) {
        const synth::FlowConfig &flow = app.flows[i];
        const synth::CallNode &root =
            flow.nodes[static_cast<size_t>(flow.root)];
        const synth::RpcConfig &rpc =
            app.rpcs[static_cast<size_t>(root.rpcId)];
        const synth::ServiceConfig &svc =
            app.services[static_cast<size_t>(rpc.serviceId)];
        EndpointProfile prof;
        prof.sloUs = flow.sloUs;
        prof.flowIndex = static_cast<int>(i);
        // Several flows may enter through the same root rpc; flow
        // identity is not observable from the span stream, so the
        // endpoint is held to the most permissive of the sharing flows'
        // SLOs (a tighter one would flag the slower flow's healthy
        // traffic as a permanent storm).
        auto [it, inserted] =
            out.try_emplace(svc.name + "/" + rpc.name, prof);
        if (!inserted && prof.sloUs > it->second.sloUs)
            it->second = prof;
    }
    return out;
}

namespace {

struct Delivery
{
    int64_t atUs = 0;
    SpanEvent event;
};

void
ingestRange(OnlineService *service, std::vector<Delivery> &all,
            size_t begin, size_t end, size_t stride)
{
    // Each delivery is consumed exactly once (strides partition the
    // range), so the event moves into the ingest ring — the producer
    // path never copies span strings.
    for (size_t i = begin; i < end; i += stride)
        service->ingest(std::move(all[i].event));
}

} // namespace

LiveRunResult
runLiveLoad(const synth::AppConfig &app, const sim::ClusterModel &cluster,
            const sim::SimParams &params, const LiveSourceConfig &config,
            OnlineService *service)
{
    SLEUTH_ASSERT(config.arrivalRatePerSec > 0.0,
                  "arrival rate must be positive");
    LiveRunResult result;
    result.requests = config.requests;

    sim::Simulator simulator(app, cluster, params);
    util::Rng rng(config.seed);
    util::Rng delivery_rng = rng.fork(0xde11);

    // --- Simulate requests onto an arrival timeline. ---
    std::vector<Delivery> deliveries;
    const chaos::FaultPlan *active = nullptr;
    double clock = 0.0;
    double rate_per_us = config.arrivalRatePerSec / 1e6;
    // Latest arrival-shifted span end: where the final drain starts.
    int64_t last_event_us = 0;
    for (size_t i = 0; i < config.requests; ++i) {
        clock += rng.exponential(rate_per_us);
        int64_t arrival = static_cast<int64_t>(std::llround(clock));
        const chaos::FaultPlan &plan =
            config.schedule.activeAt(arrival);
        if (&plan != active) {
            simulator.setFaultPlan(plan);
            active = &plan;
        }
        sim::SimResult res = simulator.simulateOne();
        int64_t slo =
            app.flows[static_cast<size_t>(res.flowIndex)].sloUs;
        if (res.violatesSlo(slo))
            ++result.anomalousSimulated;
        for (trace::Span &span : res.trace.spans) {
            span.startUs += arrival;
            span.endUs += arrival;
            last_event_us = std::max(last_event_us, span.endUs);
            // A span is reported when it finishes, plus network jitter.
            int64_t jit = config.jitterUs > 0
                              ? delivery_rng.uniformInt(0, config.jitterUs)
                              : 0;
            Delivery d;
            d.atUs = span.endUs + jit;
            d.event.traceId = res.trace.traceId;
            d.event.span = span;
            deliveries.push_back(d);
            if (config.duplicateProb > 0.0 &&
                delivery_rng.bernoulli(config.duplicateProb)) {
                Delivery dup = deliveries.back();
                dup.atUs += config.jitterUs > 0
                                ? delivery_rng.uniformInt(0, config.jitterUs)
                                : 0;
                deliveries.push_back(std::move(dup));
            }
        }
    }
    // Deterministic delivery order; jitter shuffles spans across trace
    // and parent/child boundaries, stable sort keeps duplicates stable.
    std::stable_sort(deliveries.begin(), deliveries.end(),
                     [](const Delivery &a, const Delivery &b) {
                         if (a.atUs != b.atUs)
                             return a.atUs < b.atUs;
                         if (a.event.traceId != b.event.traceId)
                             return a.event.traceId < b.event.traceId;
                         return a.event.span.spanId < b.event.span.spanId;
                     });
    result.spansDelivered = deliveries.size();

    // --- Deliver in poll-interval batches. ---
    auto wall0 = std::chrono::steady_clock::now();
    int64_t next_poll = config.pollIntervalUs;
    size_t cursor = 0;
    // One producer per stride, kept for the whole run: producer t
    // delivers every threads-th span of each batch. A one-thread pool
    // runs the loop inline.
    const size_t threads = std::max<size_t>(1, config.ingestThreads);
    util::ThreadPool producers(threads);
    while (cursor < deliveries.size()) {
        size_t batch_end = cursor;
        while (batch_end < deliveries.size() &&
               deliveries[batch_end].atUs < next_poll)
            ++batch_end;
        if (batch_end > cursor) {
            producers.parallelFor(threads, [&](size_t t, size_t) {
                ingestRange(service, deliveries, cursor + t, batch_end,
                            threads);
            });
            cursor = batch_end;
        }
        service->poll(next_poll);
        if (config.onPoll)
            config.onPoll(next_poll);
        next_poll += config.pollIntervalUs;
    }
    // Drain: advance far enough that every quiet horizon passes.
    int64_t drain_us = last_event_us + config.jitterUs +
                       config.pollIntervalUs;
    service->drainAll(drain_us);
    if (config.onPoll)
        config.onPoll(drain_us);
    auto wall1 = std::chrono::steady_clock::now();
    result.ingestWallMillis =
        std::chrono::duration<double, std::milli>(wall1 - wall0).count();
    if (result.ingestWallMillis > 0.0)
        result.spansPerSec = static_cast<double>(result.spansDelivered) /
                             (result.ingestWallMillis / 1000.0);

    // --- Detection latency: event-time storm onset -> the detecting
    // poll's watermark. The onset is the earliest anomalous root span
    // START at/after the active fault phase began — a continuous
    // event-time quantity — not the phase start itself: measuring from
    // the configured phase boundary quantized every latency to
    // (k * pollInterval - lateness - phaseStart), which collapsed p50
    // and p99 onto the poll interval and hid sub-poll resolution. ---
    for (const Incident &incident : service->incidents()) {
        if (incident.state == Incident::State::Open)
            continue;
        int64_t phase_start = INT64_MIN;
        for (const chaos::FaultPhase &phase : config.schedule.phases) {
            if (phase.startUs > incident.openedAtUs)
                break;
            if (!phase.plan.empty())
                phase_start = phase.startUs;
        }
        if (phase_start == INT64_MIN)
            continue;
        int64_t onset = INT64_MAX;
        for (const trace::Trace &t : incident.anomalousTraces) {
            // Stragglers that were already anomalous before the fault
            // phase (healthy-tail SLO misses) are not storm onset.
            int64_t start = t.rootStartUs();
            if (start >= phase_start)
                onset = std::min(onset, start);
        }
        if (onset == INT64_MAX)
            onset = phase_start;
        result.detectionLatenciesUs.push_back(incident.openedAtUs -
                                              onset);
    }
    return result;
}

} // namespace sleuth::online
