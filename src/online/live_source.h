#pragma once

/**
 * @file
 * Live span-stream driver: turns the discrete-event simulator into a
 * realistic collector feed for the online serving layer.
 *
 * Requests arrive as a Poisson process; each request's trace is
 * simulated under the chaos schedule's currently active fault plan and
 * its spans are shifted onto the arrival timeline. Spans are then
 * delivered the way real collectors deliver them: at their end time
 * plus jitter (so parents arrive after children, traces interleave, and
 * one trace spans many payloads), optionally duplicated. Delivery order
 * is a deterministic function of the seed; the configured ingest-thread
 * count only changes which thread performs each delivery, never the
 * result (the determinism contract of the online layer).
 */

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chaos/fault.h"
#include "online/service.h"
#include "sim/cluster_model.h"
#include "sim/simulator.h"
#include "synth/config.h"

namespace sleuth::online {

/** Live-load knobs. */
struct LiveSourceConfig
{
    uint64_t seed = 1;
    /** Requests to simulate. */
    size_t requests = 2000;
    /** Poisson arrival rate. */
    double arrivalRatePerSec = 400.0;
    /** Concurrent ingest threads (1 = deliver inline). */
    size_t ingestThreads = 1;
    /** Service poll cadence (event time). */
    int64_t pollIntervalUs = 250'000;
    /** Per-span delivery jitter bound (uniform in [0, jitterUs]). */
    int64_t jitterUs = 20'000;
    /** Probability a span is delivered twice. */
    double duplicateProb = 0.0;
    /** Timed fault phases (empty = healthy run). */
    chaos::FaultSchedule schedule;
    /**
     * Observability hook: called on the driver thread after each
     * service poll (ingest workers joined) and once after the final
     * drain, with the watermark just polled. Must not mutate the
     * service — tools use it to snapshot metrics mid-run.
     */
    std::function<void(int64_t watermarkUs)> onPoll;
};

/** Outcome of one live run. */
struct LiveRunResult
{
    size_t requests = 0;
    /** Span deliveries performed (duplicates included). */
    size_t spansDelivered = 0;
    /** Simulated traces violating their flow's SLO (ground truth). */
    size_t anomalousSimulated = 0;
    /** Wall time of the ingest+poll loop. */
    double ingestWallMillis = 0.0;
    /** Delivery throughput over the loop. */
    double spansPerSec = 0.0;
    /**
     * Per analyzed incident: storm-onset watermark minus the
     * event-time storm onset — the earliest anomalous root span start
     * at/after the active fault phase began (falls back to the phase
     * start when the snapshot holds no such trace). Event-continuous,
     * so the distribution has sub-poll-interval resolution; measuring
     * from the phase start instead quantizes every latency to the
     * poll grid (the old bench bug).
     */
    std::vector<int64_t> detectionLatenciesUs;
};

/**
 * Endpoint metadata for an application: each flow's entry
 * "service/operation" mapped to the flow's SLO and index. When several
 * flows share a root rpc the endpoint takes the most permissive SLO
 * (flow identity is not recoverable from the span stream). Feed into
 * OnlineConfig::endpoints so the service judges traces like the
 * simulator's ground truth does.
 */
std::map<std::string, EndpointProfile>
endpointProfiles(const synth::AppConfig &app);

/**
 * Run a live load against an online service: simulate, deliver, poll,
 * and finally drain. The service is polled every pollIntervalUs of
 * event time after all earlier deliveries completed (ingest threads are
 * joined first), so results are reproducible for a fixed seed at any
 * thread count.
 */
LiveRunResult runLiveLoad(const synth::AppConfig &app,
                          const sim::ClusterModel &cluster,
                          const sim::SimParams &params,
                          const LiveSourceConfig &config,
                          OnlineService *service);

} // namespace sleuth::online
