#pragma once

/**
 * @file
 * Trace collectors (paper §4): the production deployment runs a fleet
 * of OpenTelemetry collectors that accept multiple wire protocols —
 * OpenTelemetry, Zipkin, and Jaeger — normalize them, and forward the
 * traces into the storage engine. This module implements the protocol
 * adapters over JSON payloads and a collector front end that ingests
 * into a TraceStore.
 */

#include <string>
#include <vector>

#include "storage/trace_store.h"
#include "trace/trace.h"
#include "util/json.h"

namespace sleuth::collector {

/** Supported wire protocols. */
enum class Protocol { Otel, Zipkin, Jaeger };

/** Render a protocol name. */
const char *toString(Protocol p);

/*
 * The protocol decoders. A schema defect (a missing or mistyped field,
 * a time that is fractional or beyond 2^53 us) yields no traces and
 * sets *error to its path, e.g. "[0].traceId: missing field"; without
 * an error pointer it is fatal().
 */

/**
 * Parse a Zipkin v2 JSON span array. Spans of multiple traces may be
 * interleaved; they are grouped by traceId. Recognized fields:
 * traceId, id, parentId, name, kind (CLIENT/SERVER/PRODUCER/CONSUMER),
 * timestamp + duration (microseconds), localEndpoint.serviceName, and
 * tags.error for the status.
 */
std::vector<trace::Trace> parseZipkin(const util::Json &doc,
                                      std::string *error = nullptr);

/**
 * Parse a Jaeger JSON export ({"data": [{traceID, spans, processes}]}).
 * Recognized: spanID, references[CHILD_OF].spanID, operationName,
 * startTime + duration (microseconds), processID -> processes[pid]
 * .serviceName, and the span.kind / error tags.
 */
std::vector<trace::Trace> parseJaeger(const util::Json &doc,
                                      std::string *error = nullptr);

/**
 * Parse this library's native OpenTelemetry-like format (an array of
 * trace documents as produced by trace::toJson).
 */
std::vector<trace::Trace> parseOtel(const util::Json &doc,
                                    std::string *error = nullptr);

/**
 * Why a span (or a whole trace worth of spans) was dropped during
 * ingestion or online assembly.
 */
enum class DropReason {
    /** A parentSpanId never resolved within the trace. */
    Orphan,
    /** A span id appeared more than once within the trace. */
    Duplicate,
    /** The span arrived after its trace was completed or evicted. */
    LateAfterEviction,
    /** Structurally invalid (no spans, no/multiple roots, cycle, bad
        JSON). */
    Malformed,
    /** Rejected by admission control under overload. */
    Backpressure,
    /**
     * Enqueue-side last resort: the online service's bounded MPSC ring
     * was physically full (offered load within one poll interval
     * exceeded the ring capacity), so the producer dropped the span
     * on the spot.
     */
    RingFull,
    /**
     * Poll-side load shedding: the drained batch exceeded the
     * configured per-poll budget and the shed policy (drop-newest /
     * drop-oldest / sample) discarded this span deterministically.
     */
    Shed,
};

/** Render a drop reason. */
const char *toString(DropReason r);

/**
 * Classify the first structural defect of a trace that failed
 * TraceGraph validation. Checked in order: empty / duplicate span ids /
 * unresolved parents (orphans) / everything else (root count, cycles)
 * as Malformed.
 */
DropReason classifyDefect(const trace::Trace &t);

/** Ingestion statistics of a collector (or online span assembler). */
struct CollectorStats
{
    size_t tracesAccepted = 0;
    size_t tracesRejected = 0;
    size_t spansAccepted = 0;
    size_t spansRejected = 0;
    // Per-reason drop counters (spans).
    size_t droppedOrphan = 0;
    size_t droppedDuplicate = 0;
    size_t droppedLate = 0;
    size_t droppedMalformed = 0;
    size_t droppedBackpressure = 0;
    size_t droppedRingFull = 0;
    size_t droppedShed = 0;

    /** Count `spans` spans dropped for `reason`. */
    void countDrop(DropReason reason, size_t spans);

    /** Fold another stats block into this one. */
    void merge(const CollectorStats &other);
};

/**
 * A collector front end: parses payloads of any supported protocol,
 * validates each trace (single root, resolvable parents, acyclic), and
 * forwards the valid ones into a TraceStore.
 */
class TraceCollector
{
  public:
    /** @param store destination store (held by pointer; must outlive) */
    explicit TraceCollector(storage::TraceStore *store);

    /**
     * Ingest one JSON payload. A payload that does not parse, or
     * breaks its protocol's schema, is rejected whole: one Malformed
     * drop unit and a warning naming the defect.
     *
     * @param payload raw JSON text
     * @param protocol wire protocol of the payload
     * @param slo_us SLO stamped on the stored records (0 = unknown)
     * @return number of traces accepted
     */
    size_t ingest(const std::string &payload, Protocol protocol,
                  int64_t slo_us = 0);

    /** Running statistics. */
    const CollectorStats &stats() const { return stats_; }

  private:
    storage::TraceStore *store_;
    CollectorStats stats_;
};

} // namespace sleuth::collector
