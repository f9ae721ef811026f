#pragma once

/**
 * @file
 * Trace collectors (paper §4): the production deployment runs a fleet
 * of OpenTelemetry collectors that accept multiple wire protocols —
 * OpenTelemetry, Zipkin, and Jaeger — normalize them, and forward the
 * traces into the storage engine. This module implements the protocol
 * decoders over JSON payload text and a collector front end that
 * ingests into a TraceStore. The decoders read text straight into
 * trace rows through util::JsonReader, with no DOM; a payload gets the
 * traces or error that util::Json::parse plus the checked getters
 * would give (syntax errors first, the last of a repeated key wins,
 * defects named in a fixed field order whatever the member order).
 */

#include <string>
#include <string_view>
#include <vector>

#include "storage/trace_store.h"
#include "trace/trace.h"
#include "util/json.h"

namespace sleuth::collector {

/** Supported wire protocols. */
enum class Protocol { Otel, Zipkin, Jaeger };

/** Render a protocol name. */
const char *toString(Protocol p);

/**
 * Decode one payload of `protocol`. A syntax error sets *error to
 * util::Json::parse's message ("expected value at offset 7"), a schema
 * defect (a missing or mistyped field, a time that is fractional or
 * beyond 2^53 us) to its path ("[0].traceId: missing field"); either
 * yields no traces, and without an error pointer it is fatal().
 *
 * - Otel: an array of trace::toJson documents (trace::tracesFromText).
 * - Zipkin: a v2 span array: traceId, id, parentId, name, kind
 *   (CLIENT/SERVER/PRODUCER/CONSUMER), timestamp + duration (us),
 *   localEndpoint.serviceName, and tags.error for the status. Spans
 *   are grouped by traceId; traces come out in traceId order.
 * - Jaeger: an export ({"data": [{traceID, spans, processes}]}):
 *   spanID, references[CHILD_OF].spanID, operationName, startTime +
 *   duration (us), processID -> processes[pid].serviceName, and the
 *   span.kind / error tags.
 *
 * Otel and Jaeger traces come out in document order.
 */
std::vector<trace::Trace> decode(Protocol protocol, std::string_view payload,
                                 std::string *error = nullptr);

/*
 * decode() over doc.dump(), for callers holding a DOM. (util::Json
 * converts from strings, so text overloads of these would be ambiguous.)
 */
std::vector<trace::Trace> parseZipkin(const util::Json &doc,
                                      std::string *error = nullptr);
std::vector<trace::Trace> parseJaeger(const util::Json &doc,
                                      std::string *error = nullptr);
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
     * Ingest one JSON payload through decode(). A payload that does not
     * parse, or breaks its protocol's schema, is rejected whole: one
     * Malformed drop unit and a warning naming the defect.
     *
     * @param payload raw JSON text
     * @param protocol wire protocol of the payload
     * @param slo_us SLO stamped on the stored records (0 = unknown)
     * @return number of traces accepted
     */
    size_t ingest(std::string_view payload, Protocol protocol,
                  int64_t slo_us = 0);

    /** Running statistics. */
    const CollectorStats &stats() const { return stats_; }

  private:
    storage::TraceStore *store_;
    CollectorStats stats_;
};

} // namespace sleuth::collector
