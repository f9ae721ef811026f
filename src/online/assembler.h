#pragma once

/**
 * @file
 * Watermark-based span-to-trace assembly for the online serving layer.
 *
 * Collectors stream spans, not traces: the spans of one trace arrive
 * out of order, late, duplicated, and split across payloads (the batch
 * TraceCollector silently drops any trace split across payloads). The
 * SpanAssembler buffers spans per trace id and completes a trace when
 * the event-time watermark passes its quiet horizon — no span of the
 * trace has an end time within `quietGapUs` of the watermark, so any
 * further span would be late. Completed traces are validated
 * (TraceGraph) and emitted in a canonical deterministic form: spans
 * sorted by (startUs, spanId), traces sorted by (root start, traceId).
 * Ingestion is therefore order-insensitive — any arrival interleaving
 * of the same span multiset yields bitwise-identical output, the
 * property the online/batch differential and the multi-threaded ingest
 * determinism tests pin.
 *
 * The watermark is driven explicitly by drain(nowUs): the caller owns
 * the clock (wall time in production, simulated time in tests and
 * sleuth_serviced), and the watermark trails it by `latenessUs`.
 * Admission control bounds the backlog: past `maxPendingSpans`, spans
 * opening new traces are rejected (counted as backpressure) while
 * spans of already-pending traces are still admitted so in-flight
 * traces can complete.
 */

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "collector/collector.h"
#include "trace/trace.h"

namespace sleuth::online {

/** One span of one trace, as delivered by a collector payload. */
struct SpanEvent
{
    std::string traceId;
    trace::Span span;
};

/**
 * The canonical trace order, (root start, traceId): assembler output
 * and incident snapshots both sort by it.
 */
bool canonicalTraceOrder(const trace::Trace &a, const trace::Trace &b);

/** Assembly knobs. */
struct AssemblerConfig
{
    /** Watermark lag behind the drain clock (allowed lateness). */
    int64_t latenessUs = 100'000;
    /**
     * Quiet horizon: a pending trace completes when the watermark
     * passes its latest span end time plus this gap.
     */
    int64_t quietGapUs = 50'000;
    /**
     * Backlog budget (pending spans) before admission control rejects
     * spans that would open a new trace (0 = unlimited).
     */
    size_t maxPendingSpans = 0;
    /**
     * How long (event time) a completed/dropped trace id is remembered
     * so stragglers are classified late-after-eviction instead of
     * re-opening a ghost trace.
     */
    int64_t closedMemoryUs = 2'000'000;
};

/** Assembles streamed spans into validated traces. */
class SpanAssembler
{
  public:
    explicit SpanAssembler(AssemblerConfig config);

    /**
     * Ingest one span, taken by value so callers can move it in.
     * Returns true when buffered; false when dropped (duplicate within
     * its pending trace, late after completion / eviction,
     * structurally empty ids, or backpressure).
     */
    bool add(SpanEvent event);

    /**
     * Advance the clock to nowUs (watermark = nowUs - latenessUs) and
     * emit every trace whose quiet horizon the watermark passed.
     * Invalid traces (orphan parents, duplicate roots, cycles) are
     * dropped and counted by reason. Emitted traces and their spans
     * are canonically sorted (see file comment).
     */
    std::vector<trace::Trace> drain(int64_t nowUs);

    /** Complete every pending trace regardless of watermark. */
    std::vector<trace::Trace> flush();

    /** Pending (buffered, incomplete) trace count. */
    size_t pendingTraces() const { return pending_.size(); }

    /** Pending span count across all buffered traces. */
    size_t pendingSpans() const { return pending_spans_; }

    /** Current watermark (event time; INT64_MIN before first drain). */
    int64_t watermarkUs() const { return watermark_; }

    /** Ingestion + drop statistics. */
    const collector::CollectorStats &stats() const { return stats_; }

  private:
    struct Pending
    {
        /**
         * Buffered spans in arrival order; finalize sorts them into
         * canonical span order in place and moves them into the
         * emitted trace.
         */
        std::vector<trace::Span> spans;
        /**
         * Span ids already buffered, for O(1) duplicate rejection (a
         * linear scan over the spans is O(n²) per trace at ingest
         * rates of hundreds of thousands of spans per second).
         */
        std::unordered_set<std::string> spanIds;
        /**
         * Latest span end time seen (the quiet-horizon anchor).
         * INT64_MIN, not 0: a zero sentinel would pin the anchor at
         * the epoch for traces whose spans all end before it, and
         * they would never go quiet. Always set by the first add().
         */
        int64_t lastEndUs = std::numeric_limits<int64_t>::min();
    };

    /** Validate, canonicalize, and count one completed trace. */
    bool finalize(const std::string &trace_id, Pending &p,
                  std::vector<trace::Trace> *out);

    /** Delta-flush hot-path counts into the obs registry. */
    void flushObs();

    void rememberClosed(const std::string &trace_id);
    void pruneClosed();

    AssemblerConfig config_;
    collector::CollectorStats stats_;
    std::unordered_map<std::string, Pending> pending_;
    /** Recently completed/dropped trace ids -> close watermark. */
    std::unordered_map<std::string, int64_t> closed_;
    size_t pending_spans_ = 0;
    /**
     * Spans admitted since construction / since the last obs flush.
     * add() is the per-span hot path, so it only bumps this plain
     * member; drain() delta-flushes it into the process-wide counter
     * (a per-span sharded-counter add costs a measurable ~2% of
     * ingest throughput at hundreds of thousands of spans/s).
     */
    uint64_t spans_buffered_ = 0;
    uint64_t spans_buffered_flushed_ = 0;
    int64_t watermark_ = INT64_MIN;
};

} // namespace sleuth::online
