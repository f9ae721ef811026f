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
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
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

    // closed_order_ points into closed_'s nodes: a copy would point
    // into the original's. A move carries the nodes along.
    SpanAssembler(const SpanAssembler &) = delete;
    SpanAssembler &operator=(const SpanAssembler &) = delete;
    SpanAssembler(SpanAssembler &&) = default;
    SpanAssembler &operator=(SpanAssembler &&) = default;

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
         * Buffered spans in arrival order; finalize moves each once
         * into the emitted trace, in canonical span order.
         */
        std::vector<trace::Span> spans;
        /**
         * Duplicate index over `spans`, for O(1) expected rejection
         * with no allocation per span (a linear scan over the spans is
         * O(n²) per trace at ingest rates of hundreds of thousands of
         * spans per second). Open addressing: a power-of-two table at
         * least twice the span count, grown by doubling; a slot holds
         * a position in `spans` plus one (0 = empty), probed linearly
         * from the span id's hash.
         */
        std::vector<uint32_t> slots;
        /**
         * Latest span end time seen (the quiet-horizon anchor).
         * INT64_MIN, not 0: a zero sentinel would pin the anchor at
         * the epoch for traces whose spans all end before it, and
         * they would never go quiet. Always set by the first add().
         */
        int64_t lastEndUs = std::numeric_limits<int64_t>::min();
    };

    /**
     * Index a span with this id at position p.spans.size(), the one
     * add() appends next; false when a buffered span has the id.
     */
    static bool indexSpan(Pending &p, const std::string &span_id);

    /** Validate, canonicalize, and count one completed trace. */
    bool finalize(const std::string &trace_id, Pending &p,
                  std::vector<trace::Trace> *out);

    /**
     * Finalize and remember every pending trace whose quiet horizon
     * the watermark passed (every pending trace when `everything`),
     * in canonical trace order.
     */
    std::vector<trace::Trace> complete(bool everything);

    /** Delta-flush hot-path counts into the obs registry. */
    void flushObs();

    void rememberClosed(std::string trace_id);
    void pruneClosed();

    AssemblerConfig config_;
    collector::CollectorStats stats_;
    std::unordered_map<std::string, Pending> pending_;
    /** Recently completed/dropped trace ids -> close watermark. */
    std::unordered_map<std::string, int64_t> closed_;
    /**
     * The entries of closed_ ordered by close watermark (node
     * pointers stay valid across rehashing). Watermarks never
     * decrease after the first drain, so the entries pruneClosed
     * expires form a prefix.
     */
    std::deque<const std::pair<const std::string, int64_t> *>
        closed_order_;
    /** finalize's (startUs, span position) sort keys, reused. */
    std::vector<std::pair<int64_t, uint32_t>> span_order_;
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
