#include "assembler.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"

namespace sleuth::online {

bool
canonicalTraceOrder(const trace::Trace &a, const trace::Trace &b)
{
    int64_t sa = a.rootStartUs();
    int64_t sb = b.rootStartUs();
    if (sa != sb)
        return sa < sb;
    return a.traceId < b.traceId;
}

SpanAssembler::SpanAssembler(AssemblerConfig config)
    : config_(config),
      interner_(std::make_shared<trace::StringInterner>())
{
    SLEUTH_ASSERT(config_.latenessUs >= 0 && config_.quietGapUs >= 0,
                  "assembler horizons must be non-negative");
}

bool
SpanAssembler::add(const SpanEvent &event)
{
    if (event.traceId.empty() || event.span.spanId.empty()) {
        stats_.countDrop(collector::DropReason::Malformed, 1);
        return false;
    }
    auto it = pending_.find(event.traceId);
    if (it == pending_.end()) {
        // Not pending: late straggler, ghost of a closed trace, or a
        // genuinely new trace subject to admission control.
        if (closed_.count(event.traceId)) {
            stats_.countDrop(collector::DropReason::LateAfterEviction,
                             1);
            return false;
        }
        if (watermark_ != INT64_MIN &&
            event.span.endUs + config_.quietGapUs <= watermark_) {
            // Would complete (incomplete) at the very next drain.
            stats_.countDrop(collector::DropReason::LateAfterEviction,
                             1);
            return false;
        }
        if (config_.maxPendingSpans > 0 &&
            pending_spans_ >= config_.maxPendingSpans) {
            stats_.countDrop(collector::DropReason::Backpressure, 1);
            return false;
        }
        it = pending_.emplace(event.traceId, Pending{}).first;
    }
    Pending &p = it->second;
    if (!p.spanIds.insert(event.span.spanId).second) {
        stats_.countDrop(collector::DropReason::Duplicate, 1);
        return false;
    }
    p.lastEndUs = std::max(p.lastEndUs, event.span.endUs);
    p.cols.append(event.span, *interner_);
    ++pending_spans_;
    ++spans_buffered_; // delta-flushed into obs by drain()
    return true;
}

bool
SpanAssembler::finalize(const std::string &trace_id, Pending &p,
                        std::vector<trace::Trace> *out)
{
    // Canonical span order: ingestion interleaving must not leak into
    // the emitted trace. Sort a permutation over the columns, then
    // materialize rows in that order.
    const size_t n = p.cols.size();
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (p.cols.startUs(a) != p.cols.startUs(b))
            return p.cols.startUs(a) < p.cols.startUs(b);
        return p.cols.spanId(a) < p.cols.spanId(b);
    });
    trace::Trace t;
    t.traceId = trace_id;
    t.spans.reserve(n);
    for (size_t i : order)
        t.spans.push_back(p.cols.materialize(i, *interner_));
    pending_spans_ -= n;
    trace::TraceGraph graph;
    std::string why;
    static obs::Counter &accepted = obs::counter(
        "sleuth_assembler_traces_total",
        "Traces completed by the span assembler",
        {{"result", "accepted"}});
    static obs::Counter &rejected = obs::counter(
        "sleuth_assembler_traces_total",
        "Traces completed by the span assembler",
        {{"result", "rejected"}});
    if (!trace::TraceGraph::tryBuild(t, &graph, &why)) {
        ++stats_.tracesRejected;
        stats_.countDrop(collector::classifyDefect(t), t.spans.size());
        rejected.add();
        return false;
    }
    ++stats_.tracesAccepted;
    stats_.spansAccepted += t.spans.size();
    out->push_back(std::move(t));
    accepted.add();
    return true;
}

std::vector<trace::Trace>
SpanAssembler::drain(int64_t nowUs)
{
    flushObs();
    watermark_ = std::max(watermark_, nowUs - config_.latenessUs);
    std::vector<trace::Trace> out;
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->second.lastEndUs + config_.quietGapUs <= watermark_) {
            finalize(it->first, it->second, &out);
            rememberClosed(it->first);
            it = pending_.erase(it);
        } else {
            ++it;
        }
    }
    pruneClosed();
    std::sort(out.begin(), out.end(), canonicalTraceOrder);
    return out;
}

void
SpanAssembler::flushObs()
{
    // Amortized flush of the per-span admission count (see
    // spans_buffered_): one counter add per drain/flush, not per span.
    static obs::Counter &buffered = obs::counter(
        "sleuth_assembler_spans_buffered_total",
        "Spans admitted into pending trace assembly");
    buffered.add(spans_buffered_ - spans_buffered_flushed_);
    spans_buffered_flushed_ = spans_buffered_;
}

std::vector<trace::Trace>
SpanAssembler::flush()
{
    flushObs();
    std::vector<trace::Trace> out;
    for (auto it = pending_.begin(); it != pending_.end();) {
        finalize(it->first, it->second, &out);
        rememberClosed(it->first);
        it = pending_.erase(it);
    }
    std::sort(out.begin(), out.end(), canonicalTraceOrder);
    return out;
}

void
SpanAssembler::rememberClosed(const std::string &trace_id)
{
    closed_[trace_id] =
        watermark_ == INT64_MIN ? 0 : watermark_;
}

void
SpanAssembler::pruneClosed()
{
    if (watermark_ == INT64_MIN)
        return;
    for (auto it = closed_.begin(); it != closed_.end();) {
        if (it->second + config_.closedMemoryUs < watermark_)
            it = closed_.erase(it);
        else
            ++it;
    }
}

} // namespace sleuth::online
