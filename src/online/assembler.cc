#include "assembler.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <string_view>

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

SpanAssembler::SpanAssembler(AssemblerConfig config) : config_(config)
{
    SLEUTH_ASSERT(config_.latenessUs >= 0 && config_.quietGapUs >= 0,
                  "assembler horizons must be non-negative");
}

bool
SpanAssembler::add(SpanEvent event)
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
        it = pending_.emplace(std::move(event.traceId), Pending{}).first;
    }
    Pending &p = it->second;
    if (!indexSpan(p, event.span.spanId)) {
        stats_.countDrop(collector::DropReason::Duplicate, 1);
        return false;
    }
    p.lastEndUs = std::max(p.lastEndUs, event.span.endUs);
    p.spans.push_back(std::move(event.span));
    ++pending_spans_;
    ++spans_buffered_; // delta-flushed into obs by drain()
    return true;
}

bool
SpanAssembler::indexSpan(Pending &p, const std::string &span_id)
{
    const size_t pos = p.spans.size();
    if (2 * (pos + 1) > p.slots.size()) {
        p.slots.assign(std::max<size_t>(8, 2 * p.slots.size()), 0);
        for (size_t i = 0; i < pos; ++i)
            trace::spanIndexSlot(p.slots, p.spans, p.spans[i].spanId) =
                static_cast<uint32_t>(i + 1);
    }
    uint32_t &slot = trace::spanIndexSlot(p.slots, p.spans, span_id);
    if (slot != 0)
        return false;
    slot = static_cast<uint32_t>(pos + 1);
    return true;
}

bool
SpanAssembler::finalize(const std::string &trace_id, Pending &p,
                        std::vector<trace::Trace> *out)
{
    // Canonical span order: ingestion interleaving must not leak into
    // the emitted trace. Span ids are unique within a pending trace,
    // so (startUs, spanId) is a total order. Sorting keys moves each
    // span once, into the emitted trace.
    const size_t n = p.spans.size();
    span_order_.clear();
    for (size_t i = 0; i < n; ++i)
        span_order_.emplace_back(p.spans[i].startUs,
                                 static_cast<uint32_t>(i));
    std::sort(span_order_.begin(), span_order_.end(),
              [&](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first < b.first;
                  return p.spans[a.second].spanId <
                         p.spans[b.second].spanId;
              });
    trace::Trace t;
    t.traceId = trace_id;
    t.spans.reserve(n);
    for (const auto &key : span_order_)
        t.spans.push_back(std::move(p.spans[key.second]));
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
SpanAssembler::complete(bool everything)
{
    std::vector<trace::Trace> out;
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (!everything &&
            it->second.lastEndUs + config_.quietGapUs > watermark_) {
            ++it;
            continue;
        }
        auto node = pending_.extract(it++);
        finalize(node.key(), node.mapped(), &out);
        rememberClosed(std::move(node.key()));
    }
    std::sort(out.begin(), out.end(), canonicalTraceOrder);
    return out;
}

std::vector<trace::Trace>
SpanAssembler::drain(int64_t nowUs)
{
    flushObs();
    watermark_ = std::max(watermark_, nowUs - config_.latenessUs);
    std::vector<trace::Trace> out = complete(false);
    pruneClosed();
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
    return complete(true);
}

void
SpanAssembler::rememberClosed(std::string trace_id)
{
    int64_t at = watermark_ == INT64_MIN ? 0 : watermark_;
    // add() opens no trace under an id closed_ still holds.
    auto [it, fresh] = closed_.try_emplace(std::move(trace_id), at);
    SLEUTH_ASSERT(fresh, "assembler closed a remembered trace id again");
    // Only a flush before the first drain (closing at 0) can precede
    // a lower watermark; insert behind every entry that is not later.
    auto pos = closed_order_.end();
    while (pos != closed_order_.begin() && (*std::prev(pos))->second > at)
        --pos;
    closed_order_.insert(pos, &*it);
}

void
SpanAssembler::pruneClosed()
{
    if (watermark_ == INT64_MIN)
        return;
    while (!closed_order_.empty() &&
           closed_order_.front()->second + config_.closedMemoryUs <
               watermark_) {
        closed_.erase(closed_.find(closed_order_.front()->first));
        closed_order_.pop_front();
    }
}

} // namespace sleuth::online
