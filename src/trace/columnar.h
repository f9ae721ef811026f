#pragma once

/**
 * @file
 * Structure-of-arrays span storage (DESIGN.md §3.12).
 *
 * The row-oriented trace::Span carries seven heap std::strings per
 * span; at store scale that dominates memory and defeats hardware
 * prefetch in the hot loops. SpanColumns keeps one contiguous array
 * per field instead: u32 interned ids for the five vocabulary fields
 * (service/name/container/pod/node via StringInterner), u8 enums for
 * kind/status, i64 timestamps, and a shared char arena holding the
 * per-span unique strings (spanId/parentSpanId) referenced by
 * (offset,len) pairs.
 *
 * ColumnarTrace bundles the columns with a trace id and the interner
 * that owns the vocabulary; toTrace() materializes rows back
 * into the legacy Span API for JSON, collector, and RCA code, and the
 * round trip is exact (same strings, same order).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/interner.h"
#include "trace/span.h"
#include "trace/trace.h"
#include "util/binary.h"

namespace sleuth::trace {

/** (offset, length) into SpanColumns' char arena. */
struct StrRef
{
    uint32_t off = 0;
    uint32_t len = 0;
};

/**
 * Contiguous per-field arrays for a batch of spans. ColumnarTrace
 * fills them from rows and reads rows back, interning or resolving a
 * whole trace's vocabulary in one interner call.
 */
class SpanColumns
{
  public:
    size_t size() const { return start_.size(); }
    bool empty() const { return start_.empty(); }

    std::string_view spanId(size_t i) const { return view(span_id_[i]); }
    std::string_view parentSpanId(size_t i) const
    {
        return view(parent_id_[i]);
    }
    uint32_t serviceId(size_t i) const { return service_[i]; }
    uint32_t nameId(size_t i) const { return name_[i]; }
    uint32_t containerId(size_t i) const { return container_[i]; }
    uint32_t podId(size_t i) const { return pod_[i]; }
    uint32_t nodeId(size_t i) const { return node_[i]; }
    SpanKind kind(size_t i) const
    {
        return static_cast<SpanKind>(kind_[i]);
    }
    StatusCode status(size_t i) const
    {
        return static_cast<StatusCode>(status_[i]);
    }
    int64_t startUs(size_t i) const { return start_[i]; }
    int64_t endUs(size_t i) const { return end_[i]; }
    int64_t durationUs(size_t i) const { return end_[i] - start_[i]; }
    bool hasError(size_t i) const
    {
        return status(i) == StatusCode::Error;
    }

    void clear();

    /**
     * Size every column for `spans` spans and the arena for
     * `arena_bytes` id bytes, exactly: appends up to those totals
     * then never reallocate.
     */
    void reserve(size_t spans, size_t arena_bytes);

    /**
     * Raw-column dump for the durable store (DESIGN.md §3.15): the
     * arena plus every column as contiguous little-endian blocks.
     * Interned u32 ids are written as-is, so the encoding is only
     * meaningful against the same interner state (the durable layer
     * serializes the vocabulary alongside and re-interns in id order).
     */
    void encode(util::BinaryWriter &w) const;

    /**
     * Inverse of encode(). False (and *this cleared) on short input,
     * a span or parent id outside the arena, an interned id not below
     * `vocabulary`, or a kind or status past its enum.
     */
    bool decode(util::BinaryReader &r, size_t vocabulary);

    /** Estimated resident bytes (excludes the shared interner). */
    size_t memoryBytes() const;

  private:
    friend class ColumnarTrace;

    std::string_view view(StrRef r) const
    {
        return std::string_view(arena_.data() + r.off, r.len);
    }
    StrRef arenaAdd(std::string_view s);

    std::string arena_;
    std::vector<StrRef> span_id_;
    std::vector<StrRef> parent_id_;
    std::vector<uint32_t> service_;
    std::vector<uint32_t> name_;
    std::vector<uint32_t> container_;
    std::vector<uint32_t> pod_;
    std::vector<uint32_t> node_;
    std::vector<uint8_t> kind_;
    std::vector<uint8_t> status_;
    std::vector<int64_t> start_;
    std::vector<int64_t> end_;
};

/** One trace encoded columnar, sharing an interner with its owner. */
class ColumnarTrace
{
  public:
    ColumnarTrace() = default;

    /**
     * Encode a legacy trace (spans in the given order), interning the
     * five vocabulary fields of every span in one
     * StringInterner::internAll call: span by span, and within a span
     * service, name, container, pod, node (the order interning each
     * field in turn would give).
     */
    ColumnarTrace(const Trace &t,
                  std::shared_ptr<StringInterner> interner);

    const std::string &traceId() const { return trace_id_; }
    size_t spanCount() const { return cols_.size(); }
    const SpanColumns &columns() const { return cols_; }
    const StringInterner &interner() const { return *interner_; }
    const std::shared_ptr<StringInterner> &internerPtr() const
    {
        return interner_;
    }

    /**
     * Materialize the full legacy trace (exact round trip), resolving
     * the five vocabulary columns in one StringInterner::resolveAll
     * call.
     */
    Trace toTrace() const;

    /** Index of the first span with an empty parent id; -1 if none. */
    int rootIndex() const { return root_; }

    /** Root span start (0 when no root) — Record::startUs semantics. */
    int64_t rootStartUs() const
    {
        return root_ >= 0 ? cols_.startUs(static_cast<size_t>(root_))
                          : 0;
    }

    /** Root span duration (0 when no root) — Trace::rootDurationUs. */
    int64_t rootDurationUs() const
    {
        return root_ >= 0
                   ? cols_.durationUs(static_cast<size_t>(root_))
                   : 0;
    }

    /** True when the root span errored (false when no root). */
    bool rootError() const
    {
        return root_ >= 0 && cols_.hasError(static_cast<size_t>(root_));
    }

    /** True when any span errored — Trace::hasError semantics. */
    bool hasError() const;

    /** True when any span runs in the service with this interned id. */
    bool touchesService(uint32_t service_id) const;

    /** Columnar dump for the durable store (id + columns + root). */
    void encode(util::BinaryWriter &w) const;

    /**
     * Inverse of encode(), binding the result to `interner` (which
     * must hold the vocabulary the columns were encoded against).
     * The bytes are untrusted: false unless the columns pass
     * SpanColumns::decode against the interner's size and the root is
     * the first span with an empty parent id (-1 when none has one),
     * as the constructor derives it.
     */
    bool decode(util::BinaryReader &r,
                std::shared_ptr<StringInterner> interner);

    /** Estimated resident bytes (excludes the shared interner). */
    size_t memoryBytes() const;

  private:
    std::string trace_id_;
    SpanColumns cols_;
    std::shared_ptr<StringInterner> interner_;
    int root_ = -1;
};

/**
 * Estimated resident bytes of a legacy row-oriented trace (SSO-aware):
 * the reference ColumnarTrace::memoryBytes() must stay below
 * (ColumnarTrace.ColumnarBeatsLegacyMemoryEstimate).
 */
size_t approxTraceMemoryBytes(const Trace &t);

} // namespace sleuth::trace
