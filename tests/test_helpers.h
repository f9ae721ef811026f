#pragma once

// Shared helpers for constructing traces in unit tests.

#include <cstring>
#include <string>

#include "trace/trace.h"

namespace sleuth::testing {

/** Build a span with the commonly varied fields. */
inline trace::Span
makeSpan(const std::string &id, const std::string &parent,
         const std::string &service, const std::string &name,
         int64_t start_us, int64_t end_us,
         trace::SpanKind kind = trace::SpanKind::Server,
         trace::StatusCode status = trace::StatusCode::Ok)
{
    trace::Span s;
    s.spanId = id;
    s.parentSpanId = parent;
    s.service = service;
    s.name = name;
    s.kind = kind;
    s.startUs = start_us;
    s.endUs = end_us;
    s.status = status;
    s.container = service + "-ctr-0";
    s.pod = service + "-pod-0";
    s.node = "node-0";
    return s;
}

/**
 * The example trace of paper Figure 2: a parent span P with children A
 * and B where A and B overlap each other and the parent works before,
 * between, and after them.
 *
 * Timeline (us): P=[0,100]; A=[10,60]; B=[30,80].
 * Exclusive durations: P = (10-0)+(100-80) = 30; A = 50; B = 50 - but B
 * overlaps A in [30,60], exclusive means "not overlapping any CHILD", and
 * A/B are leaves, so A=50, B=50.
 */
inline trace::Trace
figure2Trace()
{
    trace::Trace t;
    t.traceId = "fig2";
    t.spans.push_back(makeSpan("p", "", "frontend", "handle", 0, 100));
    t.spans.push_back(makeSpan("a", "p", "svc-a", "opA", 10, 60));
    t.spans.push_back(makeSpan("b", "p", "svc-b", "opB", 30, 80));
    return t;
}

/**
 * Byte offsets of fields in what trace::ColumnarTrace::encode writes
 * for `t`: the trace id, the i64 root, the u32 span count and the
 * span-id arena, then one block per column (span-id and parent-id
 * StrRefs; service, name, container, pod and node u32 ids; u8 kinds;
 * u8 statuses; i64 starts and ends).
 */
struct ColumnarOffsets
{
    size_t root = 0;
    size_t spanIds = 0;
    size_t parentIds = 0;
    size_t services = 0;
    size_t nodes = 0;
    size_t kinds = 0;
    size_t statuses = 0;
};

inline ColumnarOffsets
columnarOffsets(const trace::Trace &t)
{
    size_t n = t.spans.size();
    size_t arena = 0;
    for (const trace::Span &s : t.spans)
        arena += s.spanId.size() + s.parentSpanId.size();
    ColumnarOffsets at;
    at.root = 4 + t.traceId.size();
    at.spanIds = at.root + 8 + 4 + 4 + arena;
    at.parentIds = at.spanIds + 8 * n;
    at.services = at.parentIds + 8 * n;
    at.nodes = at.services + 4 * 4 * n;
    at.kinds = at.nodes + 4 * n;
    at.statuses = at.kinds + n;
    return at;
}

/** `bytes` with the sizeof(T) bytes at `at` overwritten by `value`. */
template <typename T>
std::string
patched(std::string bytes, size_t at, T value)
{
    std::memcpy(&bytes[at], &value, sizeof value);
    return bytes;
}

/** The T stored at byte `at` of `bytes`. */
template <typename T>
T
peek(const std::string &bytes, size_t at)
{
    T value;
    std::memcpy(&value, &bytes[at], sizeof value);
    return value;
}

} // namespace sleuth::testing
