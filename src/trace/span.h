#pragma once

/**
 * @file
 * The span data model (OpenTelemetry-conformant subset).
 *
 * Sleuth deliberately consumes only the attributes required by the
 * OpenTelemetry tracing convention (paper §3.2.1): identity (service,
 * operation name, kind), timing (start, end), and status. Resource
 * attributes (container/pod/node) locate where the span ran so root-cause
 * services can be mapped to root-cause pods and nodes.
 */

#include <cstdint>
#include <string>

namespace sleuth::trace {

/** OpenTelemetry span kind. */
enum class SpanKind {
    Client,    ///< synchronous RPC caller side
    Server,    ///< synchronous RPC callee side
    Producer,  ///< asynchronous message publisher
    Consumer,  ///< asynchronous message subscriber
    Local,     ///< local function call
};

/** OpenTelemetry status code. */
enum class StatusCode {
    Unset,
    Ok,
    Error,
};

/** Render a span kind as its OpenTelemetry string. */
const char *toString(SpanKind kind);

/** Render a status code as its OpenTelemetry string. */
const char *toString(StatusCode code);

/** Parse a span kind string; false on unknown input. */
bool trySpanKindFromString(const std::string &s, SpanKind *out);

/** Parse a status code string; false on unknown input. */
bool tryStatusCodeFromString(const std::string &s, StatusCode *out);

/** One operation within a trace. */
struct Span
{
    /** Unique ID of this span within the trace. */
    std::string spanId;
    /** ID of the parent span; empty for the root span. */
    std::string parentSpanId;
    /** Service in which the operation ran. */
    std::string service;
    /** Operation name. */
    std::string name;
    /** Role of this span in the RPC. */
    SpanKind kind = SpanKind::Server;
    /** Start timestamp in microseconds. */
    int64_t startUs = 0;
    /** End timestamp in microseconds. */
    int64_t endUs = 0;
    /** Completion status. */
    StatusCode status = StatusCode::Unset;
    /** Container instance that executed the span. */
    std::string container;
    /** Pod hosting the container. */
    std::string pod;
    /** Node hosting the pod. */
    std::string node;

    /** Wall-clock duration in microseconds. */
    int64_t durationUs() const { return endUs - startUs; }

    /** True when the span completed with an error. */
    bool hasError() const { return status == StatusCode::Error; }
};

} // namespace sleuth::trace
