#pragma once

/**
 * @file
 * JSON import/export for traces.
 *
 * The on-disk shape is a flattened OpenTelemetry-like document:
 * {"traceId": "...", "spans": [{"spanId": ..., "parentSpanId": ...,
 *  "service": ..., "name": ..., "kind": ..., "startUs": ..., "endUs": ...,
 *  "status": ..., "container": ..., "pod": ..., "node": ...}, ...]}.
 */

#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/json.h"

namespace sleuth::trace {

/** Serialize one trace to a JSON value. */
util::Json toJson(const Trace &trace);

/**
 * Deserialize one trace. A schema defect returns an empty trace and
 * sets *error to the defect's field path (e.g.
 * "spans[0].kind: unknown span kind 'X'"); without an error pointer
 * it is fatal().
 */
Trace traceFromJson(const util::Json &doc, std::string *error = nullptr);

/** Serialize a corpus as a JSON array. */
util::Json toJson(const std::vector<Trace> &traces);

/** Deserialize a corpus from a JSON array; defects as traceFromJson. */
std::vector<Trace> tracesFromJson(const util::Json &doc,
                                  std::string *error = nullptr);

} // namespace sleuth::trace
