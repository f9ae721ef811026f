#pragma once

/**
 * @file
 * JSON import/export for traces, the collectors' OTel protocol.
 *
 * The on-disk shape is a flattened OpenTelemetry-like document:
 * {"traceId": "...", "spans": [{"spanId": ..., "parentSpanId": ...,
 *  "service": ..., "name": ..., "kind": ..., "startUs": ..., "endUs": ...,
 *  "status": ..., "container": ..., "pod": ..., "node": ...}, ...]}.
 *
 * Export builds a util::Json DOM; import reads text straight into rows
 * through util::JsonReader, with the results and messages a DOM walk
 * with the checked getters would give (see collector.h). A trace's own
 * fields are checked before its spans.
 */

#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.h"
#include "util/json.h"

namespace sleuth::trace {

/** Serialize one trace to a JSON value. */
util::Json toJson(const Trace &trace);

/** Serialize a corpus as a JSON array. */
util::Json toJson(const std::vector<Trace> &traces);

/**
 * Decode one trace from JSON text. A syntax error sets *error to
 * Json::parse's message, a schema defect to its path (e.g.
 * "spans[0].kind: unknown span kind 'X'"); either returns an empty
 * trace, and without an error pointer it is fatal().
 */
Trace traceFromText(std::string_view text, std::string *error = nullptr);

/** Decode a corpus from a JSON array's text; defects as traceFromText. */
std::vector<Trace> tracesFromText(std::string_view text,
                                  std::string *error = nullptr);

/** The text decoders over doc.dump(), for callers holding a DOM. */
Trace traceFromJson(const util::Json &doc, std::string *error = nullptr);
std::vector<Trace> tracesFromJson(const util::Json &doc,
                                  std::string *error = nullptr);

} // namespace sleuth::trace
