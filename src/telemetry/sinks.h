#ifndef DSPS_TELEMETRY_SINKS_H_
#define DSPS_TELEMETRY_SINKS_H_

#include <iosfwd>
#include <string>

#include "telemetry/trace.h"

namespace dsps::telemetry {

/// Serializes one span as a single-line JSON object (no newline).
std::string SpanToJson(const Span& span);

/// Serializes one instant event as a single-line JSON object (no
/// newline). Distinguished from spans by its "instant" key.
std::string InstantToJson(const Instant& instant);

/// Writes every retained span — then every instant — as one JSON object
/// per line (JSONL), the format tools/trace_stats and tools/trace_export
/// consume.
void WriteSpansJsonLines(const TraceLog& log, std::ostream& os);

}  // namespace dsps::telemetry

#endif  // DSPS_TELEMETRY_SINKS_H_
