#include "telemetry/sinks.h"

#include <ostream>

#include "telemetry/json.h"

namespace dsps::telemetry {

std::string SpanToJson(const Span& span) {
  JsonWriter w;
  w.BeginObject();
  w.Key("trace").Int(span.trace);
  w.Key("stage").String(StageName(span.stage));
  w.Key("start").Number(span.start);
  w.Key("end").Number(span.end);
  if (span.from >= 0) w.Key("from").Int(span.from);
  if (span.to >= 0) w.Key("to").Int(span.to);
  if (span.query >= 0) w.Key("query").Int(span.query);
  if (span.tenant >= 0) w.Key("tenant").Int(span.tenant);
  w.EndObject();
  return w.TakeString();
}

std::string InstantToJson(const Instant& instant) {
  JsonWriter w;
  w.BeginObject();
  w.Key("instant").String(instant.name);
  w.Key("t").Number(instant.t);
  if (instant.node >= 0) w.Key("node").Int(instant.node);
  if (instant.value != 0.0) w.Key("value").Number(instant.value);
  w.EndObject();
  return w.TakeString();
}

void WriteSpansJsonLines(const TraceLog& log, std::ostream& os) {
  for (const Span& span : log.spans()) {
    os << SpanToJson(span) << '\n';
  }
  for (const Instant& instant : log.instants()) {
    os << InstantToJson(instant) << '\n';
  }
}

}  // namespace dsps::telemetry
