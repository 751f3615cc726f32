#include "telemetry/sinks.h"

#include <array>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/stats.h"
#include "common/table.h"
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

common::Status WriteSpansFile(const TraceLog& log, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    return common::Status::InvalidArgument("cannot open " + path);
  }
  WriteSpansJsonLines(log, os);
  os.flush();
  if (!os) return common::Status::Internal("write failed for " + path);
  return common::Status::OK();
}

void PrintTraceSummary(const TraceLog& log, std::ostream& os) {
  common::Table table({"stage", "spans", "total ms", "mean ms", "p50 ms",
                       "p95 ms", "p99 ms"});
  if (!log.stage_sketches().empty()) {
    // Aggregate-stages mode: the bounded sketches carry the breakdown
    // (and, with retain_spans off, the spans were never stored).
    for (const auto& [stage, sketch] : log.stage_sketches()) {
      table.AddRow({StageName(stage), common::Table::Int(sketch.count()),
                    common::Table::Num(sketch.sum() * 1e3, 3),
                    common::Table::Num(sketch.mean() * 1e3, 4),
                    common::Table::Num(sketch.p50() * 1e3, 4),
                    common::Table::Num(sketch.p95() * 1e3, 4),
                    common::Table::Num(sketch.p99() * 1e3, 4)});
    }
    os << table.ToString();
    return;
  }
  std::map<Stage, common::Histogram> per_stage;
  for (const Span& span : log.spans()) {
    per_stage[span.stage].Add(span.duration());
  }
  for (const auto& [stage, hist] : per_stage) {
    table.AddRow({StageName(stage),
                  common::Table::Int(static_cast<int64_t>(hist.count())),
                  common::Table::Num(hist.mean() * hist.count() * 1e3, 3),
                  common::Table::Num(hist.mean() * 1e3, 4),
                  common::Table::Num(hist.p50() * 1e3, 4),
                  common::Table::Num(hist.p95() * 1e3, 4),
                  common::Table::Num(hist.p99() * 1e3, 4)});
  }
  os << table.ToString();
}

namespace {

std::string LabelsToString(const Labels& labels) {
  std::ostringstream os;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) os << ',';
    os << labels[i].first << '=' << labels[i].second;
  }
  return os.str();
}

}  // namespace

void PrintMetricsSummary(const MetricsSnapshot& snapshot, std::ostream& os) {
  common::Table table({"metric", "labels", "kind", "value / count", "mean",
                       "p95"});
  for (const MetricSample& s : snapshot.samples) {
    if (s.kind == MetricSample::Kind::kHistogram) {
      table.AddRow({s.name, LabelsToString(s.labels), MetricKindName(s.kind),
                    common::Table::Int(s.count), common::Table::Num(s.mean, 6),
                    common::Table::Num(s.p95, 6)});
    } else {
      table.AddRow({s.name, LabelsToString(s.labels), MetricKindName(s.kind),
                    common::Table::Num(s.value, 3), "", ""});
    }
  }
  os << table.ToString();
}

}  // namespace dsps::telemetry
