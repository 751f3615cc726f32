#include "telemetry/bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/stats.h"
#include "telemetry/json.h"

namespace dsps::telemetry {

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::SetHeadline(std::string_view key, double value,
                              Labels labels) {
  registry_.gauge(std::string("headline.") + std::string(key),
                  std::move(labels))
      ->Set(value);
}

void BenchReport::MergeSnapshot(const MetricsSnapshot& snapshot,
                                const Labels& extra_labels) {
  for (const MetricSample& s : snapshot.samples) {
    Labels labels = s.labels;
    for (const auto& extra : extra_labels) labels.push_back(extra);
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        registry_.counter(s.name, std::move(labels))
            ->Increment(static_cast<int64_t>(s.value));
        break;
      case MetricSample::Kind::kGauge:
        registry_.gauge(s.name, std::move(labels))->Set(s.value);
        break;
      case MetricSample::Kind::kHistogram: {
        // Summarized histograms cannot be re-merged sample-exactly; keep
        // the summary as gauges so the trajectory stays comparable.
        Labels base = labels;
        registry_.gauge(s.name + ".count", base)
            ->Set(static_cast<double>(s.count));
        registry_.gauge(s.name + ".mean", base)->Set(s.mean);
        registry_.gauge(s.name + ".p50", base)->Set(s.p50);
        registry_.gauge(s.name + ".p95", base)->Set(s.p95);
        registry_.gauge(s.name + ".p99", base)->Set(s.p99);
        registry_.gauge(s.name + ".max", std::move(base))->Set(s.max);
        break;
      }
    }
  }
}

void BenchReport::AttachSeries(const TimeSeriesRecorder* recorder,
                               Labels labels) {
  series_.emplace_back(recorder, std::move(labels));
}

void BenchReport::AttachTrace(const TraceLog* trace, Labels labels) {
  traces_.emplace_back(trace, std::move(labels));
}

std::string BenchReport::ToJson() {
  // Span loss is a first-class health signal: every report carries the
  // drop counters (zero when tracing is off or nothing dropped) so the
  // doctor can flag truncated traces without guessing at schema.
  int64_t dropped_spans = 0;
  int64_t dropped_instants = 0;
  for (const auto& [trace, labels] : traces_) {
    dropped_spans += trace->dropped_spans();
    dropped_instants += trace->dropped_instants();
  }
  auto sync = [this](const char* name, int64_t target) {
    Counter* c = registry_.counter(name);
    if (c->value() != target) c->Increment(target - c->value());
  };
  sync("trace.dropped_spans", dropped_spans);
  sync("trace.dropped_instants", dropped_instants);
  if (!stage_sketches_folded_) {
    stage_sketches_folded_ = true;
    for (const auto& [trace, labels] : traces_) {
      for (const auto& [stage, sketch] : trace->stage_sketches()) {
        Labels stage_labels = labels;
        stage_labels.emplace_back("stage", StageName(stage));
        registry_.histogram("trace.stage_s", std::move(stage_labels))
            ->MergeSketch(sketch);
      }
    }
  }
  auto render = [this] {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").String(name_);
    w.Key("metrics").Raw(registry_.Snapshot().ToJson());
    bool any_series = false;
    for (const auto& [recorder, labels] : series_) {
      if (recorder->empty()) continue;
      if (!any_series) {
        w.Key("series").BeginArray();
        any_series = true;
      }
      recorder->AppendJson(&w, labels);
    }
    if (any_series) w.EndArray();
    w.EndObject();
    return w.TakeString();
  };
  std::string body = render();
  // Rendering may itself have pushed non-finite values through JsonNumber;
  // fold the process-wide count in and re-render so the report admits to
  // its own nulls. No counter is interned when the count is zero, keeping
  // clean reports byte-identical to the pre-counter format.
  int64_t nonfinite = NonfiniteJsonValues();
  int64_t overflow = common::Histogram::TotalOverflow();
  if (nonfinite > 0 || overflow > 0) {
    if (nonfinite > 0) {
      Counter* c = registry_.counter("telemetry.nonfinite_values");
      if (c->value() != nonfinite) c->Increment(nonfinite - c->value());
    }
    if (overflow > 0) {
      // Capped histograms silently stopped storing samples somewhere in
      // this process; the report owns up to the truncation.
      Counter* c = registry_.counter("common.histogram_overflow");
      if (c->value() != overflow) c->Increment(overflow - c->value());
    }
    body = render();
  }
  return body;
}

std::string BenchReport::OutputPath() const {
  const char* dir = std::getenv("DSPS_BENCH_DIR");
  std::string prefix = (dir != nullptr && dir[0] != '\0')
                           ? std::string(dir) + "/"
                           : std::string();
  return prefix + "BENCH_" + name_ + ".json";
}

common::Status BenchReport::WriteFile() {
  std::string path = OutputPath();
  std::ofstream os(path);
  if (!os) return common::Status::InvalidArgument("cannot open " + path);
  os << ToJson() << '\n';
  os.flush();
  if (!os) return common::Status::Internal("write failed for " + path);
  return common::Status::OK();
}

void BenchReport::WriteFileOrDie() {
  common::Status s = WriteFile();
  if (!s.ok()) {
    std::fprintf(stderr, "BenchReport: %s\n", s.ToString().c_str());
    std::abort();
  }
  std::printf("wrote %s\n", OutputPath().c_str());
}

}  // namespace dsps::telemetry
