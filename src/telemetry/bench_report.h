#ifndef DSPS_TELEMETRY_BENCH_REPORT_H_
#define DSPS_TELEMETRY_BENCH_REPORT_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "telemetry/registry.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace dsps::telemetry {

/// Machine-readable benchmark output: collects headline numbers and metric
/// snapshots from a bench run and writes `BENCH_<name>.json` next to the
/// human-readable tables, establishing a perf trajectory across PRs.
///
/// Usage in a bench binary:
///   telemetry::BenchReport report("e1_dissemination");
///   report.SetHeadline("wan_mb", wan_mb, {{"entities", "64"}});
///   report.MergeSnapshot(registry.Snapshot(), {{"entities", "64"}});
///   report.WriteFileOrDie();
class BenchReport {
 public:
  /// `name` is the experiment id; the output file is BENCH_<name>.json in
  /// the current directory (override with env DSPS_BENCH_DIR).
  explicit BenchReport(std::string name);

  const std::string& name() const { return name_; }

  /// Records one headline number as a gauge named "headline.<key>".
  void SetHeadline(std::string_view key, double value, Labels labels = {});

  /// Folds a component registry snapshot into the report, appending
  /// `extra_labels` to every sample (e.g. the sweep point of this row).
  void MergeSnapshot(const MetricsSnapshot& snapshot,
                     const Labels& extra_labels = {});

  /// A registry owned by the report, for benches that want components to
  /// write into the report directly.
  MetricsRegistry* registry() { return &registry_; }

  /// Attaches a time-series recorder; its windows appear as one block of
  /// the report's "series" array, annotated with `labels` (e.g. the
  /// scenario of this run). The recorder must outlive the report. Empty
  /// recorders are skipped at serialization time, so attaching a
  /// never-sampled recorder leaves the JSON byte-identical.
  void AttachSeries(const TimeSeriesRecorder* recorder, Labels labels = {});

  /// Attaches a trace log (must outlive the report): its drop counts add
  /// into the report's trace.dropped_* counters, and any per-stage
  /// sketches (aggregate_stages mode) appear as "trace.stage_s"
  /// histogram samples labeled by stage.
  void AttachTrace(const TraceLog* trace, Labels labels = {});

  /// {"bench": name, "metrics": [...], "series": [...]}; deterministic
  /// for identical data. "series" is present only when a non-empty
  /// recorder is attached. Non-const: folds the process-wide non-finite
  /// JSON value count (see JsonNumber) into a `telemetry.nonfinite_values`
  /// counter, the process-wide Histogram sample-cap overflow into
  /// `common.histogram_overflow` and the attached recorders' dropped
  /// samples into `telemetry.series_dropped` (zero folds nothing, keeping
  /// clean reports byte-identical), and always exports trace.dropped_spans /
  /// trace.dropped_instants counters so span loss is a headline signal
  /// in every report.
  std::string ToJson();

  /// Resolved output path (honors DSPS_BENCH_DIR).
  std::string OutputPath() const;

  common::Status WriteFile();
  /// WriteFile, aborting on failure (bench binaries have no error path).
  void WriteFileOrDie();

 private:
  std::string name_;
  MetricsRegistry registry_;
  std::vector<std::pair<const TimeSeriesRecorder*, Labels>> series_;
  std::vector<std::pair<const TraceLog*, Labels>> traces_;
  bool stage_sketches_folded_ = false;
};

}  // namespace dsps::telemetry

#endif  // DSPS_TELEMETRY_BENCH_REPORT_H_
