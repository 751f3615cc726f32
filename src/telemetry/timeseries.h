#ifndef DSPS_TELEMETRY_TIMESERIES_H_
#define DSPS_TELEMETRY_TIMESERIES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/registry.h"

namespace dsps::telemetry {

class JsonWriter;

/// Windowed time-series sampler: the caller registers probes (closures
/// reading live system state or registry metrics) and then calls
/// Sample(now) at fixed sim-clock intervals; every probe is evaluated at
/// every sample, so all series share one time axis. The recorder turns
/// end-of-run bench aggregates into adaptation *trajectories* — e.g. load
/// imbalance before/during/after a repartition round, or WAN bytes/s
/// across a failover.
///
/// Probes come in two flavors:
///  - gauge probes record the probed value as-is (imbalance ratio,
///    unplaced-queue depth, per-entity load);
///  - rate probes record the per-second delta of a monotonically growing
///    quantity (bytes sent, results delivered) over the sampling window,
///    0 for the first window.
///
/// Like the rest of the telemetry plane, a recorder that is never sampled
/// costs nothing and emits nothing: BenchReport skips the `series`
/// section entirely when the recorder is empty, keeping bench JSON
/// byte-identical to a recorder-free build.
class TimeSeriesRecorder {
 public:
  /// Hard cap on retained samples; beyond it Sample() only counts the
  /// drop (a runaway loop should not OOM the bench).
  static constexpr size_t kMaxSamples = 1u << 16;

  struct Config {
    /// Sampling period in simulated seconds (informational — the caller
    /// drives Sample(); this is recorded into the JSON so readers know
    /// the intended spacing).
    double interval_s = 1.0;
  };

  TimeSeriesRecorder() = default;
  explicit TimeSeriesRecorder(const Config& config) : config_(config) {}
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  const Config& config() const { return config_; }

  /// Registers a probe whose value is recorded directly.
  void AddGaugeProbe(std::string name, Labels labels,
                     std::function<double()> probe);

  /// Registers a probe over a cumulative quantity; each sample records
  /// (value - previous value) / (now - previous now). The first sample
  /// records 0 (no window yet).
  void AddRateProbe(std::string name, Labels labels,
                    std::function<double()> probe);

  /// Evaluates every probe at simulated time `now`, appending one point
  /// per series. Callers must pass non-decreasing times.
  void Sample(double now);

  size_t num_samples() const { return times_.size(); }
  /// Samples refused because kMaxSamples were already retained.
  int64_t dropped_samples() const { return dropped_samples_; }
  size_t num_series() const { return series_.size(); }
  bool empty() const { return times_.empty() || series_.empty(); }
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values(size_t series) const {
    return series_[series].values;
  }

  /// Appends this recorder's block to `w` as one JSON object:
  ///   {"interval_s": .., "labels": {..}, "t": [..],
  ///    "series": [{"name": .., "labels": {..}, "points": [..]}, ..]}
  /// `extra_labels` annotate the whole block (e.g. the bench scenario).
  void AppendJson(JsonWriter* w, const Labels& extra_labels = {}) const;

  /// Standalone JSON for tests/tools.
  std::string ToJson(const Labels& extra_labels = {}) const;

 private:
  struct Series {
    std::string name;
    Labels labels;
    std::function<double()> probe;
    bool rate = false;
    /// Rate-probe state: cumulative value at the previous sample.
    double prev_value = 0.0;
    bool has_prev = false;
    std::vector<double> values;
  };

  Config config_;
  std::vector<double> times_;
  std::vector<Series> series_;
  double last_time_ = 0.0;
  int64_t dropped_samples_ = 0;
};

}  // namespace dsps::telemetry

#endif  // DSPS_TELEMETRY_TIMESERIES_H_
