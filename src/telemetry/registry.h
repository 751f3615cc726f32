#ifndef DSPS_TELEMETRY_REGISTRY_H_
#define DSPS_TELEMETRY_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/sketch.h"

namespace dsps::telemetry {

/// A metric's label set: (key, value) pairs. The registry sorts them by
/// key at intern time, so {a=1,b=2} and {b=2,a=1} name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Builds a label set from an initializer-friendly form.
Labels MakeLabels(std::initializer_list<std::pair<std::string, std::string>>
                      labels);

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Increment(int64_t delta = 1) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Last-written-value metric.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution metric backed by a telemetry::Sketch: bounded memory,
/// exact merges, and count/mean/max exact while p50/p95/p99 stay within
/// Sketch::kRelativeAccuracy.
class HistogramMetric {
 public:
  void Observe(double x) { sketch_.Add(x); }
  /// Folds a sketch in; bucket counts add exactly.
  void MergeSketch(const Sketch& other) { sketch_.Merge(other); }

  /// The backing sketch. Returned as a pointer, never null, because
  /// perfbench/ reads it that way.
  const Sketch* sketch() const { return &sketch_; }

  int64_t count() const { return sketch_.count(); }
  double mean() const { return sketch_.mean(); }
  double p50() const { return sketch_.p50(); }
  double p95() const { return sketch_.p95(); }
  double p99() const { return sketch_.p99(); }
  double max() const { return sketch_.max(); }

 private:
  Sketch sketch_;
};

/// One exported sample: the point-in-time value of a metric series.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  /// Counter / gauge value (counters exported as exact integers cast to
  /// double; bench-scale counts stay well under 2^53).
  double value = 0.0;
  /// Histogram summary (kind == kHistogram only).
  int64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

const char* MetricKindName(MetricSample::Kind kind);

/// A deterministic point-in-time export of a registry: samples sorted by
/// (name, labels, kind), so identical registry contents serialize to
/// identical bytes regardless of registration order.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// JSON array of sample objects.
  std::string ToJson() const;
  /// First sample matching (name, labels), or nullptr.
  const MetricSample* Find(std::string_view name,
                           const Labels& labels = {}) const;
};

/// Registry of labeled counters, gauges, and histograms. Components call
/// counter()/gauge()/histogram() once to intern a series and cache the
/// returned pointer (stable for the registry's lifetime); the hot path is
/// then a plain field update. Not thread-safe — the simulation is
/// single-threaded by design.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Interns (or finds) the series; the pointer stays valid until the
  /// registry is destroyed.
  Counter* counter(std::string_view name, Labels labels = {});
  Gauge* gauge(std::string_view name, Labels labels = {});
  HistogramMetric* histogram(std::string_view name, Labels labels = {});

  /// No-op: every histogram series is sketch-backed already. It stays
  /// because perfbench/ calls it.
  void UseSketches() {}

  /// Number of interned series across all kinds.
  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Deterministic export of every series.
  MetricsSnapshot Snapshot() const;

  /// Folds another registry in: counters add, gauges take the other's
  /// value, histograms merge their sketches.
  void MergeFrom(const MetricsRegistry& other);

 private:
  using Key = std::pair<std::string, Labels>;

  static Key MakeKey(std::string_view name, Labels labels);

  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace dsps::telemetry

#endif  // DSPS_TELEMETRY_REGISTRY_H_
