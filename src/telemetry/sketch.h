#ifndef DSPS_TELEMETRY_SKETCH_H_
#define DSPS_TELEMETRY_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace dsps::telemetry {

/// Mergeable quantile sketch with bounded relative error (DDSketch-style
/// log-gamma bucketing over a dense bucket store).
///
/// Every observation is quantized to a geometric bucket whose estimate is
/// at most `relative_accuracy` away from the true value, so any quantile
/// query answers within that relative error of the exact sample quantile
/// regardless of stream length. Each sign keeps its bucket counts in one
/// contiguous array spanning its occupied keys, so memory is O(key
/// range): with the default 1% accuracy, values spanning six orders of
/// magnitude fit in ~700 buckets (~5.5 KB), versus 8 bytes *per sample*
/// for common::Histogram.
///
/// This is the distribution type of every runtime statistic (result
/// latency, PR, client latency, registry histograms). common::Histogram
/// remains only where the sample count is small and exact order
/// statistics matter (detection latencies, bench-local reference
/// samples).
///
/// Merging adds bucket counts, so merge(a, b) is exact: the merged sketch
/// is identical to one that observed both streams. Merge order only
/// matters once `max_buckets` forces low-bucket collapsing (high
/// quantiles keep their error bound even then).
class Sketch {
 public:
  struct Config {
    /// Bound on the relative error of quantile estimates (alpha).
    double relative_accuracy = 0.01;
    /// Bucket budget per sign. When exceeded, the lowest-magnitude
    /// buckets collapse together: high quantiles stay accurate, the far
    /// low tail degrades. 1024 buckets cover ~9 decades at alpha=0.01.
    size_t max_buckets = 1024;
  };

  Sketch() : Sketch(Config{}) {}
  explicit Sketch(const Config& config);

  /// Adds `n` observations of value `x`. NaN and +/-inf are counted in
  /// count() but kept out of the buckets, sum, min and max.
  void Add(double x, int64_t n = 1);

  /// Folds another sketch in. Both sketches must share the same
  /// relative_accuracy (checked); bucket counts add exactly.
  void Merge(const Sketch& other);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Exact extremes (tracked outside the buckets).
  double min() const;
  double max() const;

  /// The q-quantile (q in [0,1]) by nearest rank over the buckets; the
  /// returned value is within relative_accuracy of the exact sample at
  /// that rank. 0 when empty.
  double Percentile(double q) const;
  double p50() const { return Percentile(0.50); }
  double p95() const { return Percentile(0.95); }
  double p99() const { return Percentile(0.99); }

  /// Non-empty buckets across both signs.
  size_t num_buckets() const { return pos_.nonempty + neg_.nonempty; }
  /// Heap footprint of the sketch and its bucket arrays.
  size_t MemoryBytes() const;
  /// True once the bucket budget forced low-bucket collapsing.
  bool collapsed() const { return collapsed_; }

  const Config& config() const { return config_; }

  void Clear();

 private:
  /// |x| below this is counted in the zero bucket (sub-picosecond for
  /// second-valued latencies — indistinguishable from zero).
  static constexpr double kMinIndexable = 1e-12;

  /// One sign's buckets, keyed on the magnitude's log-gamma index:
  /// counts[i] holds key offset + i. The array spans at least [lo, hi],
  /// the lowest and highest non-empty keys; slack entries are zero.
  struct Store {
    std::vector<int64_t> counts;
    int offset = 0;
    int lo = std::numeric_limits<int>::max();
    int hi = std::numeric_limits<int>::min();
    size_t nonempty = 0;
    /// Sum of all counts.
    int64_t total = 0;

    void Add(int key, int64_t n);
    /// Grows the array so it spans `key`.
    void Cover(int key);
  };

  int KeyFor(double magnitude) const;
  double ValueFor(int key) const;
  void Collapse(Store& store);

  Config config_;
  double gamma_ = 0.0;
  double inv_log_gamma_ = 0.0;
  Store pos_;
  Store neg_;
  int64_t zero_count_ = 0;
  int64_t count_ = 0;
  double sum_ = 0.0;
  /// Exact extremes over finite observations; +/-inf sentinels until the
  /// first finite Add so non-finite-only streams never poison them.
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  bool collapsed_ = false;
};

}  // namespace dsps::telemetry

#endif  // DSPS_TELEMETRY_SKETCH_H_
