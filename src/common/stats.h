#ifndef DSPS_COMMON_STATS_H_
#define DSPS_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsps::common {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStat {
 public:
  /// Adds one observation.
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance; 0 with fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact-percentile histogram: stores all samples; intended for experiment
/// harnesses where sample counts are modest (<= millions). The "modest"
/// contract is enforced: once a histogram reaches its sample cap, further
/// Adds fail a fatal check in debug builds and are counted (overflow())
/// but not stored in release builds — never silent multi-GB growth. For
/// unbounded hot-path streams use telemetry::Sketch instead.
class Histogram {
 public:
  /// Adds one observation (dropped and counted once at the cap).
  void Add(double x);

  size_t count() const { return samples_.size(); }
  double mean() const;
  /// The q-quantile (q in [0,1]) with linear interpolation between the
  /// two nearest sorted samples; 0 when empty.
  double Percentile(double q) const;
  double p50() const { return Percentile(0.50); }
  double p95() const { return Percentile(0.95); }
  double p99() const { return Percentile(0.99); }
  double max() const { return Percentile(1.0); }

  /// Stored samples in unspecified order (sorted after any percentile
  /// query). Exposed so accuracy harnesses can replay exact samples into
  /// a Sketch for error measurement.
  const std::vector<double>& samples() const { return samples_; }

  /// Per-instance sample cap; new histograms start at default_sample_cap.
  void set_sample_cap(size_t cap) { cap_ = cap; }
  size_t sample_cap() const { return cap_; }
  /// Samples rejected at the cap by this instance (release builds).
  int64_t overflow() const { return overflow_; }

  /// Cap new histograms start at (2^25 samples = 256 MB of doubles).
  static size_t default_sample_cap();
  /// Total samples rejected at the cap across every histogram in the
  /// process; bench reports surface this so truncation is never silent.
  static int64_t TotalOverflow();

 private:
  void EnsureSorted() const;
  void CountOverflow(int64_t n);

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  size_t cap_ = default_sample_cap();
  int64_t overflow_ = 0;
};

}  // namespace dsps::common

#endif  // DSPS_COMMON_STATS_H_
