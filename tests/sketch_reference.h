#ifndef DSPS_TESTS_SKETCH_REFERENCE_H_
#define DSPS_TESTS_SKETCH_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>

#include "common/check.h"
#include "telemetry/sketch.h"

namespace dsps::telemetry::reference {

/// The original telemetry::Sketch, whose buckets lived in one std::map
/// node per key, kept as the independent oracle for the dense bucket
/// store: same keys, same collapse rule, same ascending walk, so every
/// answer of the two must agree bit for bit. Feed it finite values and
/// NaN only (an infinite value is undefined behaviour here: KeyFor casts
/// an infinite logarithm to int).
class MapSketch {
 public:
  MapSketch() : MapSketch(Sketch::Config{}) {}
  explicit MapSketch(const Sketch::Config& config) : config_(config) {
    DSPS_CHECK(config_.relative_accuracy > 0.0 &&
               config_.relative_accuracy < 1.0);
    DSPS_CHECK(config_.max_buckets >= 8);
    gamma_ = (1.0 + config_.relative_accuracy) /
             (1.0 - config_.relative_accuracy);
    inv_log_gamma_ = 1.0 / std::log(gamma_);
  }

  void Add(double x, int64_t n = 1) {
    if (n <= 0) return;
    if (std::isnan(x)) {
      count_ += n;  // Counted so totals reconcile; excluded from quantiles.
      return;
    }
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    count_ += n;
    sum_ += x * static_cast<double>(n);
    double mag = std::fabs(x);
    if (mag < kMinIndexable) {
      zero_count_ += n;
    } else if (x > 0.0) {
      pos_[KeyFor(mag)] += n;
      Collapse(pos_);
    } else {
      neg_[KeyFor(mag)] += n;
      Collapse(neg_);
    }
  }

  void Merge(const MapSketch& other) {
    DSPS_CHECK(config_.relative_accuracy == other.config_.relative_accuracy);
    if (other.count_ == 0) return;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
    zero_count_ += other.zero_count_;
    for (const auto& [key, n] : other.pos_) pos_[key] += n;
    for (const auto& [key, n] : other.neg_) neg_[key] += n;
    collapsed_ = collapsed_ || other.collapsed_;
    Collapse(pos_);
    Collapse(neg_);
  }

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_ <= max_ ? min_ : 0.0; }
  double max() const { return min_ <= max_ ? max_ : 0.0; }

  double Percentile(double q) const {
    int64_t indexed = zero_count_;
    for (const auto& [key, n] : pos_) indexed += n;
    for (const auto& [key, n] : neg_) indexed += n;
    if (indexed == 0) return 0.0;
    if (q <= 0.0) return min();
    if (q >= 1.0) return max();
    // Nearest rank in [1, indexed].
    int64_t rank = static_cast<int64_t>(
        std::ceil(q * static_cast<double>(indexed)));
    rank = std::max<int64_t>(1, std::min(rank, indexed));
    int64_t cum = 0;
    // Ascending value order: negatives from largest magnitude down, the
    // zero bucket, then positives from smallest magnitude up.
    for (auto it = neg_.rbegin(); it != neg_.rend(); ++it) {
      cum += it->second;
      if (cum >= rank) {
        return std::clamp(-ValueFor(it->first), min_, max_);
      }
    }
    cum += zero_count_;
    if (cum >= rank) return std::clamp(0.0, min_, max_);
    for (const auto& [key, n] : pos_) {
      cum += n;
      if (cum >= rank) return std::clamp(ValueFor(key), min_, max_);
    }
    return max();
  }

  size_t num_buckets() const { return pos_.size() + neg_.size(); }
  bool collapsed() const { return collapsed_; }

 private:
  static constexpr double kMinIndexable = 1e-12;

  int KeyFor(double magnitude) const {
    // Bucket k covers (gamma^(k-1), gamma^k].
    return static_cast<int>(std::ceil(std::log(magnitude) * inv_log_gamma_));
  }

  double ValueFor(int key) const {
    return 2.0 * std::pow(gamma_, key) / (gamma_ + 1.0);
  }

  void Collapse(std::map<int, int64_t>& buckets) {
    // Fold the lowest-magnitude bucket into its neighbor.
    while (buckets.size() > config_.max_buckets) {
      auto first = buckets.begin();
      auto second = std::next(first);
      second->second += first->second;
      buckets.erase(first);
      collapsed_ = true;
    }
  }

  Sketch::Config config_;
  double gamma_ = 0.0;
  double inv_log_gamma_ = 0.0;
  std::map<int, int64_t> pos_;
  std::map<int, int64_t> neg_;
  int64_t zero_count_ = 0;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  bool collapsed_ = false;
};

}  // namespace dsps::telemetry::reference

#endif  // DSPS_TESTS_SKETCH_REFERENCE_H_
