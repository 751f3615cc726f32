#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dsps::common {

namespace {
constexpr size_t kDefaultSampleCap = size_t{1} << 25;
int64_t g_total_overflow = 0;
}  // namespace

size_t Histogram::default_sample_cap() { return kDefaultSampleCap; }

int64_t Histogram::TotalOverflow() { return g_total_overflow; }

void Histogram::CountOverflow(int64_t n) {
  // Debug builds fail loudly: an uncapped accumulation site is a bug —
  // the fix is a larger explicit cap or a telemetry::Sketch, not silence.
  DSPS_DCHECK(false &&
              "common::Histogram sample cap exceeded; use a Sketch or "
              "set_sample_cap for genuinely exact needs");
  overflow_ += n;
  g_total_overflow += n;
}

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void Histogram::Add(double x) {
  if (samples_.size() >= cap_) {
    CountOverflow(1);
    return;
  }
  samples_.push_back(x);
  sorted_ = false;
}

double Histogram::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

void Histogram::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Histogram::Percentile(double q) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  if (q <= 0.0) return samples_.front();
  if (q >= 1.0) return samples_.back();
  double rank = q * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

}  // namespace dsps::common
