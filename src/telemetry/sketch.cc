#include "telemetry/sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace dsps::telemetry {

Sketch::Sketch(const Config& config) : config_(config) {
  DSPS_CHECK(config_.relative_accuracy > 0.0 &&
             config_.relative_accuracy < 1.0);
  DSPS_CHECK(config_.max_buckets >= 8);
  gamma_ = (1.0 + config_.relative_accuracy) /
           (1.0 - config_.relative_accuracy);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
  // Every finite magnitude's key (and the store's slack around it) must
  // fit in an int.
  DSPS_CHECK(std::log(std::numeric_limits<double>::max()) * inv_log_gamma_ <
             std::numeric_limits<int>::max() / 4);
}

int Sketch::KeyFor(double magnitude) const {
  // Bucket k covers (gamma^(k-1), gamma^k].
  return static_cast<int>(std::ceil(std::log(magnitude) * inv_log_gamma_));
}

double Sketch::ValueFor(int key) const {
  // Midpoint (in relative terms) of (gamma^(k-1), gamma^k]: every value in
  // the bucket is within relative_accuracy of this estimate.
  return 2.0 * std::pow(gamma_, key) / (gamma_ + 1.0);
}

void Sketch::Store::Cover(int key) {
  if (counts.empty()) {
    offset = key;
    counts.assign(1, 0);
    return;
  }
  if (key < offset) {
    // Grow the front with slack proportional to the array, so keys
    // arriving in descending order cost amortized O(1) each.
    const size_t grow = static_cast<size_t>(offset - key) + counts.size() / 2;
    counts.insert(counts.begin(), grow, 0);
    offset -= static_cast<int>(grow);
  } else if (static_cast<size_t>(key - offset) >= counts.size()) {
    counts.resize(static_cast<size_t>(key - offset) + 1, 0);
  }
}

void Sketch::Store::Add(int key, int64_t n) {
  Cover(key);
  int64_t& c = counts[static_cast<size_t>(key - offset)];
  if (c == 0) {
    ++nonempty;
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  c += n;
  total += n;
}

void Sketch::Collapse(Store& store) {
  // Fold the lowest-magnitude non-empty bucket into the next non-empty
  // one. High quantiles keep the error bound; only the collapsed low
  // tail coarsens.
  while (store.nonempty > config_.max_buckets) {
    size_t first = static_cast<size_t>(store.lo - store.offset);
    size_t second = first + 1;
    while (store.counts[second] == 0) ++second;
    store.counts[second] += store.counts[first];
    store.counts[first] = 0;
    store.lo = store.offset + static_cast<int>(second);
    --store.nonempty;
    collapsed_ = true;
  }
}

void Sketch::Add(double x, int64_t n) {
  if (n <= 0) return;
  count_ += n;  // Non-finite values are counted so totals reconcile.
  if (!std::isfinite(x)) return;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  sum_ += x * static_cast<double>(n);
  double mag = std::fabs(x);
  if (mag < kMinIndexable) {
    zero_count_ += n;
  } else {
    Store& store = x > 0.0 ? pos_ : neg_;
    store.Add(KeyFor(mag), n);
    Collapse(store);
  }
}

void Sketch::Merge(const Sketch& other) {
  DSPS_CHECK(config_.relative_accuracy == other.config_.relative_accuracy);
  if (other.count_ == 0) return;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  for (auto [mine, theirs] : {std::pair{&pos_, &other.pos_},
                              std::pair{&neg_, &other.neg_}}) {
    if (theirs->nonempty == 0) continue;
    mine->Cover(theirs->lo);
    mine->Cover(theirs->hi);
    // Read the bounds first: `other` may be this sketch.
    const int lo = theirs->lo, hi = theirs->hi, offset = theirs->offset;
    for (int k = lo; k <= hi; ++k) {
      const int64_t n = theirs->counts[static_cast<size_t>(k - offset)];
      if (n > 0) mine->Add(k, n);
    }
  }
  collapsed_ = collapsed_ || other.collapsed_;
  Collapse(pos_);
  Collapse(neg_);
}

double Sketch::min() const { return min_ <= max_ ? min_ : 0.0; }
double Sketch::max() const { return min_ <= max_ ? max_ : 0.0; }

double Sketch::Percentile(double q) const {
  const int64_t indexed = zero_count_ + pos_.total + neg_.total;
  if (indexed == 0) return 0.0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max();
  // Nearest rank in [1, indexed].
  int64_t rank = static_cast<int64_t>(
      std::ceil(q * static_cast<double>(indexed)));
  rank = std::max<int64_t>(1, std::min(rank, indexed));
  int64_t cum = 0;
  // Ascending value order: negatives from largest magnitude down, the
  // zero bucket, then positives from smallest magnitude up. Empty slots
  // never change `cum`, so they can never be the answer.
  for (int k = neg_.hi; k >= neg_.lo; --k) {
    cum += neg_.counts[static_cast<size_t>(k - neg_.offset)];
    if (cum >= rank) return std::clamp(-ValueFor(k), min_, max_);
  }
  cum += zero_count_;
  if (cum >= rank) return std::clamp(0.0, min_, max_);
  for (int k = pos_.lo; k <= pos_.hi; ++k) {
    cum += pos_.counts[static_cast<size_t>(k - pos_.offset)];
    if (cum >= rank) return std::clamp(ValueFor(k), min_, max_);
  }
  return max();
}

size_t Sketch::MemoryBytes() const {
  return sizeof(Sketch) +
         (pos_.counts.capacity() + neg_.counts.capacity()) * sizeof(int64_t);
}

void Sketch::Clear() { *this = Sketch(config_); }

}  // namespace dsps::telemetry
