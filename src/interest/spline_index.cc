#include "interest/spline_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace dsps::interest {

SplineIndex::SplineIndex(size_t dims, const std::vector<double>& bounds,
                         const std::vector<int64_t>& subscribers)
    : dims_(dims), size_(subscribers.size()) {
  DSPS_CHECK(dims_ >= 1);
  DSPS_CHECK(bounds.size() == 2 * dims_ * size_);
  DSPS_CHECK(size_ < std::numeric_limits<uint32_t>::max());
  BuildSeparators(bounds);
  BuildSpline();
  BuildRadix();
  BuildBuckets(bounds, subscribers);
  seps_.shrink_to_fit();
  spline_.shrink_to_fit();
}

void SplineIndex::BuildSeparators(const std::vector<double>& bounds) {
  seps_.clear();
  if (size_ == 0) return;
  // Empirical CDF of the leading-dimension interval endpoints.
  const size_t stride = 2 * dims_;
  std::vector<double> endpoints;
  endpoints.reserve(size_ * 2);
  for (size_t i = 0; i < size_; ++i) {
    endpoints.push_back(bounds[i * stride]);
    endpoints.push_back(bounds[i * stride + 1]);
  }
  std::sort(endpoints.begin(), endpoints.end());
  // Registration budget: each box registers in every bucket its interval
  // spans, and an interval containing c endpoints spans about
  // c * buckets / (2n) of them. Cap the bucket count so the expected
  // extra registrations stay within one extra copy per box — fat-box
  // workloads get coarser buckets instead of quadratic memory.
  const size_t n = size_;
  size_t covered = 0;
  for (size_t i = 0; i < n; ++i) {
    covered += static_cast<size_t>(
        std::upper_bound(endpoints.begin(), endpoints.end(),
                         bounds[i * stride + 1]) -
        std::lower_bound(endpoints.begin(), endpoints.end(),
                         bounds[i * stride]));
  }
  size_t buckets = n / kTargetBucketBoxes;
  if (covered > 0) {
    buckets = std::min(buckets, 2 * n * n / covered);
  }
  buckets = std::max<size_t>(buckets, 1);
  // Boundaries at equal-depth quantiles of the endpoint CDF, deduplicated
  // (repeated endpoints collapse; the bucket simply holds more boxes).
  for (size_t b = 1; b < buckets; ++b) {
    double sep = endpoints[b * endpoints.size() / buckets];
    if (seps_.empty() || sep > seps_.back()) seps_.push_back(sep);
  }
}

void SplineIndex::BuildSpline() {
  spline_.clear();
  if (seps_.size() < 2) {
    for (size_t i = 0; i < seps_.size(); ++i) {
      spline_.push_back(Knot{seps_[i], static_cast<double>(i)});
    }
    return;
  }
  // Greedy bounded-error corridor (GreedySplineCorridor): keep extending
  // the current segment while the line from the last knot to the incoming
  // point stays inside the intersection of all +/-kMaxError slope
  // corridors; when it exits, the previous point becomes a knot.
  const double eps = static_cast<double>(kMaxError);
  spline_.push_back(Knot{seps_[0], 0.0});
  Knot last = spline_.back();
  Knot prev = last;
  double upper = std::numeric_limits<double>::infinity();
  double lower = -std::numeric_limits<double>::infinity();
  for (size_t i = 1; i < seps_.size(); ++i) {
    const Knot pt{seps_[i], static_cast<double>(i)};
    const double dx = pt.x - last.x;
    DSPS_CHECK(dx > 0);  // separators are strictly increasing
    const double slope = (pt.y - last.y) / dx;
    if (slope > upper || slope < lower) {
      spline_.push_back(prev);
      last = prev;
      const double dx2 = pt.x - last.x;
      upper = (pt.y + eps - last.y) / dx2;
      lower = (pt.y - eps - last.y) / dx2;
    } else {
      upper = std::min(upper, (pt.y + eps - last.y) / dx);
      lower = std::max(lower, (pt.y - eps - last.y) / dx);
    }
    prev = pt;
  }
  if (spline_.back().x != seps_.back()) {
    spline_.push_back(Knot{seps_.back(), static_cast<double>(seps_.size() - 1)});
  }
}

uint64_t SplineIndex::PrefixOf(double x) const {
  const auto slots = static_cast<uint64_t>(radix_.size() - 1);
  double scaled = (x - radix_min_) * radix_scale_;
  if (!(scaled > 0.0)) return 0;
  if (scaled >= static_cast<double>(slots - 1)) return slots - 1;
  return static_cast<uint64_t>(scaled);
}

void SplineIndex::BuildRadix() {
  radix_.clear();
  if (spline_.size() < 64) return;
  const double lo = spline_.front().x;
  const double hi = spline_.back().x;
  if (!std::isfinite(lo) || !std::isfinite(hi) || hi <= lo) return;
  const auto slots = static_cast<size_t>(1) << kRadixBits;
  radix_min_ = lo;
  radix_scale_ = static_cast<double>(slots) / (hi - lo);
  if (!std::isfinite(radix_scale_) || radix_scale_ <= 0.0) return;
  radix_.assign(slots + 1, 0);
  // radix_[p] = first knot whose prefix is >= p; the segment holding a key
  // with prefix q then starts at an index in [radix_[q], radix_[q + 1]].
  size_t next = 0;
  for (size_t k = 0; k < spline_.size(); ++k) {
    const uint64_t pk = PrefixOf(spline_[k].x);
    while (next <= pk) radix_[next++] = static_cast<uint32_t>(k);
  }
  while (next < radix_.size()) {
    radix_[next++] = static_cast<uint32_t>(spline_.size() - 1);
  }
}

void SplineIndex::BuildBuckets(const std::vector<double>& bounds,
                               const std::vector<int64_t>& subscribers) {
  const size_t buckets = seps_.size() + 1;
  const size_t stride = 2 * dims_;
  bucket_offsets_.assign(buckets + 1, 0);
  // Counting pass, then CSR fill. Ranks here use the exact binary search:
  // build cost is O(n log n) either way and it keeps the learned path's
  // counters clean for health reporting.
  std::vector<std::pair<uint32_t, uint32_t>> span(size_);
  for (size_t i = 0; i < size_; ++i) {
    const double lo = bounds[i * stride];
    const double hi = bounds[i * stride + 1];
    const auto b0 = static_cast<uint32_t>(
        std::upper_bound(seps_.begin(), seps_.end(), lo) - seps_.begin());
    const auto b1 = static_cast<uint32_t>(
        std::upper_bound(seps_.begin(), seps_.end(), hi) - seps_.begin());
    span[i] = {b0, b1};
    for (uint32_t b = b0; b <= b1; ++b) ++bucket_offsets_[b + 1];
  }
  for (size_t b = 1; b <= buckets; ++b) {
    bucket_offsets_[b] += bucket_offsets_[b - 1];
  }
  const size_t registrations = bucket_offsets_[buckets];
  bucket_bounds_.resize(registrations * stride);
  bucket_subs_.resize(registrations);
  std::vector<uint32_t> cursor(bucket_offsets_.begin(),
                               bucket_offsets_.end() - 1);
  for (size_t i = 0; i < size_; ++i) {
    const auto box = bounds.begin() + static_cast<long>(i * stride);
    for (uint32_t b = span[i].first; b <= span[i].second; ++b) {
      const uint32_t k = cursor[b]++;
      std::copy(box, box + static_cast<long>(stride),
                bucket_bounds_.begin() + static_cast<long>(k * stride));
      bucket_subs_[k] = subscribers[i];
    }
  }
}

size_t SplineIndex::Rank(double x) const {
  if (seps_.empty()) return 0;
  if (x < seps_.front()) return 0;
  if (x >= seps_.back()) return seps_.size();
  if (spline_.size() < 2) {
    return static_cast<size_t>(
        std::upper_bound(seps_.begin(), seps_.end(), x) - seps_.begin());
  }
  ++lookups_;
  // Locate the spline segment (radix hint narrows the knot range), then
  // interpolate a predicted boundary position.
  size_t seg_lo = 0;
  size_t seg_hi = spline_.size();
  if (!radix_.empty()) {
    const uint64_t p = PrefixOf(x);
    seg_lo = radix_[p];
    seg_hi = std::min<size_t>(radix_[p + 1] + 1, spline_.size());
  }
  const auto seg_it = std::upper_bound(
      spline_.begin() + static_cast<long>(seg_lo),
      spline_.begin() + static_cast<long>(seg_hi), x,
      [](double v, const Knot& k) { return v < k.x; });
  const size_t seg = static_cast<size_t>(seg_it - spline_.begin()) - 1;
  const Knot& a = spline_[seg];
  const Knot& b = spline_[std::min(seg + 1, spline_.size() - 1)];
  double pred = a.y;
  if (b.x > a.x) pred += (x - a.x) / (b.x - a.x) * (b.y - a.y);
  // Correct within the certified window. The corridor bounds the fit
  // error at the boundaries to kMaxError, and interpolation between two
  // boundaries adds at most one rank — so the window is +/-(kMaxError+1).
  // The result is certified against the neighbors; an uncertifiable
  // window (floating-point edge) falls back to the full search.
  const double w = static_cast<double>(kMaxError + 1);
  const auto lo = static_cast<size_t>(
      std::clamp(pred - w, 0.0, static_cast<double>(seps_.size())));
  const auto hi = static_cast<size_t>(
      std::clamp(pred + w + 1.0, 0.0, static_cast<double>(seps_.size())));
  const auto r = static_cast<size_t>(
      std::upper_bound(seps_.begin() + static_cast<long>(lo),
                       seps_.begin() + static_cast<long>(hi), x) -
      seps_.begin());
  const bool lo_ok = r > lo || lo == 0 || seps_[lo - 1] <= x;
  const bool hi_ok = r < hi || hi == seps_.size() || seps_[hi] > x;
  if (lo_ok && hi_ok) return r;
  ++fallbacks_;
  return static_cast<size_t>(
      std::upper_bound(seps_.begin(), seps_.end(), x) - seps_.begin());
}

void SplineIndex::Match(const double* point, std::vector<int64_t>* out) const {
  if (size_ == 0) return;
  const size_t b = Rank(point[0]);
  // Locals, not members: `out` may alias them as far as the compiler knows.
  const size_t dims = dims_;
  const size_t end = bucket_offsets_[b + 1];
  const double* bounds = bucket_bounds_.data() + bucket_offsets_[b] * 2 * dims;
  for (size_t k = bucket_offsets_[b]; k < end; ++k, bounds += 2 * dims) {
    if (BoundsContain(bounds, point, dims)) out->push_back(bucket_subs_[k]);
  }
}

void SplineIndex::MatchOverlap(const Box& query,
                               std::vector<int64_t>* out) const {
  if (size_ == 0 || BoxEmpty(query)) return;
  DSPS_CHECK(query.size() == dims_);
  const size_t stride = 2 * dims_;
  // Buckets are contiguous in registration order, so the scanned range is
  // one run from the first bucket's start to the last bucket's end.
  const size_t k0 = bucket_offsets_[Rank(query[0].lo)];
  const size_t k1 = bucket_offsets_[Rank(query[0].hi) + 1];
  const double* bounds = bucket_bounds_.data() + k0 * stride;
  for (size_t k = k0; k < k1; ++k, bounds += stride) {
    if (BoundsOverlap(bounds, query)) out->push_back(bucket_subs_[k]);
  }
}

size_t SplineIndex::mem_bytes() const {
  return seps_.size() * sizeof(double) + spline_.size() * sizeof(Knot) +
         radix_.size() * sizeof(uint32_t) +
         bucket_offsets_.size() * sizeof(uint32_t) +
         bucket_bounds_.size() * sizeof(double) +
         bucket_subs_.size() * sizeof(int64_t);
}

}  // namespace dsps::interest
