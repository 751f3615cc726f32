#include "interest/bucket_index.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace dsps::interest {

BucketIndex::BucketIndex(size_t dims, std::vector<double> bounds,
                         std::vector<int64_t> subscribers)
    : dims_(dims), size_(subscribers.size()) {
  DSPS_CHECK(dims_ >= 1);
  DSPS_CHECK(bounds.size() == 2 * dims_ * size_);
  DSPS_CHECK(size_ < std::numeric_limits<uint32_t>::max());
  if (size_ < kBucketBuildMin) {
    // One bucket: every box registers once, in input order, so the input
    // is the bucket (kept at its exact size: indexes live until rebuilt).
    bucket_bounds_ = std::move(bounds);
    bucket_bounds_.shrink_to_fit();
    bucket_subs_ = std::move(subscribers);
    bucket_subs_.shrink_to_fit();
    return;
  }
  BuildSeparators(bounds);
  BuildBuckets(bounds, subscribers);
  seps_.shrink_to_fit();
}

void BucketIndex::BuildSeparators(const std::vector<double>& bounds) {
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

void BucketIndex::BuildBuckets(const std::vector<double>& bounds,
                               const std::vector<int64_t>& subscribers) {
  const size_t buckets = seps_.size() + 1;
  const size_t stride = 2 * dims_;
  bucket_offsets_.assign(buckets + 1, 0);
  // Counting pass, then CSR fill.
  std::vector<std::pair<uint32_t, uint32_t>> span(size_);
  for (size_t i = 0; i < size_; ++i) {
    const double lo = bounds[i * stride];
    const double hi = bounds[i * stride + 1];
    const auto b0 = static_cast<uint32_t>(Rank(lo));
    const auto b1 = static_cast<uint32_t>(Rank(hi));
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

size_t BucketIndex::Rank(double x) const {
  return static_cast<size_t>(
      std::upper_bound(seps_.begin(), seps_.end(), x) - seps_.begin());
}

void BucketIndex::Match(const double* point, std::vector<int64_t>* out) const {
  // Locals, not members: `out` may alias them as far as the compiler knows.
  const Run run = Candidates(point);
  const size_t dims = dims_;
  const double* bounds = run.bounds;
  for (size_t k = 0; k < run.size; ++k, bounds += 2 * dims) {
    if (BoundsContain(bounds, point, dims)) out->push_back(run.subs[k]);
  }
}

void BucketIndex::MatchOverlap(const Box& query,
                               std::vector<int64_t>* out) const {
  if (size_ == 0 || BoxEmpty(query)) return;
  DSPS_CHECK(query.size() == dims_);
  const size_t stride = 2 * dims_;
  // Buckets are contiguous in registration order, so the scanned range is
  // one run from the first bucket's start to the last bucket's end; with
  // no separators, every registration.
  size_t k0 = 0;
  size_t k1 = bucket_subs_.size();
  if (!seps_.empty()) {
    k0 = bucket_offsets_[Rank(query[0].lo)];
    k1 = bucket_offsets_[Rank(query[0].hi) + 1];
  }
  const double* bounds = bucket_bounds_.data() + k0 * stride;
  for (size_t k = k0; k < k1; ++k, bounds += stride) {
    if (BoundsOverlap(bounds, query)) out->push_back(bucket_subs_[k]);
  }
}

size_t BucketIndex::mem_bytes() const {
  return seps_.size() * sizeof(double) +
         bucket_offsets_.size() * sizeof(uint32_t) +
         bucket_bounds_.size() * sizeof(double) +
         bucket_subs_.size() * sizeof(int64_t);
}

}  // namespace dsps::interest
