#ifndef DSPS_INTEREST_BUCKET_INDEX_H_
#define DSPS_INTEREST_BUCKET_INDEX_H_

#include <cstdint>
#include <vector>

#include "interest/interval.h"

namespace dsps::interest {

/// Equal-depth bucket index over the leading dimension of subscriber
/// boxes.
///
/// The bucket boundaries (separators) are quantiles of the empirical CDF
/// of the leading-dimension interval endpoints. Each box registers with
/// the contiguous bucket range its leading interval spans; a point lookup
/// finds the one bucket whose rank equals the point's rank among the
/// separators, by binary search, and tests only the boxes registered
/// there.
///
/// Each bucket stores its boxes' bounds contiguously (lo, hi per
/// dimension) next to their subscribers, so a stab walks one array and
/// tests each candidate with BoundsContain: one branch per box, none per
/// dimension. No Box is kept after construction.
///
/// The index is immutable once built; `BoxIndex` layers churn on top
/// (pending inserts, tombstones, periodic rebuild). Bucket boundaries
/// adapt to the data: a skewed subscriber population gets fine buckets
/// where boxes crowd and coarse buckets where they don't, and the bucket
/// count itself is capped by a registration budget so fat boxes cannot
/// blow up memory. Below kBucketBuildMin boxes there is one bucket, and
/// a stab returns every box in input order without searching: the same
/// structure serves every size, so no caller keeps a flat copy.
class BucketIndex {
 public:
  /// Aim for about this many boxes per bucket.
  static constexpr size_t kTargetBucketBoxes = 8;
  /// Fewer boxes than this get one bucket: a scan of all of them is as
  /// cheap as searching separators first.
  static constexpr size_t kBucketBuildMin = 32;

  /// Builds the index over `subscribers.size()` boxes of `dims` (>= 1)
  /// dimensions, box i's bounds at bounds[2 * dims * i ..] in the flat
  /// layout of AppendBounds. Every box must be non-empty. Each bucket keeps
  /// its boxes in input order; callers that need deterministic iteration
  /// must pre-sort.
  BucketIndex(size_t dims, std::vector<double> bounds,
              std::vector<int64_t> subscribers);

  /// The registrations in the one bucket a stab at `point` reads: box k's
  /// bounds at bounds[2 * dims * k ..] and its subscriber at subs[k], for
  /// k < size. They keep input order, so boxes given consecutively for one
  /// subscriber stay consecutive here.
  struct Run {
    const double* bounds = nullptr;
    const int64_t* subs = nullptr;
    size_t size = 0;
  };
  Run Candidates(const double* point) const {
    // No separators: one bucket, the whole input, found without a search.
    // Inline, with only the search out of line, so a caller keeps the run
    // in registers.
    if (seps_.empty()) {
      return Run{bucket_bounds_.data(), bucket_subs_.data(),
                 bucket_subs_.size()};
    }
    const size_t b = Rank(point[0]);
    const size_t k = bucket_offsets_[b];
    return Run{bucket_bounds_.data() + k * 2 * dims_, bucket_subs_.data() + k,
               bucket_offsets_[b + 1] - k};
  }

  /// Appends the subscriber of every box containing `point`. Raw
  /// candidates: no deduplication or ordering — the caller owns the final
  /// sort+unique (`BoxIndex` already does this).
  void Match(const double* point, std::vector<int64_t>* out) const;

  /// Appends the subscriber of every box overlapping `query` in all
  /// dimensions. Raw candidates, possibly duplicated across the scanned
  /// bucket range; caller dedupes.
  void MatchOverlap(const Box& query, std::vector<int64_t>* out) const;

  /// Dimensionality of every indexed box.
  size_t dims() const { return dims_; }
  /// Indexed boxes.
  size_t size() const { return size_; }
  size_t bucket_count() const { return seps_.size() + 1; }
  /// Deterministic structure size (computed from element counts, not
  /// container capacities, so it is stable across allocators and runs).
  size_t mem_bytes() const;

 private:
  /// Number of separators <= x, i.e. the bucket index of x.
  size_t Rank(double x) const;
  void BuildSeparators(const std::vector<double>& bounds);
  void BuildBuckets(const std::vector<double>& bounds,
                    const std::vector<int64_t>& subscribers);

  // What a one-bucket stab reads comes first.
  size_t dims_;
  /// Sorted distinct bucket boundaries; bucket b holds keys x with
  /// rank(x) == b, where rank counts separators <= x. Buckets number
  /// seps_.size() + 1.
  std::vector<double> seps_;
  /// CSR bucket storage: bucket b holds registrations
  /// [bucket_offsets_[b], bucket_offsets_[b + 1]). Registration k is a box
  /// registered with its bucket: its flat bounds at
  /// bucket_bounds_[2 * dims_ * k ..] and its subscriber at
  /// bucket_subs_[k]. A box spanning several buckets is copied into each,
  /// so a stab reads one contiguous run. Below kBucketBuildMin boxes the
  /// one bucket is the input itself and has no offsets.
  std::vector<double> bucket_bounds_;
  std::vector<int64_t> bucket_subs_;
  std::vector<uint32_t> bucket_offsets_;
  size_t size_;
};

}  // namespace dsps::interest

#endif  // DSPS_INTEREST_BUCKET_INDEX_H_
