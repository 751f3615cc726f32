#ifndef DSPS_INTEREST_SPLINE_INDEX_H_
#define DSPS_INTEREST_SPLINE_INDEX_H_

#include <cstdint>
#include <vector>

#include "interest/interval.h"

namespace dsps::interest {

/// Learned-spline interval index over the leading dimension of subscriber
/// boxes (TrieSpline/RadixSpline style, adapted from point keys to
/// intervals).
///
/// The structure is an equal-depth bucket array whose boundaries are
/// quantiles of the empirical CDF of the leading-dimension interval
/// endpoints. Each box registers with the contiguous bucket range its
/// leading interval spans; a point lookup locates the single bucket whose
/// boundary rank equals the point's rank in the endpoint CDF and tests
/// only the boxes registered there. Locating the bucket is the learned
/// part: a greedy bounded-error spline is fit over the boundary values, a
/// radix table narrows the spline segment, and the prediction is corrected
/// within a +/-(kMaxError + 1) window. A correction that cannot be
/// certified inside the window falls back to a full binary search and is
/// counted — the fallback rate is the index's self-reported health signal.
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
/// blow up memory.
class SplineIndex {
 public:
  /// Spline corridor half-width, in boundary-rank units. Larger values
  /// mean fewer knots (less memory) but a wider correction window.
  static constexpr int kMaxError = 16;
  /// Aim for about this many boxes per bucket.
  static constexpr size_t kTargetBucketBoxes = 8;
  /// Radix table resolution (2^bits slots); the table is skipped for
  /// small splines or degenerate key spans.
  static constexpr int kRadixBits = 10;
  /// The spline's promised fallback rate: lookups that escape the
  /// bounded correction window, as a fraction of all spline-path
  /// lookups. dsps_doctor flags the index unhealthy above this.
  static constexpr double kDeclaredFallbackBound = 0.01;

  /// Builds the index over `subscribers.size()` boxes of `dims` (>= 1)
  /// dimensions, box i's bounds at bounds[2 * dims * i ..] in the flat
  /// layout of AppendBounds. Every box must be non-empty. Each bucket keeps
  /// its boxes in input order; callers that need deterministic iteration
  /// must pre-sort.
  SplineIndex(size_t dims, const std::vector<double>& bounds,
              const std::vector<int64_t>& subscribers);

  /// Appends the subscriber of every box containing `point`. Raw
  /// candidates: no deduplication or ordering — the caller owns the final
  /// sort+unique (`BoxIndex` already does this).
  void Match(const double* point, std::vector<int64_t>* out) const;

  /// Appends the subscriber of every box overlapping `query` in all
  /// dimensions. Raw candidates, possibly duplicated across the scanned
  /// bucket range; caller dedupes.
  void MatchOverlap(const Box& query, std::vector<int64_t>* out) const;

  /// Indexed boxes.
  size_t size() const { return size_; }
  size_t bucket_count() const { return bucket_offsets_.size() - 1; }
  size_t knot_count() const { return spline_.size(); }
  double declared_fallback_bound() const { return kDeclaredFallbackBound; }
  /// Spline-path bucket locations performed so far / how many escaped the
  /// bounded correction window into a full binary search.
  uint64_t lookups() const { return lookups_; }
  uint64_t fallback_lookups() const { return fallbacks_; }
  /// Deterministic structure size (computed from element counts, not
  /// container capacities, so it is stable across allocators and runs).
  size_t mem_bytes() const;

 private:
  struct Knot {
    double x;
    double y;
  };

  /// Number of separators <= x, i.e. the bucket index of x. Exact.
  size_t Rank(double x) const;
  uint64_t PrefixOf(double x) const;
  void BuildSeparators(const std::vector<double>& bounds);
  void BuildSpline();
  void BuildRadix();
  void BuildBuckets(const std::vector<double>& bounds,
                    const std::vector<int64_t>& subscribers);

  size_t dims_;
  size_t size_;
  /// Sorted distinct bucket boundaries; bucket b holds keys x with
  /// rank(x) == b, where rank counts separators <= x. Buckets number
  /// seps_.size() + 1.
  std::vector<double> seps_;
  std::vector<Knot> spline_;
  std::vector<uint32_t> radix_;
  double radix_min_ = 0.0;
  double radix_scale_ = 0.0;
  /// CSR bucket storage: bucket b holds registrations
  /// [bucket_offsets_[b], bucket_offsets_[b + 1]). Registration k is a box
  /// registered with its bucket: its flat bounds at
  /// bucket_bounds_[2 * dims_ * k ..] and its subscriber at
  /// bucket_subs_[k]. A box spanning several buckets is copied into each,
  /// so a stab reads one contiguous run.
  std::vector<uint32_t> bucket_offsets_;
  std::vector<double> bucket_bounds_;
  std::vector<int64_t> bucket_subs_;
  mutable uint64_t lookups_ = 0;
  mutable uint64_t fallbacks_ = 0;
};

}  // namespace dsps::interest

#endif  // DSPS_INTEREST_SPLINE_INDEX_H_
