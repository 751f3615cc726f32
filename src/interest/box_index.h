#ifndef DSPS_INTEREST_BOX_INDEX_H_
#define DSPS_INTEREST_BOX_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "interest/interval.h"
#include "interest/bucket_index.h"

namespace dsps::interest {

/// Aggregated health/size statistics across one or more box indexes;
/// exported to bench JSON and surfaced by dsps_doctor.
struct IndexStats {
  int64_t indexes = 0;
  int64_t boxes = 0;
  int64_t mem_bytes = 0;
  /// Match/MatchOverlap calls, linear scans included.
  int64_t lookups = 0;
  /// Bucket index (re)builds and the buckets of the built ones (the
  /// exported names predate BucketIndex).
  int64_t spline_rebuilds = 0;
  int64_t spline_buckets = 0;
  /// Total bucket index (re)build time.
  double build_us = 0.0;

  void MergeFrom(const IndexStats& other);
  /// Share of lookups that left the bucket search for a slower path:
  /// always 0, since the binary search over the separators is exact.
  double FallbackRate() const { return 0.0; }
};

/// Adds one built bucket index's bucket count and structure size to
/// `stats`. Its owner adds the index itself: index, box and lookup
/// counts, rebuilds and build time.
void AddBucketStats(const BucketIndex& buckets, IndexStats* stats);

/// Point-stabbing index over subscriber boxes: given a tuple's numeric
/// values, returns every subscriber with a box containing them.
///
/// A stream delegate fans each tuple out to the queries bound to the
/// stream; with thousands of co-located queries the naive per-tuple scan
/// is the hot loop. The index is a BucketIndex, which buckets boxes by
/// the empirical CDF of their leading-dimension endpoints. Inserts land
/// in a pending overlay and removals in a tombstone set; the immutable
/// buckets are rebuilt lazily when either overlay grows past a quarter
/// of the built size. Below kBucketBuildMin boxes no buckets are built
/// at all and lookups scan a flat copy of the boxes' bounds. Every scan,
/// in the buckets or in the flat overlay, tests a box with
/// BoundsContain / BoundsOverlap.
class BoxIndex {
 public:
  /// Indexes smaller than this use a plain linear scan.
  static constexpr size_t kBucketBuildMin = 32;

  /// `dims` is the dimensionality of every box and probe (>= 1).
  explicit BoxIndex(size_t dims);

  /// Registers one box for `subscriber` (a subscriber may hold several).
  void Insert(int64_t subscriber, const Box& box);

  /// Unregisters all of `subscriber`'s boxes. Tombstones the subscriber
  /// against built buckets, never walking the whole structure.
  void Remove(int64_t subscriber);

  /// Appends (deduplicated, ascending) every subscriber with a box
  /// containing `point`. `point` must have at least `dims` coordinates.
  void Match(const double* point, std::vector<int64_t>* out) const;

  /// Appends (deduplicated, ascending) every subscriber with a box
  /// overlapping `query` in every dimension. `query` must have `dims`
  /// dimensions. Used for box-to-box pruning (e.g. finding the queries
  /// whose interest genuinely overlaps a new query's) rather than
  /// per-tuple point stabbing.
  void MatchOverlap(const Box& query, std::vector<int64_t>* out) const;

  /// Registered (subscriber, box) pairs.
  size_t size() const { return total_boxes_; }
  size_t subscriber_count() const { return bounds_of_.size(); }

  /// Accumulates this index's statistics into `stats`.
  void AddStatsTo(IndexStats* stats) const;

 private:
  /// Lazily (re)builds the buckets at lookup time; const because lookups
  /// are, with the overlay state mutable (same pattern as the lazy match
  /// tables in dissemination/tree.h).
  void MaybeRebuildBuckets() const;
  void RebuildBuckets() const;
  /// Fills the flat overlay with every box (used while no buckets exist).
  void BuildFlat() const;

  size_t dims_;
  /// Ground truth for rebuilds and Remove: each subscriber's boxes as flat
  /// bounds (AppendBounds layout), box after box.
  std::unordered_map<int64_t, std::vector<double>> bounds_of_;
  size_t total_boxes_ = 0;
  /// The immutable built buckets. erased_ tombstones subscribers removed
  /// since their build (filtering built candidates only — re-inserted
  /// subscribers live in the flat overlay and bypass it).
  mutable std::unique_ptr<BucketIndex> buckets_;
  mutable std::unordered_set<int64_t> erased_;
  mutable std::vector<int64_t> bucket_scratch_;
  /// The boxes a lookup scans besides the buckets, as flat bounds
  /// (AppendBounds layout) and their subscribers: with buckets, the boxes
  /// inserted since its build; without one, every box, copied at the first
  /// lookup so an index nobody queries keeps no copy. While flat_live_,
  /// Insert and Remove keep the overlay in step.
  mutable std::vector<double> flat_bounds_;
  mutable std::vector<int64_t> flat_subs_;
  mutable bool flat_live_ = false;
  mutable int64_t rebuilds_ = 0;
  mutable double build_us_ = 0.0;
  mutable int64_t lookups_ = 0;
};

}  // namespace dsps::interest

#endif  // DSPS_INTEREST_BOX_INDEX_H_
