#include "interest/box_index.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace dsps::interest {

void IndexStats::MergeFrom(const IndexStats& other) {
  indexes += other.indexes;
  boxes += other.boxes;
  mem_bytes += other.mem_bytes;
  lookups += other.lookups;
  rebuilds += other.rebuilds;
  buckets += other.buckets;
  build_us += other.build_us;
}

void AddBucketStats(const BucketIndex& buckets, IndexStats* stats) {
  stats->buckets += static_cast<int64_t>(buckets.bucket_count());
  stats->mem_bytes += static_cast<int64_t>(buckets.mem_bytes());
}

BoxIndex::BoxIndex(size_t dims) : dims_(dims) {
  DSPS_CHECK_MSG(dims >= 1, "boxes must have >= 1 dimension");
}

void BoxIndex::Insert(int64_t subscriber, const Box& box) {
  DSPS_CHECK(box.size() == dims_);
  if (BoxEmpty(box)) return;
  std::vector<double>& bounds = bounds_of_[subscriber];
  bounds.reserve(bounds.size() + 2 * dims_);
  AppendBounds(box, &bounds);
  ++total_boxes_;
  if (buckets_) {
    AppendBounds(box, &overlay_bounds_);
    overlay_subs_.push_back(subscriber);
  }
}

void BoxIndex::Remove(int64_t subscriber) {
  auto it = bounds_of_.find(subscriber);
  if (it == bounds_of_.end()) return;
  if (buckets_) {
    const size_t stride = 2 * dims_;
    size_t kept = 0;
    for (size_t r = 0; r < overlay_subs_.size(); ++r) {
      if (overlay_subs_[r] == subscriber) continue;
      if (kept != r) {
        overlay_subs_[kept] = overlay_subs_[r];
        std::copy_n(overlay_bounds_.begin() + static_cast<long>(r * stride),
                    stride,
                    overlay_bounds_.begin() + static_cast<long>(kept * stride));
      }
      ++kept;
    }
    overlay_subs_.resize(kept);
    overlay_bounds_.resize(kept * stride);
    erased_.insert(subscriber);
  }
  total_boxes_ -= it->second.size() / (2 * dims_);
  bounds_of_.erase(it);
}

void BoxIndex::MaybeRebuildBuckets() const {
  if (!buckets_ || overlay_subs_.size() * 4 > buckets_->size() ||
      erased_.size() * 4 > buckets_->size()) {
    RebuildBuckets();
  }
}

void BoxIndex::RebuildBuckets() const {
  erased_.clear();
  overlay_bounds_.clear();
  overlay_bounds_.shrink_to_fit();
  overlay_subs_.clear();
  overlay_subs_.shrink_to_fit();
  // Collect subscribers in ascending order: the hash map's iteration
  // order must never reach a data structure a lookup could observe.
  std::vector<std::pair<int64_t, const std::vector<double>*>> subs;
  subs.reserve(bounds_of_.size());
  for (const auto& [sub, own] : bounds_of_) subs.emplace_back(sub, &own);
  std::sort(subs.begin(), subs.end());
  std::vector<double> bounds;
  std::vector<int64_t> box_subs;
  bounds.reserve(total_boxes_ * 2 * dims_);
  box_subs.reserve(total_boxes_);
  for (const auto& [sub, own] : subs) {
    bounds.insert(bounds.end(), own->begin(), own->end());
    box_subs.insert(box_subs.end(), own->size() / (2 * dims_), sub);
  }
  const auto start = std::chrono::steady_clock::now();
  buckets_.emplace(dims_, std::move(bounds), std::move(box_subs));
  build_us_ += std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  ++rebuilds_;
}

void BoxIndex::Match(const double* point, std::vector<int64_t>* out) const {
  ++lookups_;
  size_t before = out->size();
  MaybeRebuildBuckets();
  if (erased_.empty()) {
    buckets_->Match(point, out);
  } else {
    bucket_scratch_.clear();
    buckets_->Match(point, &bucket_scratch_);
    for (int64_t sub : bucket_scratch_) {
      if (erased_.count(sub) == 0) out->push_back(sub);
    }
  }
  const size_t stride = 2 * dims_;
  const double* b = overlay_bounds_.data();
  for (size_t r = 0; r < overlay_subs_.size(); ++r, b += stride) {
    if (BoundsContain(b, point, dims_)) out->push_back(overlay_subs_[r]);
  }
  // Dedupe (a subscriber may have several boxes matching the point).
  std::sort(out->begin() + static_cast<long>(before), out->end());
  out->erase(std::unique(out->begin() + static_cast<long>(before), out->end()),
             out->end());
}

void BoxIndex::MatchOverlap(const Box& query, std::vector<int64_t>* out) const {
  DSPS_CHECK(query.size() == dims_);
  if (BoxEmpty(query)) return;
  ++lookups_;
  size_t before = out->size();
  MaybeRebuildBuckets();
  if (erased_.empty()) {
    buckets_->MatchOverlap(query, out);
  } else {
    bucket_scratch_.clear();
    buckets_->MatchOverlap(query, &bucket_scratch_);
    for (int64_t sub : bucket_scratch_) {
      if (erased_.count(sub) == 0) out->push_back(sub);
    }
  }
  const size_t stride = 2 * dims_;
  const double* b = overlay_bounds_.data();
  for (size_t r = 0; r < overlay_subs_.size(); ++r, b += stride) {
    if (BoundsOverlap(b, query)) out->push_back(overlay_subs_[r]);
  }
  // Dedupe (a box may register in several scanned buckets, and a
  // subscriber may hold several overlapping boxes).
  std::sort(out->begin() + static_cast<long>(before), out->end());
  out->erase(std::unique(out->begin() + static_cast<long>(before), out->end()),
             out->end());
}

void BoxIndex::AddStatsTo(IndexStats* stats) const {
  ++stats->indexes;
  stats->boxes += static_cast<int64_t>(total_boxes_);
  stats->lookups += lookups_;
  stats->rebuilds += rebuilds_;
  stats->build_us += build_us_;
  // Structure size from element counts, not capacities: deterministic
  // across runs so bench baselines can pin it exactly.
  int64_t mem = 0;
  for (const auto& [sub, bounds] : bounds_of_) {
    mem += static_cast<int64_t>(sizeof(sub) + sizeof(bounds) +
                                bounds.size() * sizeof(double));
  }
  if (buckets_) AddBucketStats(*buckets_, stats);
  mem += static_cast<int64_t>(erased_.size()) *
         static_cast<int64_t>(sizeof(int64_t));
  mem += static_cast<int64_t>(overlay_subs_.size() * sizeof(int64_t) +
                              overlay_bounds_.size() * sizeof(double));
  stats->mem_bytes += mem;
}

}  // namespace dsps::interest
