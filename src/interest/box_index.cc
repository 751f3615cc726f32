#include "interest/box_index.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"

namespace dsps::interest {

void IndexStats::MergeFrom(const IndexStats& other) {
  indexes += other.indexes;
  boxes += other.boxes;
  mem_bytes += other.mem_bytes;
  lookups += other.lookups;
  spline_lookups += other.spline_lookups;
  spline_fallbacks += other.spline_fallbacks;
  spline_rebuilds += other.spline_rebuilds;
  spline_knots += other.spline_knots;
  spline_buckets += other.spline_buckets;
  spline_max_error = std::max(spline_max_error, other.spline_max_error);
  declared_fallback_bound =
      std::max(declared_fallback_bound, other.declared_fallback_bound);
  build_us += other.build_us;
}

void AddSplineStats(const SplineIndex& spline, IndexStats* stats) {
  stats->spline_lookups += static_cast<int64_t>(spline.lookups());
  stats->spline_fallbacks += static_cast<int64_t>(spline.fallback_lookups());
  stats->spline_knots += static_cast<int64_t>(spline.knot_count());
  stats->spline_buckets += static_cast<int64_t>(spline.bucket_count());
  stats->spline_max_error =
      std::max<int64_t>(stats->spline_max_error, SplineIndex::kMaxError);
  stats->declared_fallback_bound = std::max(
      stats->declared_fallback_bound, SplineIndex::kDeclaredFallbackBound);
  stats->mem_bytes += static_cast<int64_t>(spline.mem_bytes());
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
  if (flat_live_) {
    AppendBounds(box, &flat_bounds_);
    flat_subs_.push_back(subscriber);
  }
}

void BoxIndex::Remove(int64_t subscriber) {
  auto it = bounds_of_.find(subscriber);
  if (it == bounds_of_.end()) return;
  if (flat_live_) {
    const size_t stride = 2 * dims_;
    size_t kept = 0;
    for (size_t r = 0; r < flat_subs_.size(); ++r) {
      if (flat_subs_[r] == subscriber) continue;
      if (kept != r) {
        flat_subs_[kept] = flat_subs_[r];
        std::copy_n(flat_bounds_.begin() + static_cast<long>(r * stride),
                    stride,
                    flat_bounds_.begin() + static_cast<long>(kept * stride));
      }
      ++kept;
    }
    flat_subs_.resize(kept);
    flat_bounds_.resize(kept * stride);
  }
  if (spline_ != nullptr) erased_.insert(subscriber);
  total_boxes_ -= it->second.size() / (2 * dims_);
  bounds_of_.erase(it);
}

void BoxIndex::BuildFlat() const {
  flat_bounds_.clear();
  flat_subs_.clear();
  flat_bounds_.reserve(total_boxes_ * 2 * dims_);
  flat_subs_.reserve(total_boxes_);
  for (const auto& [sub, bounds] : bounds_of_) {
    flat_bounds_.insert(flat_bounds_.end(), bounds.begin(), bounds.end());
    flat_subs_.insert(flat_subs_.end(), bounds.size() / (2 * dims_), sub);
  }
  flat_live_ = true;
}

void BoxIndex::MaybeRebuildSpline() const {
  if (spline_ == nullptr) {
    if (total_boxes_ >= kSplineBuildMin) RebuildSpline();
    return;
  }
  if (flat_subs_.size() * 4 > spline_->size() ||
      erased_.size() * 4 > spline_->size()) {
    RebuildSpline();
  }
}

void BoxIndex::RebuildSpline() const {
  erased_.clear();
  flat_bounds_.clear();
  flat_bounds_.shrink_to_fit();
  flat_subs_.clear();
  flat_subs_.shrink_to_fit();
  if (total_boxes_ < kSplineBuildMin) {
    spline_.reset();  // back to the linear scan, copied at the next lookup
    flat_live_ = false;
    return;
  }
  // Collect subscribers in ascending order: the hash map's iteration
  // order must never reach a data structure a lookup could observe.
  std::vector<int64_t> subs;
  subs.reserve(bounds_of_.size());
  for (const auto& kv : bounds_of_) subs.push_back(kv.first);
  std::sort(subs.begin(), subs.end());
  std::vector<double> bounds;
  std::vector<int64_t> box_subs;
  bounds.reserve(total_boxes_ * 2 * dims_);
  box_subs.reserve(total_boxes_);
  for (int64_t sub : subs) {
    const std::vector<double>& own = bounds_of_.at(sub);
    bounds.insert(bounds.end(), own.begin(), own.end());
    box_subs.insert(box_subs.end(), own.size() / (2 * dims_), sub);
  }
  const auto start = std::chrono::steady_clock::now();
  spline_ = std::make_unique<SplineIndex>(dims_, bounds, box_subs);
  build_us_ += std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  ++rebuilds_;
  flat_live_ = true;  // the overlay now holds the (no) boxes inserted since
}

void BoxIndex::Match(const double* point, std::vector<int64_t>* out) const {
  ++lookups_;
  size_t before = out->size();
  MaybeRebuildSpline();
  if (spline_ == nullptr) {
    if (!flat_live_) BuildFlat();
  } else if (erased_.empty()) {
    spline_->Match(point, out);
  } else {
    spline_scratch_.clear();
    spline_->Match(point, &spline_scratch_);
    for (int64_t sub : spline_scratch_) {
      if (erased_.count(sub) == 0) out->push_back(sub);
    }
  }
  const size_t stride = 2 * dims_;
  const double* b = flat_bounds_.data();
  for (size_t r = 0; r < flat_subs_.size(); ++r, b += stride) {
    if (BoundsContain(b, point, dims_)) out->push_back(flat_subs_[r]);
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
  MaybeRebuildSpline();
  if (spline_ == nullptr) {
    if (!flat_live_) BuildFlat();
  } else if (erased_.empty()) {
    spline_->MatchOverlap(query, out);
  } else {
    spline_scratch_.clear();
    spline_->MatchOverlap(query, &spline_scratch_);
    for (int64_t sub : spline_scratch_) {
      if (erased_.count(sub) == 0) out->push_back(sub);
    }
  }
  const size_t stride = 2 * dims_;
  const double* b = flat_bounds_.data();
  for (size_t r = 0; r < flat_subs_.size(); ++r, b += stride) {
    if (BoundsOverlap(b, query)) out->push_back(flat_subs_[r]);
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
  stats->spline_rebuilds += rebuilds_;
  stats->build_us += build_us_;
  stats->declared_fallback_bound = std::max(
      stats->declared_fallback_bound, SplineIndex::kDeclaredFallbackBound);
  // Structure size from element counts, not capacities: deterministic
  // across runs so bench baselines can pin it exactly.
  int64_t mem = 0;
  for (const auto& [sub, bounds] : bounds_of_) {
    mem += static_cast<int64_t>(sizeof(sub) + sizeof(bounds) +
                                bounds.size() * sizeof(double));
  }
  if (spline_ != nullptr) AddSplineStats(*spline_, stats);
  mem += static_cast<int64_t>(erased_.size()) *
         static_cast<int64_t>(sizeof(int64_t));
  mem += static_cast<int64_t>(flat_subs_.size() * sizeof(int64_t) +
                              flat_bounds_.size() * sizeof(double));
  stats->mem_bytes += mem;
}

}  // namespace dsps::interest
