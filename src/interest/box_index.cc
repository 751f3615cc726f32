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

BoxIndex::BoxIndex(size_t dims) : dims_(dims) {
  DSPS_CHECK_MSG(dims >= 1, "boxes must have >= 1 dimension");
}

void BoxIndex::Insert(int64_t subscriber, const Box& box) {
  DSPS_CHECK(box.size() == dims_);
  if (BoxEmpty(box)) return;
  boxes_of_[subscriber].push_back(box);
  ++total_boxes_;
  DropScan();
  // Before the first build, boxes_of_ alone feeds the (lazy) build and
  // the linear fallback; a pending overlay would only duplicate it.
  if (spline_ != nullptr) {
    pending_.push_back(SplineIndex::Entry{subscriber, box});
  }
}

void BoxIndex::Remove(int64_t subscriber) {
  auto it = boxes_of_.find(subscriber);
  if (it == boxes_of_.end()) return;
  DropScan();
  if (spline_ != nullptr) {
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [subscriber](const SplineIndex::Entry& e) {
                                    return e.subscriber == subscriber;
                                  }),
                   pending_.end());
    erased_.insert(subscriber);
  }
  total_boxes_ -= it->second.size();
  boxes_of_.erase(it);
}

void BoxIndex::BuildScan() const {
  scan_bounds_.clear();
  scan_subs_.clear();
  for (const auto& [sub, boxes] : boxes_of_) {
    for (const Box& box : boxes) {
      scan_subs_.push_back(sub);
      for (const Interval& iv : box) {
        scan_bounds_.push_back(iv.lo);
        scan_bounds_.push_back(iv.hi);
      }
    }
  }
  scan_valid_ = true;
}

void BoxIndex::MaybeRebuildSpline() const {
  if (spline_ == nullptr) {
    if (total_boxes_ >= kSplineBuildMin) RebuildSpline();
    return;
  }
  if (pending_.size() * 4 > spline_->size() ||
      erased_.size() * 4 > spline_->size()) {
    RebuildSpline();
  }
}

void BoxIndex::RebuildSpline() const {
  pending_.clear();
  pending_.shrink_to_fit();
  erased_.clear();
  if (total_boxes_ < kSplineBuildMin) {
    spline_.reset();  // back to the linear fallback
    return;
  }
  // Collect subscribers in ascending order: the hash map's iteration
  // order must never reach a data structure a lookup could observe.
  std::vector<int64_t> subs;
  subs.reserve(boxes_of_.size());
  for (const auto& kv : boxes_of_) subs.push_back(kv.first);
  std::sort(subs.begin(), subs.end());
  std::vector<SplineIndex::Entry> entries;
  entries.reserve(total_boxes_);
  for (int64_t sub : subs) {
    for (const Box& box : boxes_of_.at(sub)) {
      entries.push_back(SplineIndex::Entry{sub, box});
    }
  }
  const auto start = std::chrono::steady_clock::now();
  spline_ = std::make_unique<SplineIndex>(std::move(entries));
  build_us_ += std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  ++rebuilds_;
}

void BoxIndex::Match(const double* point, std::vector<int64_t>* out) const {
  ++lookups_;
  size_t before = out->size();
  MaybeRebuildSpline();
  if (spline_ == nullptr) {
    // Linear fallback below the build threshold.
    if (!scan_valid_) BuildScan();
    const double* b = scan_bounds_.data();
    for (size_t r = 0; r < scan_subs_.size(); ++r, b += 2 * dims_) {
      bool in = true;
      for (size_t d = 0; d < dims_ && in; ++d) {
        in = point[d] >= b[2 * d] && point[d] <= b[2 * d + 1];
      }
      if (in) out->push_back(scan_subs_[r]);
    }
  } else if (pending_.empty() && erased_.empty()) {
    spline_->Match(point, out);
  } else {
    spline_scratch_.clear();
    spline_->Match(point, &spline_scratch_);
    for (int64_t sub : spline_scratch_) {
      if (erased_.count(sub) == 0) out->push_back(sub);
    }
    for (const SplineIndex::Entry& e : pending_) {
      if (BoxContains(e.box, point)) out->push_back(e.subscriber);
    }
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
  auto overlaps_all = [&query](const Box& box) {
    for (size_t d = 0; d < query.size(); ++d) {
      if (!box[d].Overlaps(query[d])) return false;
    }
    return true;
  };
  MaybeRebuildSpline();
  if (spline_ == nullptr) {
    for (const auto& [sub, boxes] : boxes_of_) {
      for (const Box& box : boxes) {
        if (overlaps_all(box)) out->push_back(sub);
      }
    }
  } else if (pending_.empty() && erased_.empty()) {
    spline_->MatchOverlap(query, out);
  } else {
    spline_scratch_.clear();
    spline_->MatchOverlap(query, &spline_scratch_);
    for (int64_t sub : spline_scratch_) {
      if (erased_.count(sub) == 0) out->push_back(sub);
    }
    for (const SplineIndex::Entry& e : pending_) {
      if (overlaps_all(e.box)) out->push_back(e.subscriber);
    }
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
  const auto dims = static_cast<int64_t>(dims_);
  int64_t mem = 0;
  for (const auto& [sub, boxes] : boxes_of_) {
    mem += static_cast<int64_t>(sizeof(sub) + sizeof(boxes)) +
           static_cast<int64_t>(boxes.size()) *
               (static_cast<int64_t>(sizeof(Box)) +
                dims * static_cast<int64_t>(sizeof(Interval)));
  }
  if (spline_ != nullptr) {
    stats->spline_lookups += static_cast<int64_t>(spline_->lookups());
    stats->spline_fallbacks +=
        static_cast<int64_t>(spline_->fallback_lookups());
    stats->spline_knots += static_cast<int64_t>(spline_->knot_count());
    stats->spline_buckets += static_cast<int64_t>(spline_->bucket_count());
    stats->spline_max_error = std::max<int64_t>(stats->spline_max_error,
                                                SplineIndex::kMaxError);
    mem += static_cast<int64_t>(spline_->mem_bytes());
  }
  mem += static_cast<int64_t>(pending_.size()) *
         (static_cast<int64_t>(sizeof(SplineIndex::Entry)) +
          dims * static_cast<int64_t>(sizeof(Interval)));
  mem += static_cast<int64_t>(erased_.size()) *
         static_cast<int64_t>(sizeof(int64_t));
  mem += static_cast<int64_t>(scan_subs_.size() * sizeof(int64_t) +
                              scan_bounds_.size() * sizeof(double));
  stats->mem_bytes += mem;
}

}  // namespace dsps::interest
