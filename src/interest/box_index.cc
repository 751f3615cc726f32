#include "interest/box_index.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string_view>

#include "common/check.h"

namespace dsps::interest {

namespace {

/// DSPS_INDEX pins every auto-strategy index process-wide; read once.
IndexStrategy EnvIndexStrategy() {
  static const IndexStrategy strategy = [] {
    const char* v = std::getenv("DSPS_INDEX");
    if (v == nullptr) return IndexStrategy::kAuto;
    const std::string_view sv(v);
    if (sv == "grid") return IndexStrategy::kGrid;
    if (sv == "spline") return IndexStrategy::kSpline;
    return IndexStrategy::kAuto;
  }();
  return strategy;
}

}  // namespace

void IndexStats::MergeFrom(const IndexStats& other) {
  indexes += other.indexes;
  grid_indexes += other.grid_indexes;
  spline_indexes += other.spline_indexes;
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

BoxIndex::BoxIndex(const Box& domain) : BoxIndex(domain, Config()) {}

BoxIndex::BoxIndex(const Box& domain, const Config& config)
    : domain_(domain), config_(config) {
  DSPS_CHECK(config.cells_per_dim >= 1);
  DSPS_CHECK(config.index_dims >= 1 && config.index_dims <= 2);
  DSPS_CHECK(config.spline_min_boxes >= 1);
  dims_indexed_ = std::min<int>(config.index_dims,
                                static_cast<int>(domain.size()));
  DSPS_CHECK_MSG(dims_indexed_ >= 1, "domain must have >= 1 dimension");
  resolved_ = config.strategy == IndexStrategy::kAuto ? EnvIndexStrategy()
                                                      : config.strategy;
  if (resolved_ == IndexStrategy::kSpline) {
    spline_mode_ = true;
    return;  // never allocates grid cells
  }
  size_t cells = 1;
  for (int d = 0; d < dims_indexed_; ++d) {
    cells *= static_cast<size_t>(config.cells_per_dim);
  }
  cells_.resize(cells);
}

int BoxIndex::CellOf(int dim, double v) const {
  const Interval& iv = domain_[dim];
  double len = iv.length();
  if (len <= 0) return 0;
  double frac = (v - iv.lo) / len;
  int cell = static_cast<int>(frac * config_.cells_per_dim);
  return std::clamp(cell, 0, config_.cells_per_dim - 1);
}

int BoxIndex::FlatIndex(const double* point) const {
  int idx = 0;
  for (int d = 0; d < dims_indexed_; ++d) {
    idx = idx * config_.cells_per_dim + CellOf(d, point[d]);
  }
  return idx;
}

void BoxIndex::Insert(int64_t subscriber, const Box& box) {
  DSPS_CHECK(box.size() == domain_.size());
  if (BoxEmpty(box)) return;
  boxes_of_[subscriber].push_back(box);
  ++total_boxes_;
  if (spline_mode_) {
    DropScan();
    // Before the first build, boxes_of_ alone feeds the (lazy) build and
    // the linear fallback; a pending overlay would only duplicate it.
    if (spline_ != nullptr) {
      pending_.push_back(SplineIndex::Entry{subscriber, box});
    }
    return;
  }
  InsertGrid(subscriber, box);
  if (resolved_ == IndexStrategy::kAuto &&
      total_boxes_ >= static_cast<size_t>(config_.spline_min_boxes)) {
    SwitchToSpline();
  }
}

void BoxIndex::InsertGrid(int64_t subscriber, const Box& box) {
  // Cell ranges per indexed dimension.
  int lo[2] = {0, 0}, hi[2] = {0, 0};
  for (int d = 0; d < dims_indexed_; ++d) {
    lo[d] = CellOf(d, box[d].lo);
    hi[d] = CellOf(d, box[d].hi);
  }
  if (dims_indexed_ == 1) {
    for (int x = lo[0]; x <= hi[0]; ++x) {
      cells_[x].push_back(Entry{subscriber, box});
    }
  } else {
    for (int x = lo[0]; x <= hi[0]; ++x) {
      for (int y = lo[1]; y <= hi[1]; ++y) {
        cells_[static_cast<size_t>(x) * config_.cells_per_dim + y].push_back(
            Entry{subscriber, box});
      }
    }
  }
}

void BoxIndex::SwitchToSpline() {
  spline_mode_ = true;
  cells_.clear();
  cells_.shrink_to_fit();
  // The spline itself is built lazily at the next lookup from boxes_of_.
  spline_.reset();
  pending_.clear();
  erased_.clear();
}

void BoxIndex::Remove(int64_t subscriber) {
  auto it = boxes_of_.find(subscriber);
  if (it == boxes_of_.end()) return;
  if (spline_mode_) {
    DropScan();
    if (spline_ != nullptr) {
      pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                    [subscriber](const SplineIndex::Entry& e) {
                                      return e.subscriber == subscriber;
                                    }),
                     pending_.end());
      erased_.insert(subscriber);
    }
  } else {
    // Revisit exactly the cells this subscriber's boxes registered in.
    std::vector<int> touched;
    for (const Box& box : it->second) {
      int lo[2] = {0, 0}, hi[2] = {0, 0};
      for (int d = 0; d < dims_indexed_; ++d) {
        lo[d] = CellOf(d, box[d].lo);
        hi[d] = CellOf(d, box[d].hi);
      }
      if (dims_indexed_ == 1) {
        for (int x = lo[0]; x <= hi[0]; ++x) touched.push_back(x);
      } else {
        for (int x = lo[0]; x <= hi[0]; ++x) {
          for (int y = lo[1]; y <= hi[1]; ++y) {
            touched.push_back(x * config_.cells_per_dim + y);
          }
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (int c : touched) {
      auto& cell = cells_[c];
      cell.erase(std::remove_if(cell.begin(), cell.end(),
                                [subscriber](const Entry& e) {
                                  return e.subscriber == subscriber;
                                }),
                 cell.end());
    }
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
  spline_ = std::make_unique<SplineIndex>(std::move(entries), config_.spline);
  build_us_ += std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  ++rebuilds_;
}

void BoxIndex::Match(const double* point, std::vector<int64_t>* out) const {
  ++lookups_;
  size_t before = out->size();
  if (spline_mode_) {
    MaybeRebuildSpline();
    if (spline_ == nullptr) {
      // Linear fallback below the build threshold.
      if (!scan_valid_) BuildScan();
      const size_t dims = domain_.size();
      const double* b = scan_bounds_.data();
      for (size_t r = 0; r < scan_subs_.size(); ++r, b += 2 * dims) {
        bool in = true;
        for (size_t d = 0; d < dims && in; ++d) {
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
  } else {
    const std::vector<Entry>& cell = cells_[FlatIndex(point)];
    for (const Entry& e : cell) {
      if (BoxContains(e.box, point)) out->push_back(e.subscriber);
    }
  }
  // Dedupe (a subscriber may have several boxes matching the point).
  std::sort(out->begin() + static_cast<long>(before), out->end());
  out->erase(std::unique(out->begin() + static_cast<long>(before), out->end()),
             out->end());
}

void BoxIndex::MatchOverlap(const Box& query, std::vector<int64_t>* out) const {
  DSPS_CHECK(query.size() == domain_.size());
  if (BoxEmpty(query)) return;
  ++lookups_;
  size_t before = out->size();
  auto overlaps_all = [&query](const Box& box) {
    for (size_t d = 0; d < query.size(); ++d) {
      if (!box[d].Overlaps(query[d])) return false;
    }
    return true;
  };
  if (spline_mode_) {
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
  } else {
    int lo[2] = {0, 0}, hi[2] = {0, 0};
    for (int d = 0; d < dims_indexed_; ++d) {
      lo[d] = CellOf(d, query[d].lo);
      hi[d] = CellOf(d, query[d].hi);
    }
    auto scan_cell = [&](const std::vector<Entry>& cell) {
      for (const Entry& e : cell) {
        if (overlaps_all(e.box)) out->push_back(e.subscriber);
      }
    };
    if (dims_indexed_ == 1) {
      for (int x = lo[0]; x <= hi[0]; ++x) scan_cell(cells_[x]);
    } else {
      for (int x = lo[0]; x <= hi[0]; ++x) {
        for (int y = lo[1]; y <= hi[1]; ++y) {
          scan_cell(cells_[static_cast<size_t>(x) * config_.cells_per_dim + y]);
        }
      }
    }
  }
  // Dedupe (a box may register in several scanned cells/buckets, and a
  // subscriber may hold several overlapping boxes).
  std::sort(out->begin() + static_cast<long>(before), out->end());
  out->erase(std::unique(out->begin() + static_cast<long>(before), out->end()),
             out->end());
}

void BoxIndex::AddStatsTo(IndexStats* stats) const {
  ++stats->indexes;
  stats->boxes += static_cast<int64_t>(total_boxes_);
  stats->lookups += lookups_;
  // Structure size from element counts, not capacities: deterministic
  // across runs so bench baselines can pin it exactly.
  const auto dims = static_cast<int64_t>(domain_.size());
  int64_t mem = 0;
  for (const auto& [sub, boxes] : boxes_of_) {
    mem += static_cast<int64_t>(sizeof(sub) + sizeof(boxes)) +
           static_cast<int64_t>(boxes.size()) *
               (static_cast<int64_t>(sizeof(Box)) +
                dims * static_cast<int64_t>(sizeof(Interval)));
  }
  if (spline_mode_) {
    ++stats->spline_indexes;
    stats->spline_rebuilds += rebuilds_;
    stats->build_us += build_us_;
    stats->declared_fallback_bound = std::max(
        stats->declared_fallback_bound, config_.spline.declared_fallback_bound);
    if (spline_ != nullptr) {
      stats->spline_lookups += static_cast<int64_t>(spline_->lookups());
      stats->spline_fallbacks +=
          static_cast<int64_t>(spline_->fallback_lookups());
      stats->spline_knots += static_cast<int64_t>(spline_->knot_count());
      stats->spline_buckets += static_cast<int64_t>(spline_->bucket_count());
      stats->spline_max_error =
          std::max(stats->spline_max_error,
                   static_cast<int64_t>(spline_->max_error()));
      mem += static_cast<int64_t>(spline_->mem_bytes());
    }
    mem += static_cast<int64_t>(pending_.size()) *
           (static_cast<int64_t>(sizeof(SplineIndex::Entry)) +
            dims * static_cast<int64_t>(sizeof(Interval)));
    mem += static_cast<int64_t>(erased_.size()) *
           static_cast<int64_t>(sizeof(int64_t));
    mem += static_cast<int64_t>(scan_subs_.size() * sizeof(int64_t) +
                                scan_bounds_.size() * sizeof(double));
  } else {
    ++stats->grid_indexes;
    for (const auto& cell : cells_) {
      mem += static_cast<int64_t>(cell.size()) *
             (static_cast<int64_t>(sizeof(Entry)) +
              dims * static_cast<int64_t>(sizeof(Interval)));
    }
  }
  stats->mem_bytes += mem;
}

}  // namespace dsps::interest
