#include "interest/interest.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace dsps::interest {

void InterestSet::Add(common::StreamId stream, Box box) {
  if (BoxEmpty(box)) return;
  boxes_[stream].push_back(std::move(box));
}

void InterestSet::MergeFrom(const InterestSet& other) {
  for (const auto& [stream, boxes] : other.boxes_) {
    auto& mine = boxes_[stream];
    mine.insert(mine.end(), boxes.begin(), boxes.end());
  }
}

namespace {

/// Three-way sweep order of non-empty boxes: per dimension lo ascending,
/// then hi descending; a box before any longer box it is a prefix of. A
/// box covering another sorts no later than it, and identical boxes tie.
int SweepCompare(const Box& a, const Box& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t d = 0; d < n; ++d) {
    if (a[d].lo != b[d].lo) return a[d].lo < b[d].lo ? -1 : 1;
    if (a[d].hi != b[d].hi) return a[d].hi > b[d].hi ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

/// The leading upper bound the survivors are kept sorted by; a box with
/// no dimensions is unbounded.
double LeadingHi(const Box& box) {
  return box.empty() ? std::numeric_limits<double>::infinity() : box[0].hi;
}

/// Keeps the stream's boxes whose flag is set, in order, without copying.
void CompactKept(const std::vector<uint8_t>& keep, std::vector<Box>* boxes) {
  size_t out = 0;
  for (size_t i = 0; i < boxes->size(); ++i) {
    if (!keep[i]) continue;
    if (out != i) (*boxes)[out] = std::move((*boxes)[i]);
    ++out;
  }
  boxes->resize(out);
}

}  // namespace

size_t SimplifyKeep(const std::vector<const Box*>& boxes,
                    std::vector<uint8_t>* keep) {
  // Reused across calls: the kernel runs once per ancestor per install.
  thread_local std::vector<uint32_t> order;
  thread_local std::vector<std::pair<double, uint32_t>> survivors;
  const size_t n = boxes.size();
  keep->assign(n, 0);
  order.clear();
  size_t first_empty = n;
  for (size_t i = 0; i < n; ++i) {
    if (!BoxEmpty(*boxes[i])) {
      order.push_back(static_cast<uint32_t>(i));
    } else if (first_empty == n) {
      first_empty = i;
    }
  }
  // Every box covers an empty box, and an empty box covers only empty
  // ones: empties survive only when all boxes are empty, and then only
  // the first.
  if (order.empty()) {
    if (first_empty == n) return 0;
    (*keep)[first_empty] = 1;
    return 1;
  }
  std::sort(order.begin(), order.end(), [&boxes](uint32_t i, uint32_t j) {
    const int c = SweepCompare(*boxes[i], *boxes[j]);
    return c != 0 ? c < 0 : i < j;
  });
  // Survivors so far as (leading hi, input index), hi descending. Each
  // sorted earlier, so each starts no later on the leading dimension than
  // the current box; only those ending no earlier can cover it.
  survivors.clear();
  size_t kept = 0;
  for (uint32_t i : order) {
    const Box& box = *boxes[i];
    const double hi = LeadingHi(box);
    auto it = survivors.begin();
    bool covered = false;
    for (; it != survivors.end() && it->first >= hi; ++it) {
      if (BoxCovers(*boxes[it->second], box)) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    // The scan stopped at the first survivor ending earlier.
    survivors.insert(it, {hi, i});
    (*keep)[i] = 1;
    ++kept;
  }
  return kept;
}

void InterestSet::MergeSimplifyFrom(const InterestSet& other,
                                    std::vector<common::StreamId>* changed) {
  std::vector<const Box*> merged;
  std::vector<uint8_t> keep;
  for (const auto& [stream, boxes] : other.boxes_) {
    auto& mine = boxes_[stream];
    merged.clear();
    for (const Box& b : mine) merged.push_back(&b);
    for (const Box& b : boxes) merged.push_back(&b);
    const size_t kept = SimplifyKeep(merged, &keep);
    // The merged list equals the old one exactly when every old box
    // survives and no new one does: a surviving new box would lengthen
    // it, and a dropped old box cannot be replaced by an identical new
    // one, which comes later and so is dropped too.
    const size_t old_size = mine.size();
    const bool same = kept == old_size &&
                      std::all_of(keep.begin(), keep.begin() + old_size,
                                  [](uint8_t k) { return k != 0; });
    if (same) continue;
    CompactKept(keep, &mine);
    mine.reserve(kept);  // exact, as a fresh copy would be
    for (size_t i = 0; i < boxes.size(); ++i) {
      if (keep[old_size + i]) mine.push_back(boxes[i]);
    }
    changed->push_back(stream);
  }
}

bool InterestSet::InterestedIn(common::StreamId stream) const {
  auto it = boxes_.find(stream);
  return it != boxes_.end() && !it->second.empty();
}

bool InterestSet::Matches(common::StreamId stream, const double* point) const {
  auto it = boxes_.find(stream);
  if (it == boxes_.end()) return false;
  for (const Box& box : it->second) {
    if (BoxContains(box, point)) return true;
  }
  return false;
}

const std::vector<Box>* InterestSet::boxes_for(common::StreamId stream) const {
  auto it = boxes_.find(stream);
  if (it == boxes_.end()) return nullptr;
  return &it->second;
}

std::vector<common::StreamId> InterestSet::streams() const {
  std::vector<common::StreamId> out;
  out.reserve(boxes_.size());
  for (const auto& [stream, boxes] : boxes_) {
    if (!boxes.empty()) out.push_back(stream);
  }
  return out;
}

common::StreamId InterestSet::leading_stream() const {
  for (const auto& [stream, boxes] : boxes_) {
    if (!boxes.empty()) return stream;
  }
  return common::kInvalidStream;
}

void InterestSet::Simplify() {
  std::vector<const Box*> ptrs;
  std::vector<uint8_t> keep;
  for (auto& [stream, boxes] : boxes_) {
    ptrs.clear();
    for (const Box& b : boxes) ptrs.push_back(&b);
    SimplifyKeep(ptrs, &keep);
    CompactKept(keep, &boxes);
  }
}

int64_t InterestSet::TotalBoxes() const {
  int64_t n = 0;
  for (const auto& [stream, boxes] : boxes_) {
    n += static_cast<int64_t>(boxes.size());
  }
  return n;
}

}  // namespace dsps::interest
