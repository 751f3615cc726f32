#ifndef DSPS_TESTS_SIMPLIFY_REFERENCE_H_
#define DSPS_TESTS_SIMPLIFY_REFERENCE_H_

#include <utility>
#include <vector>

#include "interest/interval.h"

namespace dsps::interest::reference {

/// The original pairwise O(m^2) simplification, kept as the independent
/// oracle for SimplifyKeep and for everything built on it: box i is
/// dropped if some other box covers it, and of identical boxes the first
/// one stays.
inline void ReferenceSimplifyBoxes(std::vector<Box>* boxes) {
  std::vector<Box> kept;
  kept.reserve(boxes->size());
  for (size_t i = 0; i < boxes->size(); ++i) {
    bool covered = false;
    for (size_t j = 0; j < boxes->size() && !covered; ++j) {
      if (i == j) continue;
      // Tie-break identical boxes by index so exactly one copy survives.
      if (BoxCovers((*boxes)[j], (*boxes)[i]) &&
          (!BoxCovers((*boxes)[i], (*boxes)[j]) || j < i)) {
        covered = true;
      }
    }
    if (!covered) kept.push_back((*boxes)[i]);
  }
  *boxes = std::move(kept);
}

}  // namespace dsps::interest::reference

#endif  // DSPS_TESTS_SIMPLIFY_REFERENCE_H_
