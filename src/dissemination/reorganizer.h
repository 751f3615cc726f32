#ifndef DSPS_DISSEMINATION_REORGANIZER_H_
#define DSPS_DISSEMINATION_REORGANIZER_H_

#include "dissemination/tree.h"

namespace dsps::dissemination {

/// Adaptive reorganization of a dissemination tree (the line of work the
/// paper builds on: "Adaptive reorganization of coherency-preserving
/// dissemination tree for streaming data", and §3.1's remark that tree
/// shapes "have significant impact on the dissemination efficiency which
/// deserve further study").
///
/// Each round greedily re-attaches the entities with the largest gain —
/// the reduction of the distance to their parent (a direct proxy for the
/// per-hop WAN latency and, summed over the tree, the relay cost) —
/// subject to the fanout bound and cycle-freedom. Moves are bounded per
/// round so churn stays incremental.
class TreeReorganizer {
 public:
  struct RoundStats {
    int moves = 0;
    /// Sum of entity->parent distances before/after the round.
    double cost_before = 0.0;
    double cost_after = 0.0;
  };

  /// Runs one improvement round on `tree`.
  RoundStats Round(DisseminationTree* tree) const;

  /// The objective Round reduces: sum over entities of the distance to
  /// their parent plus a per-level depth penalty (the distance-equivalent
  /// of per-hop base latency).
  static double TreeCost(const DisseminationTree& tree);
};

}  // namespace dsps::dissemination

#endif  // DSPS_DISSEMINATION_REORGANIZER_H_
