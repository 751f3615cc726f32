#ifndef DSPS_DISSEMINATION_TREE_H_
#define DSPS_DISSEMINATION_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "interest/box_index.h"
#include "interest/interest.h"
#include "interest/spline_index.h"
#include "sim/network.h"

namespace dsps::dissemination {

/// How entities attach to a stream's dissemination tree.
enum class TreePolicy {
  /// Every entity is a direct child of the source (the paper's
  /// non-cooperative baseline: "rely solely on the sources").
  kSourceDirect,
  /// Random parent with spare fanout (structure-insensitive baseline).
  kRandom,
  /// Closest existing node with spare fanout (locality-aware default).
  kClosestParent,
};

/// The hierarchical dissemination tree of ONE stream (Section 3.1): the
/// source is the root, entities are the other nodes, and every parent
/// forwards upstream data to its children. Each entity registers its local
/// data interest; subtree aggregates propagate toward the root so parents
/// can *early-filter*: a tuple is forwarded to a child only if some query
/// below that child wants it.
class DisseminationTree {
  struct Node;

 public:
  struct Config {
    TreePolicy policy = TreePolicy::kClosestParent;
    /// Max children per node (the "limited number of entities" each node
    /// serves). The source honors it too, except under kSourceDirect.
    int max_fanout = 4;
    /// If positive, each node's subtree-interest summary is coarsened to
    /// at most this many boxes before propagating upstream (Section 3.1's
    /// aggregation-efficiency issue). Coarsening only over-approximates,
    /// so early filtering never loses tuples; it may forward extras.
    int interest_budget = 0;
    uint64_t seed = 1;
  };

  DisseminationTree(common::StreamId stream, const sim::Point& source_position,
                    const Config& config);

  common::StreamId stream() const { return stream_; }

  /// Attaches an entity per the policy.
  common::Status AddEntity(common::EntityId id, const sim::Point& position);

  /// Detaches an entity; its children re-attach to its parent (fanout may
  /// transiently exceed the bound, as in a real repair).
  common::Status RemoveEntity(common::EntityId id);

  /// Replaces the entity's own interest in this stream (the union of its
  /// local queries' boxes) and re-propagates subtree aggregates to the
  /// root. Returns the number of ancestors whose aggregate changed (the
  /// interest-update messages sent upstream). Setting the interest the
  /// entity already has is a no-op returning 0.
  int SetLocalInterest(common::EntityId id,
                       const std::vector<interest::Box>& boxes);

  /// Parent entity; kInvalidEntity when the parent is the source.
  common::Result<common::EntityId> Parent(common::EntityId id) const;

  /// Children of `parent` (kInvalidEntity = the source).
  std::vector<common::EntityId> Children(common::EntityId parent) const;

  /// Hops from the source (children of the source are at depth 1).
  common::Result<int> Depth(common::EntityId id) const;

  int MaxDepth() const;
  size_t size() const { return size_; }
  bool Contains(common::EntityId id) const { return Find(id) != nullptr; }
  int source_fanout() const {
    return static_cast<int>(source_children_.size());
  }

  /// Number of children of `parent` (kInvalidEntity = the source); 0 for
  /// unknown entities. Cheap — no copy, unlike Children().
  int ChildCount(common::EntityId parent) const;

  /// The aggregated interest boxes of `id`'s subtree.
  const std::vector<interest::Box>& SubtreeInterest(common::EntityId id) const;

  /// The entity's own registered boxes.
  const std::vector<interest::Box>& LocalInterest(common::EntityId id) const;

  /// A tree position resolved once, so one tuple hop's LocalMatch and
  /// ForwardTargets share a single resolution. Valid until the tree's
  /// membership next changes (AddEntity, RemoveEntity).
  class Position {
    friend class DisseminationTree;
    const Node* node_ = nullptr;  // null = the source
    bool known_ = false;          // false = not in the tree
  };
  /// The position of `id` (kInvalidEntity = the source).
  Position Locate(common::EntityId id) const;

  /// Children of `from` (kInvalidEntity = source) that should receive a
  /// tuple with numeric values `point`. With early_filter, a child is
  /// included only if its subtree aggregate matches; otherwise all
  /// children are included (forward-everything baseline). The per-child
  /// matching reads `from`'s match table (see Table): a scan of the
  /// children's contiguous bounds, or one spline-bucket probe once they
  /// hold interest::BoxIndex::kSplineBuildMin boxes. Results keep
  /// child-list order, bit-identical to a scan of every child's box list.
  void ForwardTargets(common::EntityId from, const double* point,
                      bool early_filter,
                      std::vector<common::EntityId>* out) const;
  /// The same at a resolved position (nothing for an unknown entity).
  void ForwardTargets(Position from, const double* point, bool early_filter,
                      std::vector<common::EntityId>* out) const;

  /// True if the entity's own interest matches the point (local delivery).
  /// Reads the entity's match table, stopping at the first matching box.
  /// False for an entity that is not in the tree.
  bool LocalMatch(common::EntityId id, const double* point) const;
  /// The same at a resolved position (false for the source).
  bool LocalMatch(Position at, const double* point) const;

  /// The entity's registered position.
  const sim::Point& position(common::EntityId id) const;
  const sim::Point& source_position() const { return source_position_; }

  /// True if `descendant` lies in `ancestor`'s subtree (an entity is not
  /// its own descendant).
  bool IsDescendant(common::EntityId ancestor,
                    common::EntityId descendant) const;

  /// Moves `id` (with its whole subtree) under `new_parent`
  /// (kInvalidEntity = the source). Fails if either is unknown, if the
  /// move would create a cycle, or if the new parent's fanout is full.
  /// Subtree aggregates are re-propagated on both paths.
  common::Status Reattach(common::EntityId id, common::EntityId new_parent);

  int max_fanout() const { return config_.max_fanout; }

  /// Audit sweep: re-derives ground truth and compares it to the live
  /// structures. Verifies (1) parent/child symmetry — every node appears
  /// exactly once as a child of its recorded parent; (2) acyclicity —
  /// every parent chain reaches the source within size() hops; (3) each
  /// node's cached subtree aggregate equals a fresh recomputation from
  /// local + children (interval-exact, including coarsening); (4) cached
  /// early-filter routing equals a plain linear scan over child subtree
  /// boxes at probe points, and each probed node's LocalMatch equals a
  /// scan of its LocalInterest() there. Internal error naming the first
  /// violation. Read-only: a match table check (4) has to build is
  /// dropped again.
  common::Status CheckInvariants() const;

  /// Accumulates the statistics of every live spline-backed match table
  /// (per-node and source) into `stats`; smaller tables are plain scans
  /// and are not counted as indexes.
  void CollectIndexStats(interest::IndexStats* stats) const;

 private:
  /// A node's match table: every bound a tuple stab at the node reads,
  /// copied contiguously in the interest::AppendBounds layout so each
  /// candidate box costs one branch (interest::BoundsContain). Built
  /// lazily by the first LocalMatch or early-filtered ForwardTargets after
  /// a change and rebuilt whole on the next one after DropTable, so it
  /// needs no insert or removal path.
  struct Table {
    /// Dimensionality of every box in the table.
    size_t dims = 0;
    /// The node's own non-empty boxes (LocalMatch).
    std::vector<double> local;
    /// Below interest::BoxIndex::kSplineBuildMin child boxes: the
    /// children's non-empty subtree boxes, child after child in
    /// child-list order; child i's boxes end at box child_end[i].
    std::vector<double> child_bounds;
    std::vector<uint32_t> child_end;
    /// From kSplineBuildMin child boxes: a spline over them (subscriber =
    /// the child's position in the child list) in place of child_bounds.
    std::unique_ptr<interest::SplineIndex> spline;
    /// Spline build time and early-filtered stabs served by it.
    double build_us = 0.0;
    mutable int64_t lookups = 0;
  };

  struct Node {
    /// False for an id no entity holds (nodes_ is indexed by entity id).
    bool present = false;
    common::EntityId parent = common::kInvalidEntity;  // invalid = source
    std::vector<common::EntityId> children;
    sim::Point position;
    std::vector<interest::Box> local;
    std::vector<interest::Box> subtree;
    /// The node's match table; null until built and after DropTable.
    mutable std::unique_ptr<Table> table;
  };

  /// Recomputes `id`'s subtree aggregate from local + children; returns
  /// true if it changed (propagation continues upward). Writes the stored
  /// aggregate only when it changed.
  bool RecomputeSubtree(common::EntityId id);
  /// Points `in` at the inputs of `node`'s aggregate — its own boxes, then
  /// each child's aggregate, skipping empty boxes — and marks the
  /// survivors of simplification in `keep` (interest::SimplifyKeep).
  /// Returns how many survive.
  size_t MarkAggregate(const Node& node,
                       std::vector<const interest::Box*>* in,
                       std::vector<uint8_t>* keep) const;
  /// True if `kept` surviving boxes exceed the interest budget, so the
  /// aggregate is their coarsening rather than the survivors themselves.
  bool Coarsens(size_t kept) const {
    return config_.interest_budget > 0 &&
           kept > static_cast<size_t>(config_.interest_budget);
  }
  void PropagateUp(common::EntityId id, int* updates);
  /// The node of `id`, or null if it is not in the tree.
  const Node* Find(common::EntityId id) const {
    if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return nullptr;
    return nodes_[id].present ? &nodes_[id] : nullptr;
  }
  /// The node of `id`, which must be in the tree.
  Node& At(common::EntityId id);
  const Node& At(common::EntityId id) const;
  int FanoutOf(common::EntityId id) const;
  /// The table slot of `id` (kInvalidEntity = the source); null for
  /// unknown entities.
  std::unique_ptr<Table>* TableSlot(common::EntityId id) const;
  /// The table in `slot`, built first if it is not there: `node`'s, or
  /// the source's when `node` is null.
  const Table& EnsureTable(std::unique_ptr<Table>* slot,
                           const Node* node) const;
  /// Drops `id`'s match table (kInvalidEntity = the source's). Must be
  /// called whenever `id`'s own interest, its child list or any child's
  /// subtree aggregate changes. Const because the tables are mutable.
  void DropTable(common::EntityId id) const;
  /// Builds a table over `local` (null for the source) and `children`'s
  /// subtree aggregates.
  std::unique_ptr<Table> BuildTable(
      const std::vector<interest::Box>* local,
      const std::vector<common::EntityId>& children) const;

  common::StreamId stream_;
  sim::Point source_position_;
  Config config_;
  common::Rng rng_;
  /// Nodes by entity id; iterating the present ones in index order visits
  /// entities in ascending id.
  std::vector<Node> nodes_;
  size_t size_ = 0;
  std::vector<common::EntityId> source_children_;
  /// The source's match table (children only; see Table).
  mutable std::unique_ptr<Table> source_table_;
  /// Scratch for ForwardTargets' spline lookups (avoids a per-tuple
  /// allocation on the hot path).
  mutable std::vector<int64_t> match_scratch_;
  /// Scratch for RecomputeSubtree's MarkAggregate call.
  std::vector<const interest::Box*> agg_in_;
  std::vector<uint8_t> agg_keep_;
  std::vector<interest::Box> empty_;
};

}  // namespace dsps::dissemination

#endif  // DSPS_DISSEMINATION_TREE_H_
