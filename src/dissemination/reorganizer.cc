#include "dissemination/reorganizer.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "sim/topology.h"

namespace dsps::dissemination {

using sim::Distance;
using sim::Point;

namespace {

/// A move must reduce the entity's attachment cost by at least this
/// fraction to be applied (hysteresis against oscillation).
constexpr double kMinGainFrac = 0.10;
/// Max re-attachments per round.
constexpr int kMaxMovesPerRound = 8;
/// Every tree level costs this many distance units (the per-hop base
/// latency expressed in distance): attaching to a *deep* nearby parent
/// can be worse than a shallow distant one. With the WAN model (2 ms
/// base, 50 us per unit) one hop is 40 units.
constexpr double kDepthPenaltyUnits =
    sim::kWanBaseLatencyS / sim::kWanLatencyPerUnitS;
static_assert(kDepthPenaltyUnits == 40.0);

}  // namespace

double TreeReorganizer::TreeCost(const DisseminationTree& tree) {
  double cost = 0.0;
  // Children of the source (depth 1, parent depth 0).
  for (common::EntityId id : tree.Children(common::kInvalidEntity)) {
    cost += Distance(tree.source_position(), tree.position(id));
  }
  // Everyone else: walk children lists so each entity is counted once.
  struct Item {
    common::EntityId id;
    int depth;
  };
  std::vector<Item> stack;
  for (common::EntityId id : tree.Children(common::kInvalidEntity)) {
    stack.push_back(Item{id, 1});
  }
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    for (common::EntityId child : tree.Children(item.id)) {
      cost += Distance(tree.position(item.id), tree.position(child)) +
              kDepthPenaltyUnits * item.depth;
      stack.push_back(Item{child, item.depth + 1});
    }
  }
  return cost;
}

TreeReorganizer::RoundStats TreeReorganizer::Round(
    DisseminationTree* tree) const {
  DSPS_CHECK(tree != nullptr);
  RoundStats stats;
  stats.cost_before = TreeCost(*tree);

  struct Move {
    common::EntityId entity;
    common::EntityId new_parent;
    double gain;
  };

  for (int move_count = 0; move_count < kMaxMovesPerRound; ++move_count) {
    // Collect all entities (BFS from the source).
    std::vector<common::EntityId> entities;
    std::vector<common::EntityId> stack =
        tree->Children(common::kInvalidEntity);
    while (!stack.empty()) {
      common::EntityId id = stack.back();
      stack.pop_back();
      entities.push_back(id);
      for (common::EntityId child : tree->Children(id)) stack.push_back(child);
    }
    // Best single move, by attachment cost = distance to the parent plus
    // a per-level penalty (each extra hop costs base latency even at zero
    // distance).
    auto depth_of = [&](common::EntityId node) {
      if (node == common::kInvalidEntity) return 0;
      auto d = tree->Depth(node);
      DSPS_CHECK(d.ok());
      return d.value();
    };
    auto subtree_size = [&](common::EntityId root) {
      int count = 0;
      std::vector<common::EntityId> s{root};
      while (!s.empty()) {
        common::EntityId cur = s.back();
        s.pop_back();
        ++count;
        for (common::EntityId c : tree->Children(cur)) s.push_back(c);
      }
      return count;
    };
    Move best{common::kInvalidEntity, common::kInvalidEntity, 0.0};
    for (common::EntityId id : entities) {
      auto parent = tree->Parent(id);
      DSPS_CHECK(parent.ok());
      const Point& my_pos = tree->position(id);
      int old_parent_depth = depth_of(parent.value());
      // Moving `id` re-depths its whole subtree: charge the depth delta
      // for every member.
      int members = subtree_size(id);
      double current =
          (parent.value() == common::kInvalidEntity
               ? Distance(tree->source_position(), my_pos)
               : Distance(tree->position(parent.value()), my_pos)) +
          kDepthPenaltyUnits * old_parent_depth;
      auto consider = [&](common::EntityId candidate, const Point& pos) {
        if (candidate == id || candidate == parent.value()) return;
        if (tree->IsDescendant(id, candidate)) return;
        if (static_cast<int>(tree->Children(candidate).size()) >=
            tree->max_fanout()) {
          return;
        }
        int depth_delta = depth_of(candidate) - old_parent_depth;
        double cost = Distance(pos, my_pos) +
                      kDepthPenaltyUnits * depth_of(candidate) +
                      kDepthPenaltyUnits * depth_delta *
                          static_cast<double>(members - 1);
        double gain = current - cost;
        if (gain > best.gain && gain >= kMinGainFrac * current) {
          best = Move{id, candidate, gain};
        }
      };
      if (parent.value() != common::kInvalidEntity) {
        consider(common::kInvalidEntity, tree->source_position());
      }
      for (common::EntityId other : entities) {
        consider(other, tree->position(other));
      }
    }
    if (best.entity == common::kInvalidEntity) break;
    common::Status s = tree->Reattach(best.entity, best.new_parent);
    DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    stats.moves += 1;
  }
  stats.cost_after = TreeCost(*tree);
  return stats;
}

}  // namespace dsps::dissemination
