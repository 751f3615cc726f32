#include "dissemination/tree.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/check.h"
#include "interest/summarize.h"

namespace dsps::dissemination {

using interest::Box;
using sim::Distance;
using sim::Point;

DisseminationTree::DisseminationTree(common::StreamId stream,
                                     const Point& source_position,
                                     const Config& config)
    : stream_(stream),
      source_position_(source_position),
      config_(config),
      rng_(config.seed) {
  DSPS_CHECK(config.max_fanout >= 1);
}

DisseminationTree::Node& DisseminationTree::At(common::EntityId id) {
  DSPS_CHECK_MSG(Find(id) != nullptr, "unknown entity %d", id);
  return nodes_[id];
}

const DisseminationTree::Node& DisseminationTree::At(
    common::EntityId id) const {
  DSPS_CHECK_MSG(Find(id) != nullptr, "unknown entity %d", id);
  return nodes_[id];
}

int DisseminationTree::FanoutOf(common::EntityId id) const {
  if (id == common::kInvalidEntity) {
    return static_cast<int>(source_children_.size());
  }
  return static_cast<int>(At(id).children.size());
}

common::Status DisseminationTree::AddEntity(common::EntityId id,
                                            const Point& position) {
  if (id < 0) return common::Status::InvalidArgument("invalid entity id");
  if (Contains(id)) {
    return common::Status::AlreadyExists("entity already in tree");
  }
  common::EntityId parent = common::kInvalidEntity;
  switch (config_.policy) {
    case TreePolicy::kSourceDirect:
      parent = common::kInvalidEntity;
      break;
    case TreePolicy::kRandom: {
      // Source + every entity with spare fanout.
      std::vector<common::EntityId> candidates;
      if (FanoutOf(common::kInvalidEntity) < config_.max_fanout) {
        candidates.push_back(common::kInvalidEntity);
      }
      for (size_t eid = 0; eid < nodes_.size(); ++eid) {
        const Node& node = nodes_[eid];
        if (node.present &&
            static_cast<int>(node.children.size()) < config_.max_fanout) {
          candidates.push_back(static_cast<common::EntityId>(eid));
        }
      }
      if (candidates.empty()) {
        // Everyone full: attach to the source anyway (repair semantics).
        parent = common::kInvalidEntity;
      } else {
        parent = candidates[rng_.NextUint64(candidates.size())];
      }
      break;
    }
    case TreePolicy::kClosestParent: {
      double best_d = std::numeric_limits<double>::max();
      bool found = false;
      if (FanoutOf(common::kInvalidEntity) < config_.max_fanout) {
        best_d = Distance(source_position_, position);
        parent = common::kInvalidEntity;
        found = true;
      }
      for (size_t eid = 0; eid < nodes_.size(); ++eid) {
        const Node& node = nodes_[eid];
        if (!node.present ||
            static_cast<int>(node.children.size()) >= config_.max_fanout) {
          continue;
        }
        double d = Distance(node.position, position);
        if (d < best_d) {
          best_d = d;
          parent = static_cast<common::EntityId>(eid);
          found = true;
        }
      }
      if (!found) parent = common::kInvalidEntity;
      break;
    }
  }
  if (static_cast<size_t>(id) >= nodes_.size()) {
    nodes_.resize(static_cast<size_t>(id) + 1);
  }
  Node& node = nodes_[id];
  node.present = true;
  node.parent = parent;
  node.position = position;
  ++size_;
  if (parent == common::kInvalidEntity) {
    source_children_.push_back(id);
  } else {
    nodes_[parent].children.push_back(id);
  }
  DropTable(parent);
  return common::Status::OK();
}

common::Status DisseminationTree::RemoveEntity(common::EntityId id) {
  if (!Contains(id)) return common::Status::NotFound("entity not in tree");
  Node node = std::move(nodes_[id]);
  nodes_[id] = Node();
  --size_;
  auto detach = [&](std::vector<common::EntityId>* siblings) {
    siblings->erase(std::remove(siblings->begin(), siblings->end(), id),
                    siblings->end());
  };
  if (node.parent == common::kInvalidEntity) {
    detach(&source_children_);
  } else {
    detach(&At(node.parent).children);
  }
  // Children re-attach to the grandparent.
  for (common::EntityId child : node.children) {
    At(child).parent = node.parent;
    if (node.parent == common::kInvalidEntity) {
      source_children_.push_back(child);
    } else {
      At(node.parent).children.push_back(child);
    }
  }
  // The parent's child list changed even if its aggregate did not.
  DropTable(node.parent);
  // Aggregates above the removal point change.
  int updates = 0;
  if (node.parent != common::kInvalidEntity) {
    PropagateUp(node.parent, &updates);
  }
  return common::Status::OK();
}

namespace {

/// Overwrites `out` with the `kept` boxes of `in` whose flag is set, in
/// order, reusing `out`'s storage. Grows it to exactly `kept` slots, as
/// a fresh copy would: aggregates grow a box at a time, and doubling
/// would leave them up to half empty.
void AssignKept(const std::vector<const Box*>& in,
                const std::vector<uint8_t>& keep, size_t kept,
                std::vector<Box>* out) {
  out->reserve(kept);
  out->resize(kept);
  size_t t = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    if (keep[i]) (*out)[t++] = *in[i];
  }
}

/// True if the `kept` flagged boxes of `in`, in order, equal `stored`.
bool KeptEquals(const std::vector<const Box*>& in,
                const std::vector<uint8_t>& keep, size_t kept,
                const std::vector<Box>& stored) {
  if (kept != stored.size()) return false;
  size_t t = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    if (keep[i] && *in[i] != stored[t++]) return false;
  }
  return true;
}

}  // namespace

size_t DisseminationTree::MarkAggregate(const Node& node,
                                        std::vector<const Box*>* in,
                                        std::vector<uint8_t>* keep) const {
  in->clear();
  for (const Box& b : node.local) {
    if (!interest::BoxEmpty(b)) in->push_back(&b);
  }
  for (common::EntityId child : node.children) {
    for (const Box& b : At(child).subtree) {
      if (!interest::BoxEmpty(b)) in->push_back(&b);
    }
  }
  return interest::SimplifyKeep(*in, keep);
}

bool DisseminationTree::RecomputeSubtree(common::EntityId id) {
  Node& node = At(id);
  const size_t kept = MarkAggregate(node, &agg_in_, &agg_keep_);
  if (!Coarsens(kept)) {
    // Most installs leave an ancestor's aggregate as it was: compare the
    // survivors in place and copy only on a change.
    if (KeptEquals(agg_in_, agg_keep_, kept, node.subtree)) return false;
    AssignKept(agg_in_, agg_keep_, kept, &node.subtree);
    return true;
  }
  std::vector<Box> next;
  AssignKept(agg_in_, agg_keep_, kept, &next);
  next = interest::CoarsenBoxes(std::move(next), config_.interest_budget);
  if (next == node.subtree) return false;
  node.subtree = std::move(next);
  return true;
}

void DisseminationTree::PropagateUp(common::EntityId id, int* updates) {
  common::EntityId cur = id;
  while (cur != common::kInvalidEntity) {
    bool changed = RecomputeSubtree(cur);
    if (!changed) break;
    ++*updates;
    cur = At(cur).parent;
    // `cur`'s table holds the changed child aggregate.
    DropTable(cur);
  }
}

int DisseminationTree::SetLocalInterest(common::EntityId id,
                                        const std::vector<Box>& boxes) {
  Node& node = At(id);
  // Aggregates are always fresh (CheckInvariants check 3), so recomputing
  // from an unchanged local interest would change nothing.
  if (node.local == boxes) return 0;
  node.local = boxes;
  node.table.reset();
  int updates = 0;
  PropagateUp(id, &updates);
  return updates;
}

common::Result<common::EntityId> DisseminationTree::Parent(
    common::EntityId id) const {
  const Node* node = Find(id);
  if (node == nullptr) return common::Status::NotFound("entity not in tree");
  return node->parent;
}

int DisseminationTree::ChildCount(common::EntityId parent) const {
  if (parent == common::kInvalidEntity) {
    return static_cast<int>(source_children_.size());
  }
  const Node* node = Find(parent);
  return node == nullptr ? 0 : static_cast<int>(node->children.size());
}

std::vector<common::EntityId> DisseminationTree::Children(
    common::EntityId parent) const {
  if (parent == common::kInvalidEntity) return source_children_;
  const Node* node = Find(parent);
  if (node == nullptr) return {};
  return node->children;
}

common::Result<int> DisseminationTree::Depth(common::EntityId id) const {
  const Node* node = Find(id);
  if (node == nullptr) return common::Status::NotFound("entity not in tree");
  int depth = 1;
  common::EntityId cur = node->parent;
  while (cur != common::kInvalidEntity) {
    cur = At(cur).parent;
    ++depth;
  }
  return depth;
}

int DisseminationTree::MaxDepth() const {
  int max_depth = 0;
  for (size_t id = 0; id < nodes_.size(); ++id) {
    if (!nodes_[id].present) continue;
    auto d = Depth(static_cast<common::EntityId>(id));
    if (d.ok()) max_depth = std::max(max_depth, d.value());
  }
  return max_depth;
}

const std::vector<Box>& DisseminationTree::SubtreeInterest(
    common::EntityId id) const {
  const Node* node = Find(id);
  return node == nullptr ? empty_ : node->subtree;
}

const std::vector<Box>& DisseminationTree::LocalInterest(
    common::EntityId id) const {
  const Node* node = Find(id);
  return node == nullptr ? empty_ : node->local;
}

std::unique_ptr<DisseminationTree::Table>* DisseminationTree::TableSlot(
    common::EntityId id) const {
  if (id == common::kInvalidEntity) return &source_table_;
  const Node* node = Find(id);
  return node == nullptr ? nullptr : &node->table;
}

void DisseminationTree::DropTable(common::EntityId id) const {
  std::unique_ptr<Table>* slot = TableSlot(id);
  if (slot != nullptr) slot->reset();
}

const DisseminationTree::Table& DisseminationTree::EnsureTable(
    std::unique_ptr<Table>* slot, const Node* node) const {
  if (*slot == nullptr) {
    *slot = node == nullptr ? BuildTable(nullptr, source_children_)
                            : BuildTable(&node->local, node->children);
  }
  return **slot;
}

std::unique_ptr<DisseminationTree::Table> DisseminationTree::BuildTable(
    const std::vector<Box>* local,
    const std::vector<common::EntityId>& children) const {
  // Gather the non-empty boxes first so every array is sized exactly:
  // tables live until the next change, and growth slack would stay.
  std::vector<const Box*> boxes;
  std::vector<int64_t> subs;
  auto gather = [&boxes, &subs](const std::vector<Box>& from, int64_t sub) {
    for (const Box& b : from) {
      if (interest::BoxEmpty(b)) continue;
      boxes.push_back(&b);
      subs.push_back(sub);
    }
  };
  if (local != nullptr) gather(*local, 0);
  for (size_t i = 0; i < children.size(); ++i) {
    gather(At(children[i]).subtree, static_cast<int64_t>(i) + 1);
  }
  // All boxes of one stream share dimensionality (see
  // interest/interval.h); an empty table reads no bounds, so any serves.
  const size_t dims = boxes.empty() ? 1 : boxes.front()->size();
  std::vector<double> bounds;
  bounds.reserve(boxes.size() * 2 * dims);
  for (const Box* b : boxes) {
    DSPS_CHECK_MSG(!b->empty() && b->size() == dims,
                   "stream %d mixes box dimensionalities", stream_);
    interest::AppendBounds(*b, &bounds);
  }
  const auto start = std::chrono::steady_clock::now();
  interest::BucketIndex index(dims, std::move(bounds), std::move(subs));
  const double build_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  return std::make_unique<Table>(Table{std::move(index), build_us});
}

bool DisseminationTree::Route(common::EntityId at, const double* point,
                              bool early_filter,
                              std::vector<common::EntityId>* targets) const {
  targets->clear();
  const Node* node = nullptr;
  if (at != common::kInvalidEntity) {
    node = Find(at);
    if (node == nullptr) return false;
  }
  const std::vector<common::EntityId>& children =
      node == nullptr ? source_children_ : node->children;
  if (!early_filter) *targets = children;
  // The source wants nothing itself: it needs a table only to filter.
  if (node == nullptr && (!early_filter || children.empty())) return false;
  const Table& table =
      EnsureTable(node == nullptr ? &source_table_ : &node->table, node);
  ++table.lookups;
  const interest::BucketIndex::Run run = table.index.Candidates(point);
  // A subscriber's boxes are consecutive in the run (see Table), so after
  // its first hit the rest of its boxes are skipped untested, and the hits
  // come out once each, in subscriber order: the node, then child-list
  // order.
  const size_t dims = table.index.dims();
  bool local = false;
  int64_t hit = -1;
  for (size_t k = 0; k < run.size; ++k) {
    const int64_t sub = run.subs[k];
    if (sub == hit) continue;
    // Unfiltered, only the node's own boxes matter, and they come first.
    if (!early_filter && sub > 0) break;
    if (!interest::BoundsContain(run.bounds + k * 2 * dims, point, dims)) {
      continue;
    }
    hit = sub;
    if (sub == 0) {
      local = true;
    } else {
      targets->push_back(children[static_cast<size_t>(sub - 1)]);
    }
  }
  return local;
}

void DisseminationTree::CollectIndexStats(interest::IndexStats* stats) const {
  auto add = [stats](const std::unique_ptr<Table>& table) {
    if (table == nullptr) return;
    ++stats->indexes;
    stats->boxes += static_cast<int64_t>(table->index.size());
    stats->lookups += table->lookups;
    ++stats->rebuilds;
    stats->build_us += table->build_us;
    interest::AddBucketStats(table->index, stats);
  };
  add(source_table_);
  for (const Node& node : nodes_) add(node.table);
}

const sim::Point& DisseminationTree::position(common::EntityId id) const {
  return At(id).position;
}

bool DisseminationTree::IsDescendant(common::EntityId ancestor,
                                     common::EntityId descendant) const {
  const Node* node = Find(descendant);
  if (node == nullptr) return false;
  common::EntityId cur = node->parent;
  while (cur != common::kInvalidEntity) {
    if (cur == ancestor) return true;
    cur = At(cur).parent;
  }
  return false;
}

common::Status DisseminationTree::Reattach(common::EntityId id,
                                           common::EntityId new_parent) {
  if (!Contains(id)) return common::Status::NotFound("entity not in tree");
  if (new_parent == id || IsDescendant(id, new_parent)) {
    return common::Status::InvalidArgument("reattach would create a cycle");
  }
  if (new_parent != common::kInvalidEntity && !Contains(new_parent)) {
    return common::Status::NotFound("new parent not in tree");
  }
  common::EntityId old_parent = nodes_[id].parent;
  if (old_parent == new_parent) return common::Status::OK();
  if (FanoutOf(new_parent) >= config_.max_fanout) {
    return common::Status::ResourceExhausted("new parent fanout full");
  }
  auto detach = [&](std::vector<common::EntityId>* siblings) {
    siblings->erase(std::remove(siblings->begin(), siblings->end(), id),
                    siblings->end());
  };
  if (old_parent == common::kInvalidEntity) {
    detach(&source_children_);
  } else {
    detach(&At(old_parent).children);
  }
  nodes_[id].parent = new_parent;
  if (new_parent == common::kInvalidEntity) {
    source_children_.push_back(id);
  } else {
    At(new_parent).children.push_back(id);
  }
  // Both parents' child lists changed even if no aggregate does.
  DropTable(old_parent);
  DropTable(new_parent);
  int updates = 0;
  if (old_parent != common::kInvalidEntity) PropagateUp(old_parent, &updates);
  if (new_parent != common::kInvalidEntity) PropagateUp(new_parent, &updates);
  return common::Status::OK();
}

common::Status DisseminationTree::CheckInvariants() const {
  auto violation = [](const std::string& what) {
    return common::Status::Internal("dissemination tree: " + what);
  };
  // (1) Parent/child symmetry and total membership: every node is a child
  // of its recorded parent exactly once, every listed child points back,
  // and no node appears in two child lists.
  size_t listed_children = source_children_.size();
  for (common::EntityId child : source_children_) {
    const Node* node = Find(child);
    if (node == nullptr) return violation("source child not in tree");
    if (node->parent != common::kInvalidEntity) {
      return violation("source child has a non-source parent");
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (!node.present) continue;
    const auto id = static_cast<common::EntityId>(i);
    listed_children += node.children.size();
    for (common::EntityId child : node.children) {
      const Node* child_node = Find(child);
      if (child_node == nullptr) return violation("child not in tree");
      if (child_node->parent != id) {
        return violation("child's parent link disagrees with child list");
      }
    }
    const std::vector<common::EntityId>& siblings =
        node.parent == common::kInvalidEntity
            ? source_children_
            : At(node.parent).children;
    if (std::count(siblings.begin(), siblings.end(), id) != 1) {
      return violation("node not exactly once in its parent's child list");
    }
  }
  if (listed_children != size_) {
    return violation("child-list total != node count");
  }
  // (2) Acyclicity: every parent chain must reach the source in at most
  // size() hops (symmetry above already rules out forests).
  for (const Node& node : nodes_) {
    if (!node.present) continue;
    common::EntityId cur = node.parent;
    size_t hops = 0;
    while (cur != common::kInvalidEntity) {
      if (++hops > size_) return violation("parent chain has a cycle");
      cur = At(cur).parent;
    }
  }
  // (3) Cached subtree aggregates: recompute each node's aggregate the
  // way RecomputeSubtree does and require interval-exact equality.
  std::vector<const Box*> in;
  std::vector<uint8_t> keep;
  std::vector<Box> expect;
  for (const Node& node : nodes_) {
    if (!node.present) continue;
    const size_t kept = MarkAggregate(node, &in, &keep);
    AssignKept(in, keep, kept, &expect);
    if (Coarsens(kept)) {
      expect =
          interest::CoarsenBoxes(std::move(expect), config_.interest_budget);
    }
    if (expect.size() != node.subtree.size()) {
      return violation("stale subtree aggregate (box count)");
    }
    for (size_t i = 0; i < expect.size(); ++i) {
      if (expect[i].size() != node.subtree[i].size()) {
        return violation("stale subtree aggregate (box dimensionality)");
      }
      for (size_t d = 0; d < expect[i].size(); ++d) {
        if (expect[i][d].lo != node.subtree[i][d].lo ||
            expect[i][d].hi != node.subtree[i][d].hi) {
          return violation("stale subtree aggregate (interval bounds)");
        }
      }
    }
  }
  // (4) Match tables vs linear scans, probed at child subtree box centers
  // (where mismatches from a stale table are most likely to show): the
  // parent's Route targets against a scan of the children's aggregates,
  // and the local answers of the parent and of each child against a scan
  // of its LocalInterest(). A child's own boxes are part of its aggregate,
  // so every node's local interest gets probed. Tables these calls build
  // are dropped again parent by parent: output never depends on them, and
  // on a system without traffic they would only hold memory.
  std::vector<common::EntityId> parents(1, common::kInvalidEntity);
  for (size_t id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].present) {
      parents.push_back(static_cast<common::EntityId>(id));
    }
  }
  std::vector<common::EntityId> cached;
  constexpr size_t kMaxProbesPerParent = 16;
  for (common::EntityId parent : parents) {
    const std::vector<common::EntityId>& children =
        parent == common::kInvalidEntity ? source_children_
                                         : At(parent).children;
    std::vector<common::EntityId> probed(1, parent);
    probed.insert(probed.end(), children.begin(), children.end());
    std::vector<common::EntityId> unbuilt;
    for (common::EntityId id : probed) {
      if (*TableSlot(id) == nullptr) unbuilt.push_back(id);
    }
    std::vector<std::vector<double>> probes;
    for (common::EntityId child : children) {
      for (const Box& b : At(child).subtree) {
        if (interest::BoxEmpty(b) || probes.size() >= kMaxProbesPerParent) {
          continue;
        }
        std::vector<double> center(b.size());
        for (size_t d = 0; d < b.size(); ++d) {
          center[d] = 0.5 * (b[d].lo + b[d].hi);
        }
        probes.push_back(std::move(center));
      }
    }
    for (const std::vector<double>& point : probes) {
      for (common::EntityId id : probed) {
        const bool local =
            Route(id, point.data(), /*early_filter=*/true, &cached);
        if (id == parent) {
          std::vector<common::EntityId> scanned;
          for (common::EntityId child : children) {
            for (const Box& b : At(child).subtree) {
              if (interest::BoxContains(b, point.data())) {
                scanned.push_back(child);
                break;
              }
            }
          }
          if (cached != scanned) {
            return violation("routing table disagrees with linear scan");
          }
        }
        if (id == common::kInvalidEntity) continue;
        const std::vector<Box>& own = At(id).local;
        const bool scan =
            std::any_of(own.begin(), own.end(), [&point](const Box& b) {
              return interest::BoxContains(b, point.data());
            });
        if (local != scan) {
          return violation("local match table disagrees with linear scan");
        }
      }
    }
    for (common::EntityId id : unbuilt) DropTable(id);
  }
  return common::Status::OK();
}

}  // namespace dsps::dissemination
