#include "coordinator/coordinator_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "interest/summarize.h"

namespace dsps::coordinator {

using sim::Distance;
using sim::Point;

/// Tree node: leaves are entities, internal nodes are coordinator roles.
/// All children of one node are the same kind (all leaves or all internal).
struct CoordinatorTree::Node {
  bool is_leaf = false;
  /// Leaf: the entity. Internal: the entity playing this coordinator role.
  common::EntityId entity = common::kInvalidEntity;
  Node* parent = nullptr;
  std::vector<std::unique_ptr<Node>> children;
  /// Cached coarse interest summary of the subtree (see SummaryOf).
  interest::InterestSet summary;
  uint64_t summary_version = 0;
  /// Cached routing aggregates (see RefreshRouteCache): the subtree's
  /// leaf count and total routed load. Valid iff route_version matches
  /// the tree's route_epoch_; a version of 0 is always stale.
  size_t cached_leaves = 0;
  double cached_load = 0.0;
  uint64_t route_version = 0;
};

namespace {

/// Collects the entities at the leaves of `node`'s subtree.
void CollectLeaves(const CoordinatorTree::Node* node,
                   std::vector<common::EntityId>* out);

}  // namespace

CoordinatorTree::CoordinatorTree(const Config& config) : config_(config) {
  DSPS_CHECK(config.k >= 2);
  root_ = std::make_unique<Node>();
  root_->is_leaf = false;
}

CoordinatorTree::~CoordinatorTree() = default;

namespace {

void CollectLeaves(const CoordinatorTree::Node* node,
                   std::vector<common::EntityId>* out) {
  if (node->is_leaf) {
    out->push_back(node->entity);
    return;
  }
  for (const auto& c : node->children) CollectLeaves(c.get(), out);
}

}  // namespace

bool CoordinatorTree::Contains(common::EntityId id) const {
  return positions_.count(id) > 0;
}

CoordinatorTree::Node* CoordinatorTree::FindLeaf(common::EntityId id) const {
  // Iterative DFS.
  std::vector<Node*> stack{root_.get()};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      if (n->entity == id) return n;
      continue;
    }
    for (const auto& c : n->children) stack.push_back(c.get());
  }
  return nullptr;
}

common::EntityId CoordinatorTree::CenterOf(const Node& node) const {
  std::vector<common::EntityId> leaves;
  CollectLeaves(&node, &leaves);
  DSPS_CHECK(!leaves.empty());
  Point centroid{0, 0};
  for (common::EntityId e : leaves) {
    const Point& p = positions_.at(e);
    centroid.x += p.x;
    centroid.y += p.y;
  }
  centroid.x /= static_cast<double>(leaves.size());
  centroid.y /= static_cast<double>(leaves.size());
  common::EntityId best = leaves[0];
  double best_d = std::numeric_limits<double>::max();
  for (common::EntityId e : leaves) {
    double d = Distance(positions_.at(e), centroid);
    if (d < best_d) {
      best_d = d;
      best = e;
    }
  }
  return best;
}

common::Result<int> CoordinatorTree::Join(common::EntityId id,
                                          const Point& position) {
  if (Contains(id)) {
    return common::Status::AlreadyExists("entity already joined");
  }
  positions_[id] = position;
  ++interest_version_;
  ++route_epoch_;
  int messages = 1;  // request to the root
  // Rule 1: descend toward the closest child coordinator until reaching a
  // node whose children are leaves (or the empty root).
  Node* node = root_.get();
  while (!node->children.empty() && !node->children.front()->is_leaf) {
    Node* best = nullptr;
    double best_d = std::numeric_limits<double>::max();
    for (const auto& c : node->children) {
      double d = Distance(positions_.at(c->entity), position);
      if (d < best_d) {
        best_d = d;
        best = c.get();
      }
    }
    node = best;
    ++messages;  // forwarded request
  }
  auto leaf = std::make_unique<Node>();
  leaf->is_leaf = true;
  leaf->entity = id;
  leaf->parent = node;
  node->children.push_back(std::move(leaf));
  ++messages;  // welcome
  if (node->entity == common::kInvalidEntity) node->entity = id;
  SplitIfOversized(node, &messages);
  total_messages_ += messages;
  if (metrics_.joins != nullptr) {
    metrics_.joins->Increment();
    metrics_.messages->Increment(messages);
  }
  return messages;
}

void CoordinatorTree::SplitIfOversized(Node* node, int* messages) {
  const int max_size = 3 * config_.k - 1;
  while (node != nullptr &&
         static_cast<int>(node->children.size()) > max_size) {
    if (metrics_.splits != nullptr) metrics_.splits->Increment();
    // Rule 3: split into two clusters, each at least floor(3k/2), with
    // small radii: seeds = the farthest child pair, greedy assignment to
    // the nearest seed, then rebalance.
    auto pos_of = [&](const Node* c) { return positions_.at(c->entity); };
    size_t n = node->children.size();
    size_t si = 0, sj = 1;
    double far = -1.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        double d = Distance(pos_of(node->children[i].get()),
                            pos_of(node->children[j].get()));
        if (d > far) {
          far = d;
          si = i;
          sj = j;
        }
      }
    }
    Point seed_a = pos_of(node->children[si].get());
    Point seed_b = pos_of(node->children[sj].get());
    std::vector<std::unique_ptr<Node>> group_a, group_b;
    std::vector<std::pair<double, std::unique_ptr<Node>>> undecided;
    for (auto& c : node->children) {
      double da = Distance(pos_of(c.get()), seed_a);
      double db = Distance(pos_of(c.get()), seed_b);
      if (da <= db) {
        group_a.push_back(std::move(c));
      } else {
        group_b.push_back(std::move(c));
      }
    }
    node->children.clear();
    // Rebalance so each group has >= floor(3k/2) children: move the
    // members of the larger group closest to the other seed.
    size_t min_size = static_cast<size_t>(3 * config_.k / 2);
    auto rebalance = [&](std::vector<std::unique_ptr<Node>>* from,
                         std::vector<std::unique_ptr<Node>>* to,
                         const Point& to_seed) {
      while (to->size() < min_size && from->size() > min_size) {
        size_t best = 0;
        double best_d = std::numeric_limits<double>::max();
        for (size_t i = 0; i < from->size(); ++i) {
          double d = Distance(pos_of((*from)[i].get()), to_seed);
          if (d < best_d) {
            best_d = d;
            best = i;
          }
        }
        to->push_back(std::move((*from)[best]));
        from->erase(from->begin() + static_cast<long>(best));
      }
    };
    rebalance(&group_a, &group_b, seed_b);
    rebalance(&group_b, &group_a, seed_a);
    *messages += static_cast<int>(n);  // notify every member of its cluster

    auto make_cluster = [&](std::vector<std::unique_ptr<Node>> children) {
      auto cluster = std::make_unique<Node>();
      cluster->is_leaf = false;
      cluster->children = std::move(children);
      for (auto& c : cluster->children) c->parent = cluster.get();
      cluster->entity = CenterOf(*cluster);
      return cluster;
    };
    auto a = make_cluster(std::move(group_a));
    auto b = make_cluster(std::move(group_b));

    if (node->parent == nullptr) {
      // Splitting the root cluster grows the tree by one level.
      a->parent = node;
      b->parent = node;
      node->children.push_back(std::move(a));
      node->children.push_back(std::move(b));
      node->entity = CenterOf(*node);
      return;
    }
    // Replace `node` in its parent with the two new clusters (rule 3:
    // "the centers of the two clusters are selected as the two new
    // parents"), then check the parent for overflow.
    Node* parent = node->parent;
    a->parent = parent;
    b->parent = parent;
    auto it = std::find_if(parent->children.begin(), parent->children.end(),
                           [node](const std::unique_ptr<Node>& c) {
                             return c.get() == node;
                           });
    DSPS_CHECK(it != parent->children.end());
    size_t idx = static_cast<size_t>(it - parent->children.begin());
    parent->children[idx] = std::move(a);
    parent->children.push_back(std::move(b));
    node = parent;
  }
}

common::Result<int> CoordinatorTree::Leave(common::EntityId id) {
  Node* leaf = FindLeaf(id);
  if (leaf == nullptr) return common::Status::NotFound("entity not in tree");
  ++interest_version_;
  ++route_epoch_;
  entity_interest_.erase(id);
  int messages = 1;  // notify parent
  Node* parent = leaf->parent;
  DSPS_CHECK(parent != nullptr);
  auto it = std::find_if(parent->children.begin(), parent->children.end(),
                         [leaf](const std::unique_ptr<Node>& c) {
                           return c.get() == leaf;
                         });
  DSPS_CHECK(it != parent->children.end());
  parent->children.erase(it);
  positions_.erase(id);
  load_.erase(id);

  if (positions_.empty()) {
    // Tree is empty again.
    root_ = std::make_unique<Node>();
    root_->is_leaf = false;
    total_messages_ += messages;
    if (metrics_.leaves != nullptr) {
      metrics_.leaves->Increment();
      metrics_.messages->Increment(messages);
    }
    return messages;
  }

  // Rule 2: every coordinator role the entity played is re-assigned to the
  // new center of that cluster.
  for (Node* n = parent; n != nullptr; n = n->parent) {
    if (!n->children.empty() && n->entity == id) {
      n->entity = CenterOf(*n);
      messages += static_cast<int>(n->children.size());
    }
  }
  // Rule 4: merge the (possibly) undersized cluster.
  MergeIfUndersized(parent, &messages);
  total_messages_ += messages;
  if (metrics_.leaves != nullptr) {
    metrics_.leaves->Increment();
    metrics_.messages->Increment(messages);
  }
  return messages;
}

void CoordinatorTree::MergeIfUndersized(Node* node, int* messages) {
  while (node != nullptr) {
    Node* parent = node->parent;
    // Collapse a chain at the root: a root with one internal child drops a
    // level.
    if (parent == nullptr) {
      while (node->children.size() == 1 && !node->children.front()->is_leaf) {
        auto only = std::move(node->children.front());
        node->children = std::move(only->children);
        for (auto& c : node->children) c->parent = node;
        node->entity = only->entity;
        *messages += 1;
      }
      return;
    }
    if (static_cast<int>(node->children.size()) >= config_.k ||
        parent->children.size() < 2) {
      node = parent;
      continue;
    }
    // Find the closest sibling (rule 4) and give it all our children.
    Node* sibling = nullptr;
    double best_d = std::numeric_limits<double>::max();
    for (const auto& c : parent->children) {
      if (c.get() == node) continue;
      double d =
          Distance(positions_.at(c->entity), positions_.at(node->entity));
      if (d < best_d) {
        best_d = d;
        sibling = c.get();
      }
    }
    DSPS_CHECK(sibling != nullptr);
    if (metrics_.merges != nullptr) metrics_.merges->Increment();
    *messages += static_cast<int>(node->children.size()) + 1;
    for (auto& c : node->children) {
      c->parent = sibling;
      sibling->children.push_back(std::move(c));
    }
    node->children.clear();
    // Remove the now-empty cluster from its parent.
    auto it = std::find_if(parent->children.begin(), parent->children.end(),
                           [node](const std::unique_ptr<Node>& c) {
                             return c.get() == node;
                           });
    DSPS_CHECK(it != parent->children.end());
    parent->children.erase(it);
    sibling->entity = CenterOf(*sibling);
    // The merge may have overfilled the sibling.
    SplitIfOversized(sibling, messages);
    node = parent;
  }
}

void CoordinatorTree::Recenter(Node* node, int* messages) {
  if (node->is_leaf || node->children.empty()) return;
  for (auto& c : node->children) Recenter(c.get(), messages);
  common::EntityId center = CenterOf(*node);
  if (center != node->entity) {
    node->entity = center;
    *messages += static_cast<int>(node->children.size());
  }
}

int CoordinatorTree::Maintain() {
  ++interest_version_;
  ++route_epoch_;
  int messages = 0;
  if (!root_->children.empty()) {
    Recenter(root_.get(), &messages);
    // Fix any residual size violations bottom-up.
    std::vector<Node*> internals;
    std::vector<Node*> stack{root_.get()};
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (n->is_leaf) continue;
      internals.push_back(n);
      for (const auto& c : n->children) stack.push_back(c.get());
    }
    for (auto it = internals.rbegin(); it != internals.rend(); ++it) {
      SplitIfOversized(*it, &messages);
    }
  }
  total_messages_ += messages;
  if (metrics_.maintain_rounds != nullptr) {
    metrics_.maintain_rounds->Increment();
    metrics_.messages->Increment(messages);
  }
  return messages;
}

void CoordinatorTree::SetMetrics(telemetry::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.joins = metrics->counter("coordinator.joins");
  metrics_.leaves = metrics->counter("coordinator.leaves");
  metrics_.maintain_rounds = metrics->counter("coordinator.maintain_rounds");
  metrics_.messages = metrics->counter("coordinator.messages");
  metrics_.splits = metrics->counter("coordinator.splits");
  metrics_.merges = metrics->counter("coordinator.merges");
}

int CoordinatorTree::HeartbeatRound() const {
  // Two messages (ping+ack) per parent-child pair.
  int pairs = 0;
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) continue;
    pairs += static_cast<int>(n->children.size());
    for (const auto& c : n->children) stack.push_back(c.get());
  }
  return 2 * pairs;
}

void CoordinatorTree::RefreshRouteCache(Node* node) {
  if (node->route_version == route_epoch_) return;
  if (node->is_leaf) {
    node->cached_leaves = 1;
    auto it = load_.find(node->entity);
    node->cached_load = it == load_.end() ? 0.0 : it->second;
  } else {
    size_t leaves = 0;
    double total = 0.0;
    // Child-order sum, so the cached double equals a fresh recursive
    // recomputation exactly.
    for (auto& c : node->children) {
      RefreshRouteCache(c.get());
      leaves += c->cached_leaves;
      total += c->cached_load;
    }
    node->cached_leaves = leaves;
    node->cached_load = total;
  }
  node->route_version = route_epoch_;
}

void CoordinatorTree::InvalidateRoutePath(Node* leaf) {
  for (Node* n = leaf; n != nullptr; n = n->parent) n->route_version = 0;
}

common::Result<CoordinatorTree::RouteResult> CoordinatorTree::RouteQuery(
    const Point& position, double load) {
  return Descend(nullptr, nullptr, position, load);
}

common::Result<CoordinatorTree::RouteResult> CoordinatorTree::Descend(
    const interest::InterestSet* query_interest,
    const interest::StreamCatalog* catalog, const Point& position,
    double load) {
  if (positions_.empty()) {
    return common::Status::FailedPrecondition("no entities in the tree");
  }
  RouteResult result;
  Node* node = root_.get();
  // Per-child scores of the current level, reused level after level.
  std::vector<double> load_per_leaf, dist, overlap;
  while (!node->is_leaf) {
    DSPS_CHECK(!node->children.empty());
    // Score children on coarse information: subtree load per leaf
    // (normalized by the mean across children) plus geographic proximity
    // (normalized by the mean distance across children), less the
    // normalized interest overlap when the query's interest is given. The
    // per-child aggregates come from the memoized route cache — O(fanout)
    // per level instead of O(subtree) — with values identical to the old
    // full recursion (see RefreshRouteCache).
    size_t nc = node->children.size();
    load_per_leaf.resize(nc);
    dist.resize(nc);
    if (query_interest != nullptr) overlap.resize(nc);
    double mean_load = 0.0, mean_dist = 0.0, mean_overlap = 0.0;
    for (size_t i = 0; i < nc; ++i) {
      Node* c = node->children[i].get();
      RefreshRouteCache(c);
      load_per_leaf[i] =
          c->cached_load / std::max<size_t>(1, c->cached_leaves);
      dist[i] = Distance(positions_.at(c->entity), position);
      mean_load += load_per_leaf[i];
      mean_dist += dist[i];
      if (query_interest != nullptr) {
        overlap[i] = interest::SharedRateBytesPerSec(*query_interest,
                                                     SummaryOf(c), *catalog);
        mean_overlap += overlap[i];
      }
    }
    mean_load = std::max(1e-12, mean_load / static_cast<double>(nc));
    mean_dist = std::max(1e-12, mean_dist / static_cast<double>(nc));
    mean_overlap = std::max(1e-12, mean_overlap / static_cast<double>(nc));
    size_t best = 0;
    double best_score = std::numeric_limits<double>::max();
    for (size_t i = 0; i < nc; ++i) {
      double score = load_per_leaf[i] / mean_load +
                     config_.route_geo_weight * dist[i] / mean_dist;
      if (query_interest != nullptr) {
        score -= config_.route_interest_weight * overlap[i] / mean_overlap;
      }
      if (score < best_score) {
        best_score = score;
        best = i;
      }
    }
    node = node->children[best].get();
    ++result.hops;
  }
  result.entity = node->entity;
  load_[node->entity] += load;
  InvalidateRoutePath(node);
  return result;
}

void CoordinatorTree::SetEntityInterest(common::EntityId id,
                                        const interest::InterestSet& set) {
  interest::InterestSet& slot = entity_interest_[id];
  // Change cutoff: republishing an identical set must not invalidate the
  // cached subtree summaries. The system re-ships an entity's aggregated
  // interest on every install, and at metro scale nearly all of those
  // are no-ops — without the cutoff each one forces an O(tree) summary
  // recompute on the next interest-aware route. Summaries are a pure
  // function of the stored sets, so skipping the bump when the bytes are
  // unchanged yields bit-identical routing.
  if (slot == set) return;
  slot = set;
  ++interest_version_;
}

const interest::InterestSet& CoordinatorTree::SummaryOf(Node* node) {
  if (node->summary_version == interest_version_) return node->summary;
  node->summary.Clear();
  if (node->is_leaf) {
    auto it = entity_interest_.find(node->entity);
    if (it != entity_interest_.end()) node->summary = it->second;
  } else {
    for (auto& child : node->children) {
      node->summary.MergeFrom(SummaryOf(child.get()));
    }
    node->summary.Simplify();
    interest::CoarsenInterest(&node->summary, kInterestBudget);
  }
  node->summary_version = interest_version_;
  return node->summary;
}

interest::InterestSet CoordinatorTree::SubtreeInterestOf(
    common::EntityId id) {
  if (id == common::kInvalidEntity) return SummaryOf(root_.get());
  Node* leaf = FindLeaf(id);
  if (leaf == nullptr) return interest::InterestSet();
  return SummaryOf(leaf);
}

common::Result<CoordinatorTree::RouteResult>
CoordinatorTree::RouteQueryByInterest(const interest::InterestSet& query_interest,
                                      const interest::StreamCatalog& catalog,
                                      const Point& position, double load) {
  return Descend(&query_interest, &catalog, position, load);
}

double CoordinatorTree::LoadOf(common::EntityId id) const {
  auto it = load_.find(id);
  return it == load_.end() ? 0.0 : it->second;
}

int CoordinatorTree::height() const {
  int h = 0;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    if (node->children.empty()) break;
    node = node->children.front().get();
    ++h;
  }
  return h;
}

int CoordinatorTree::CountClusterViolations(const Node& node,
                                            int depth_from_root) const {
  if (node.is_leaf) return 0;
  int violations = 0;
  int size = static_cast<int>(node.children.size());
  if (size > 3 * config_.k - 1) ++violations;
  // The root and the level directly below it are exempt from the lower
  // bound (paper Section 3.2.1).
  if (depth_from_root >= 2 && size < config_.k) ++violations;
  for (const auto& c : node.children) {
    violations += CountClusterViolations(*c, depth_from_root + 1);
  }
  return violations;
}

common::Status CoordinatorTree::CheckInvariants() const {
  // (c) every registered entity appears exactly once as a leaf.
  std::vector<common::EntityId> leaves;
  CollectLeaves(root_.get(), &leaves);
  if (leaves.size() != positions_.size()) {
    return common::Status::Internal("leaf count != entity count");
  }
  std::vector<common::EntityId> sorted = leaves;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return common::Status::Internal("duplicate leaf");
  }
  for (common::EntityId e : sorted) {
    if (positions_.count(e) == 0) {
      return common::Status::Internal("unknown leaf entity");
    }
  }
  // (a) cluster sizes.
  if (CountClusterViolations(*root_, 0) > 0) {
    return common::Status::Internal("cluster size violation");
  }
  // (b) every coordinator role is played by a subtree member, and children
  // kinds are uniform.
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) continue;
    if (!n->children.empty()) {
      bool kind = n->children.front()->is_leaf;
      for (const auto& c : n->children) {
        if (c->is_leaf != kind) {
          return common::Status::Internal("mixed child kinds");
        }
      }
      std::vector<common::EntityId> sub;
      CollectLeaves(n, &sub);
      if (std::find(sub.begin(), sub.end(), n->entity) == sub.end()) {
        return common::Status::Internal("coordinator not in own subtree");
      }
    }
    for (const auto& c : n->children) stack.push_back(c.get());
  }
  return common::Status::OK();
}

}  // namespace dsps::coordinator
