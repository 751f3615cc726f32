#ifndef DSPS_COORDINATOR_COORDINATOR_TREE_H_
#define DSPS_COORDINATOR_COORDINATOR_TREE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "interest/measure.h"
#include "sim/network.h"
#include "telemetry/registry.h"

namespace dsps::coordinator {

/// Hierarchical coordinator tree (Section 3.2.1), adapted from the NICE
/// application-layer multicast protocol [Banerjee et al., SIGCOMM'02].
///
/// Entities are the leaves. Internal nodes are *coordinator roles*, each
/// played by one member entity (the geographic center of its cluster). A
/// coordinator's children form its cluster; the protocol maintains every
/// cluster size in [k, 3k-1] — except the root and the level directly
/// below it, which are allowed to be smaller — via the paper's five rules:
/// join routing from the root, leave with parent reselection, split of
/// oversized clusters into two minimum-radius halves, merge of undersized
/// clusters into the closest sibling, and periodic re-centering.
///
/// The class is a deterministic in-memory protocol model; every operation
/// reports the number of protocol messages it would have exchanged so the
/// benches can account control overhead. (The full-system runtime drives
/// it from the simulator.)
class CoordinatorTree {
 public:
  /// Tree node (public for the implementation's file-local helpers; not
  /// part of the API surface).
  struct Node;

  struct Config {
    /// Cluster size parameter k (clusters hold k..3k-1 children).
    int k = 3;
    /// Weight of geographic proximity vs load in query routing scores.
    double route_geo_weight = 0.5;
    /// Weight of data-interest overlap in interest-aware routing
    /// (RouteQueryByInterest): higher steers queries toward subtrees
    /// already subscribed to similar data.
    double route_interest_weight = 1.0;
    /// Box budget for the coarse per-coordinator interest summaries
    /// ("a higher level coordinator distributes queries based on coarser
    /// information").
    int interest_budget = 8;
  };

  explicit CoordinatorTree(const Config& config);
  CoordinatorTree(const CoordinatorTree&) = delete;
  CoordinatorTree& operator=(const CoordinatorTree&) = delete;
  ~CoordinatorTree();

  /// Adds an entity. The request is routed from the root down the closest
  /// coordinators (rule 1); oversize clusters split (rule 3). Returns the
  /// number of protocol messages exchanged.
  common::Result<int> Join(common::EntityId id, const sim::Point& position);

  /// Removes an entity (graceful leave or detected failure — same repair
  /// path, rule 2): parent notified, coordinator roles it played are
  /// re-assigned, undersized clusters merge (rule 4). Returns messages.
  common::Result<int> Leave(common::EntityId id);

  /// Periodic maintenance (rule 5): re-select the center of every cluster;
  /// also fixes any size violations. Returns messages exchanged.
  int Maintain();

  /// One heartbeat round: every parent<->child pair exchanges a pair of
  /// messages. Returns the message count (cost of failure detection).
  int HeartbeatRound() const;

  /// Routes one query with interest centered at `position` from the root
  /// to an entity, choosing at each level the child minimizing
  ///   load_subtree/mean_load + route_geo_weight * dist/diameter.
  /// Adds `load` to the chosen entity. Returns the entity and the number
  /// of levels descended (routing messages).
  struct RouteResult {
    common::EntityId entity = common::kInvalidEntity;
    int hops = 0;
  };
  common::Result<RouteResult> RouteQuery(const sim::Point& position,
                                         double load);

  /// Registers the data interest of `id` (the union of its queries'
  /// boxes). Coordinators summarize their subtree's interest with at most
  /// `interest_budget` boxes per stream — the "coarser information" higher
  /// levels route by. Copies `set` only when it differs from the
  /// registered one.
  void SetEntityInterest(common::EntityId id,
                         const interest::InterestSet& set);

  /// Routes a query level-by-level like RouteQuery, but each child's score
  /// additionally rewards overlap between `query_interest` and the child's
  /// coarse subtree interest summary (rates via `catalog`). Queries with
  /// similar interest land near each other, cutting duplicate
  /// dissemination — the goal of Section 3.2.2, achieved with 3.2.1's
  /// scalable mechanism.
  common::Result<RouteResult> RouteQueryByInterest(
      const interest::InterestSet& query_interest,
      const interest::StreamCatalog& catalog, const sim::Point& position,
      double load);

  /// The coarse interest summary of `id`'s subtree-or-self (for tests).
  interest::InterestSet SubtreeInterestOf(common::EntityId id);

  /// Clears all routed load.
  void ResetLoad();

  /// Load currently routed to `id`.
  double LoadOf(common::EntityId id) const;

  size_t size() const { return positions_.size(); }
  bool Contains(common::EntityId id) const;
  int height() const;

  /// Verifies the structural invariants: (a) every cluster below the top
  /// two levels has size in [k, 3k-1] and no cluster exceeds 3k-1;
  /// (b) every coordinator role is played by an entity of its own subtree;
  /// (c) every entity appears exactly once as a leaf.
  common::Status CheckInvariants() const;

  /// Messages exchanged since construction (joins+leaves+maintenance).
  int64_t total_messages() const { return total_messages_; }

  /// Attaches a metrics registry (null = detach; default off, zero cost).
  /// Exports coordinator.joins / .leaves / .maintain_rounds / .splits /
  /// .merges event counters plus coordinator.messages — the cluster-
  /// maintenance overhead of Section 3.2.1.
  void SetMetrics(telemetry::MetricsRegistry* metrics);

 private:
  Node* FindLeaf(common::EntityId id) const;
  /// Picks the member entity closest to the centroid of `node`'s leaves.
  common::EntityId CenterOf(const Node& node) const;
  void SplitIfOversized(Node* node, int* messages);
  void MergeIfUndersized(Node* node, int* messages);
  void Recenter(Node* node, int* messages);
  double SubtreeLoad(const Node& node) const;
  int CountClusterViolations(const Node& node, int depth_from_root) const;

  /// Lazily recomputes (and caches) `node`'s coarse interest summary.
  const interest::InterestSet& SummaryOf(Node* node);

  /// Lazily recomputes (and caches) `node`'s routing aggregates: subtree
  /// leaf count and subtree load. The memoized sum associates exactly
  /// like the plain recursion it replaced (node = Σ children, in child
  /// order), so the cached doubles are bit-identical to a fresh
  /// recomputation — routing decisions cannot drift. Invalidation:
  /// structural changes bump route_epoch_ (whole tree); each routed
  /// query invalidates only its root-to-leaf path.
  void RefreshRouteCache(Node* node);
  /// Marks the path from `leaf` to the root stale (its loads changed).
  static void InvalidateRoutePath(Node* leaf);

  Config config_;
  std::unique_ptr<Node> root_;
  std::map<common::EntityId, sim::Point> positions_;
  std::map<common::EntityId, double> load_;
  std::map<common::EntityId, interest::InterestSet> entity_interest_;
  /// Bumped on any structural or interest change; invalidates summaries.
  uint64_t interest_version_ = 1;
  /// Bumped on structural changes and ResetLoad; invalidates the routing
  /// caches everywhere at once. (Interest changes leave it alone: they
  /// cannot move load or leaves.)
  uint64_t route_epoch_ = 1;
  int64_t total_messages_ = 0;

  /// Cached counters; all null unless SetMetrics attached a registry.
  struct {
    telemetry::Counter* joins = nullptr;
    telemetry::Counter* leaves = nullptr;
    telemetry::Counter* maintain_rounds = nullptr;
    telemetry::Counter* messages = nullptr;
    telemetry::Counter* splits = nullptr;
    telemetry::Counter* merges = nullptr;
  } metrics_;
};

}  // namespace dsps::coordinator

#endif  // DSPS_COORDINATOR_COORDINATOR_TREE_H_
