#ifndef DSPS_PARTITION_GRAPH_INDEX_H_
#define DSPS_PARTITION_GRAPH_INDEX_H_

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "engine/plan.h"
#include "interest/box_index.h"
#include "interest/measure.h"
#include "partition/query_graph.h"

namespace dsps::partition {

/// Incrementally maintained weighted query graph (Section 3.2.2). A
/// repartition round used to rebuild the full graph from scratch — every
/// query pair re-measured — even though a round of churn only touches a
/// handful of queries. This index keeps per-stream interest::BoxIndex
/// structures over the live queries and applies graph *deltas*: AddQuery
/// measures the new query only against the queries whose boxes genuinely
/// overlap its own, and RemoveQuery drops the vertex and its incident
/// edges.
///
/// Graph() materializes a QueryGraph that is identical — vertex order,
/// adjacency order, weights — to QueryGraph::Build over the live queries
/// in ascending query-id order, so swapping a full rebuild for the index
/// changes no partition decision (property-tested in graph_index_test).
class QueryGraphIndex {
 public:
  /// `catalog` must outlive this object and contain every stream the
  /// queries' edge weights should account for (streams registered later
  /// are picked up by subsequent AddQuery calls only).
  explicit QueryGraphIndex(const interest::StreamCatalog* catalog,
                           double min_edge_weight = 1e-9);

  /// Inserts `query` and measures shared-rate edges against the existing
  /// queries whose interest boxes overlap its own on some catalog stream.
  /// Re-adding a live id replaces it (remove + add).
  void AddQuery(const engine::Query& query);

  /// Aggregated statistics of the per-stream box indexes.
  interest::IndexStats StreamIndexStats() const;

  /// Removes the query, its edges, and its spatial registrations. No-op
  /// for unknown ids.
  void RemoveQuery(common::QueryId id);

  bool Contains(common::QueryId id) const { return vertices_.count(id) > 0; }
  size_t size() const { return vertices_.size(); }
  size_t num_edges() const { return edges_.size(); }

  /// Materializes the current graph: vertices ascending by query id,
  /// edges ordered by (first shared stream, a, b) — exactly
  /// QueryGraph::Build's output over the same queries.
  QueryGraph Graph() const;

 private:
  struct VertexInfo {
    double load = 0.0;
    interest::InterestSet interest;
    /// Cached ascending stream list (fixes edge-emission order).
    std::vector<common::StreamId> streams;
    std::set<common::QueryId> neighbors;
  };
  struct EdgeInfo {
    double weight = 0.0;
    common::StreamId first_shared = common::kInvalidStream;
  };
  using EdgeKey = std::pair<common::QueryId, common::QueryId>;

  static EdgeKey MakeEdgeKey(common::QueryId a, common::QueryId b) {
    return a < b ? EdgeKey{a, b} : EdgeKey{b, a};
  }

  const interest::StreamCatalog* catalog_;
  double min_edge_weight_;
  std::map<common::QueryId, VertexInfo> vertices_;
  std::map<EdgeKey, EdgeInfo> edges_;
  /// Per catalog stream: spatial index of the live queries' boxes
  /// (subscriber = query id), created lazily on first subscription.
  std::map<common::StreamId, interest::BoxIndex> stream_index_;
};

}  // namespace dsps::partition

#endif  // DSPS_PARTITION_GRAPH_INDEX_H_
