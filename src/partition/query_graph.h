#ifndef DSPS_PARTITION_QUERY_GRAPH_H_
#define DSPS_PARTITION_QUERY_GRAPH_H_

#include <span>
#include <vector>

#include "common/ids.h"
#include "engine/plan.h"
#include "interest/box_index.h"
#include "interest/measure.h"

namespace dsps::partition {

/// The weighted query graph of Section 3.2.2: one vertex per query
/// (weight = query load), an undirected edge between two queries whose data
/// interests overlap (weight = arrival rate, bytes/s, of the data
/// interesting to both). Partitioning this graph into k balanced parts with
/// minimum weighted edge cut assigns queries to the k entities.
class QueryGraph {
 public:
  QueryGraph() = default;

  /// Adds a vertex for `query` with the given load weight; returns its
  /// dense index.
  int AddVertex(common::QueryId query, double weight);

  /// Adds (or accumulates onto) the undirected edge {a, b}. Requires
  /// a != b and nonnegative weight; zero-weight edges are ignored.
  void AddEdge(int a, int b, double weight);

  int num_vertices() const { return static_cast<int>(weights_.size()); }
  double vertex_weight(int v) const { return weights_[v]; }
  common::QueryId query(int v) const { return queries_[v]; }
  double total_vertex_weight() const { return total_weight_; }

  /// Adjacency of `v` as (neighbor, weight) pairs.
  const std::vector<std::pair<int, double>>& neighbors(int v) const {
    return adj_[v];
  }

  /// Sum of all edge weights (each undirected edge counted once).
  double total_edge_weight() const { return total_edge_weight_; }

  /// Weighted edge cut of `assignment` (one part id per vertex).
  double EdgeCut(const std::vector<int>& assignment) const;

  /// Per-part vertex-weight sums.
  std::vector<double> PartWeights(const std::vector<int>& assignment,
                                  int k) const;

  /// max part weight / ideal part weight (1.0 = perfectly balanced).
  double Imbalance(const std::vector<int>& assignment, int k) const;

  /// Builds the graph from queries: vertices in order, edges between every
  /// pair with shared interest rate above `min_edge_weight` (bytes/s).
  /// Indexed construction: an inverted stream -> query index plus a
  /// per-stream interest::BoxIndex prune the pair space to genuinely
  /// geometrically-overlapping pairs before the (expensive) shared-rate
  /// measurement; pairs that merely co-subscribe a stream without box
  /// overlap anywhere carry zero shared rate and are skipped. Edges are
  /// emitted ordered by (first shared stream, a, b) — the order the
  /// historical all-pairs scan produced — so adjacency lists and every
  /// downstream partition are bit-identical to it. When `index_stats` is
  /// non-null, the per-stream box indexes' statistics (boxes,
  /// memory, buckets) are accumulated into it before they are torn
  /// down.
  static QueryGraph Build(std::span<const engine::Query> queries,
                          const interest::StreamCatalog& catalog,
                          double min_edge_weight = 1e-9,
                          interest::IndexStats* index_stats = nullptr);

 private:
  std::vector<common::QueryId> queries_;
  std::vector<double> weights_;
  std::vector<std::vector<std::pair<int, double>>> adj_;
  double total_weight_ = 0.0;
  double total_edge_weight_ = 0.0;
};

/// First element two ascending stream lists share (kInvalidStream if
/// disjoint) — the stream a pairwise per-stream scan first sees a pair at,
/// which fixes the graph's edge-emission order.
common::StreamId FirstSharedStream(const std::vector<common::StreamId>& a,
                                   const std::vector<common::StreamId>& b);

}  // namespace dsps::partition

#endif  // DSPS_PARTITION_QUERY_GRAPH_H_
