#ifndef DSPS_PARTITION_PARTITIONER_H_
#define DSPS_PARTITION_PARTITIONER_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "partition/query_graph.h"

namespace dsps::partition {

/// Produces a k-way assignment of query-graph vertices to entities,
/// balancing vertex weight (load) while minimizing the weighted edge cut
/// (duplicate dissemination traffic).
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual const char* name() const = 0;

  /// Returns one part id in [0, k) per vertex. `tolerance` bounds
  /// each part's weight to tolerance * (total/k), best effort: a single
  /// overweight vertex can exceed it.
  virtual common::Result<std::vector<int>> Partition(
      const QueryGraph& graph, int k, double tolerance) = 0;
};

/// Baseline: longest-processing-time greedy load balancing that ignores
/// interest overlap entirely (the "load sharing at query level, overlap
/// oblivious" regime). Excellent balance, arbitrary edge cut.
class LoadOnlyPartitioner : public Partitioner {
 public:
  const char* name() const override { return "load-only"; }
  common::Result<std::vector<int>> Partition(const QueryGraph& graph, int k,
                                             double tolerance) override;
};

/// Multilevel heuristic (METIS-style): heavy-edge-matching coarsening,
/// greedy edge-aware initial partitioning at the coarsest level, then
/// projection with boundary refinement at every level.
class MultilevelPartitioner : public Partitioner {
 public:
  const char* name() const override { return "multilevel"; }
  common::Result<std::vector<int>> Partition(const QueryGraph& graph, int k,
                                             double tolerance) override;
};

/// Greedy edge-aware initial partitioning: vertices in descending weight
/// order, each placed on the part it has the most edge weight to, among
/// parts that stay within the balance bound (lightest part as fallback).
std::vector<int> GreedyGrowPartition(const QueryGraph& graph, int k,
                                     double tolerance,
                                     common::Rng* rng);

/// Boundary refinement (simplified Fiduccia-Mattheyses): repeatedly moves
/// the vertex with the best cut gain to a neighboring part, subject to the
/// balance bound. Returns the number of moves applied.
int FmRefine(const QueryGraph& graph, std::vector<int>* assignment, int k,
             double tolerance, int passes);

}  // namespace dsps::partition

#endif  // DSPS_PARTITION_PARTITIONER_H_
