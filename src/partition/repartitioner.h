#ifndef DSPS_PARTITION_REPARTITIONER_H_
#define DSPS_PARTITION_REPARTITIONER_H_

#include <memory>
#include <string>
#include <vector>

#include "partition/partitioner.h"
#include "partition/query_graph.h"
#include "telemetry/registry.h"

namespace dsps::partition {

/// Outcome of one adaptive repartitioning step (Section 3.2.2's runtime
/// adaptation): the new assignment plus the costs the paper trades off —
/// query movements (migrations) and decision-making time.
struct RepartitionResult {
  std::vector<int> assignment;
  /// Vertices whose part changed relative to the old assignment (vertices
  /// with no previous home are not counted).
  int migrations = 0;
  double edge_cut = 0.0;
  double imbalance = 1.0;
  /// Wall-clock seconds spent deciding.
  double decision_seconds = 0.0;
};

/// Adapts an existing assignment to a changed query graph. The old
/// assignment may be shorter than the graph (new queries appended) and may
/// contain -1 for unassigned vertices.
class Repartitioner {
 public:
  virtual ~Repartitioner() = default;
  virtual const char* name() const = 0;
  virtual RepartitionResult Repartition(const QueryGraph& graph,
                                        const std::vector<int>& old_assignment,
                                        int k, double tolerance) = 0;

  /// Attaches a metrics registry (null = detach; default off, zero cost).
  /// Every Repartition then records, labeled {strategy=name()}:
  /// partition.repartitions / .migrations counters, partition.edge_cut /
  /// .imbalance gauges, and a partition.decision_seconds histogram.
  void SetMetrics(telemetry::MetricsRegistry* metrics) { metrics_ = metrics; }

 protected:
  /// Implementations call this once with the final result of a step.
  void RecordMetrics(const RepartitionResult& result);

 private:
  telemetry::MetricsRegistry* metrics_ = nullptr;
};

/// Extreme 1 (paper): repartition from scratch with the multilevel
/// partitioner, then relabel parts to minimize migrations. Near-optimal
/// cut, long decision time, many query movements.
class ScratchRepartitioner : public Repartitioner {
 public:
  const char* name() const override { return "scratch"; }
  RepartitionResult Repartition(const QueryGraph& graph,
                                const std::vector<int>& old_assignment, int k,
                                double tolerance) override;

 private:
  MultilevelPartitioner partitioner_;
};

/// Extreme 2 (paper): cut vertices from overloaded parts to underloaded
/// ones "without considering the relationship of overlap in data
/// interest". Fast, few migrations, but the cut degrades over time.
class IncrementalRepartitioner : public Repartitioner {
 public:
  const char* name() const override { return "incremental"; }
  RepartitionResult Repartition(const QueryGraph& graph,
                                const std::vector<int>& old_assignment, int k,
                                double tolerance) override;
};

/// The desirable middle ground the paper calls for: restore balance by
/// moving *boundary* vertices with the best (cut-gain, load) trade-off,
/// then run bounded local refinement. Decision time and migrations stay
/// near the incremental extreme while the cut stays near the scratch one.
class HybridRepartitioner : public Repartitioner {
 public:
  const char* name() const override { return "hybrid"; }
  RepartitionResult Repartition(const QueryGraph& graph,
                                const std::vector<int>& old_assignment, int k,
                                double tolerance) override;
};

/// Cut/imbalance of an arbitrary assignment — the common yardstick for
/// comparing repartitioning strategies against algorithmic (placement-map)
/// assignments that no Repartitioner produced.
struct AssignmentQuality {
  double edge_cut = 0.0;
  double imbalance = 1.0;
};
AssignmentQuality EvaluateAssignment(const QueryGraph& graph,
                                     const std::vector<int>& assignment,
                                     int k);

/// Strategy selection by name ("scratch", "incremental", "hybrid") for
/// benches and CI legs that sweep strategies; null for unknown names.
std::unique_ptr<Repartitioner> MakeRepartitioner(const std::string& name);

/// Relabels `new_assignment`'s part ids to maximize vertex-weight overlap
/// with `old_assignment` (greedy max-weight matching on the k x k overlap
/// matrix). Minimizes spurious migrations after a from-scratch partition.
void RelabelToMinimizeMigrations(const QueryGraph& graph,
                                 const std::vector<int>& old_assignment,
                                 std::vector<int>* new_assignment, int k);

/// Counts vertices with a previous home whose part changed.
int CountMigrations(const std::vector<int>& old_assignment,
                    const std::vector<int>& new_assignment);

}  // namespace dsps::partition

#endif  // DSPS_PARTITION_REPARTITIONER_H_
