#ifndef DSPS_PLACEMENT_PLACEMENT_H_
#define DSPS_PLACEMENT_PLACEMENT_H_

#include <map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "placement/fragmenter.h"

namespace dsps::placement {

/// The optimizer's view of one processor.
struct ProcessorSpec {
  common::ProcessorId id = common::kInvalidProcessor;
  /// CPU seconds available per second (1.0 = one dedicated core).
  double capacity = 1.0;
  /// Load already committed (CPU s/s).
  double base_load = 0.0;
};

/// Everything a placement decision needs. Fragments of the same query
/// appear consecutively, in pipeline (topological) order, so a policy can
/// track which processors a query already uses.
struct PlacementInput {
  std::vector<ProcessorSpec> processors;
  std::vector<FragmentSpec> fragments;
  /// The processor at which each fragment's external input arrives: the
  /// stream delegate for source fragments, or the processor of the
  /// upstream fragment once placed (filled by policies as they go). -1 if
  /// unconstrained.
  std::map<common::FragmentId, common::ProcessorId> input_home;
  /// Maximum number of distinct processors one query may touch
  /// (Section 4.1's "distribution limit").
  int distribution_limit = 2;
};

/// fragment id -> processor id.
using Placement = std::map<common::FragmentId, common::ProcessorId>;

/// Places fragments on processors (Section 4.1). This is an *assignment*
/// problem: stream delegation pins where each query's input enters the
/// cluster, unlike Flux/Borealis-style symmetric partitioning.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual const char* name() const = 0;
  virtual common::Result<Placement> Place(const PlacementInput& input) = 0;
};

/// The paper's heuristics, in priority order: (1) balance load across
/// processors, (2) keep each query on at most `distribution_limit`
/// processors, (3) among balanced options minimize communication traffic
/// (prefer the fragment's input home and processors the query already
/// uses).
class PrAwarePlacement : public PlacementPolicy {
 public:
  const char* name() const override { return "pr-aware"; }
  common::Result<Placement> Place(const PlacementInput& input) override;
};

/// Baseline: balance CPU load only; ignores the distribution limit and all
/// traffic (what Flux/Borealis-style balancing would do to this problem).
class LoadOnlyPlacement : public PlacementPolicy {
 public:
  const char* name() const override { return "load-only"; }
  common::Result<Placement> Place(const PlacementInput& input) override;
};

/// Baseline: uniform random processor per fragment.
class RandomPlacement : public PlacementPolicy {
 public:
  explicit RandomPlacement(uint64_t seed = 1);
  const char* name() const override { return "random"; }
  common::Result<Placement> Place(const PlacementInput& input) override;

 private:
  common::Rng rng_;
};

/// Post-placement diagnostics used by tests and benches.
struct PlacementMetrics {
  /// max processor utilization (load/capacity).
  double max_utilization = 0.0;
  double mean_utilization = 0.0;
  /// Bytes/s crossing processor boundaries (fragment inputs whose home
  /// differs from their placement, plus inter-fragment edges across
  /// processors).
  double cross_traffic_bytes_s = 0.0;
  /// Number of queries exceeding the distribution limit.
  int limit_violations = 0;
  /// Max number of distinct processors used by one query.
  int max_processors_per_query = 0;
};

PlacementMetrics EvaluatePlacement(const PlacementInput& input,
                                   const Placement& placement);

}  // namespace dsps::placement

#endif  // DSPS_PLACEMENT_PLACEMENT_H_
