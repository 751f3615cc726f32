#ifndef DSPS_TENANT_ELASTICITY_H_
#define DSPS_TENANT_ELASTICITY_H_

#include <map>

#include "tenant/tenant.h"

namespace dsps::tenant {

/// Decides when an entity should add or remove an intra-entity processor.
/// Pure and deterministic: the System feeds it periodic per-entity
/// observations (committed load, capacity, and the operator-placement
/// PR_k accounting of Section 4.1) and executes its decisions. Hysteresis
/// comes from watermark separation plus a sustain requirement — a
/// watermark must hold for two consecutive observations before the
/// manager acts, so transient spikes do not thrash capacity.
class ElasticityManager {
 public:
  struct Config {
    /// Grow when committed load / capacity sustains above this...
    double high_watermark = 0.85;
    /// ...shrink when it sustains below this.
    double low_watermark = 0.30;
    /// Per-entity processor-count ceiling. Shrink never removes the
    /// gateway, so the floor is one processor.
    int max_processors = 8;
    /// Optional second trigger: also grow when the entity's result
    /// Performance Ratio p95 sustains above this (0 disables). Reuses the
    /// PR_k machinery as a queueing-delay signal that fires even when the
    /// declared-load estimate is optimistic.
    double pr_p95_limit = 0.0;
  };

  enum class Action { kNone, kGrow, kShrink };

  /// One periodic sample of an entity's state.
  struct Observation {
    int entity = 0;
    double committed_load = 0.0;
    /// processors * per-processor capacity (CPU s/s).
    double capacity = 0.0;
    double pr_p95 = 0.0;
    int processors = 0;
  };

  struct Stats {
    int grow_decisions = 0;
    int shrink_decisions = 0;
  };

  explicit ElasticityManager(const Config& config) : config_(config) {}

  const Config& config() const { return config_; }
  const Stats& stats() const { return stats_; }

  /// Feeds one observation; returns the action to take now. A returned
  /// kGrow/kShrink resets the entity's streaks (the caller is expected to
  /// act, and the next observations see the new capacity).
  Action Evaluate(const Observation& obs);

  /// Forgets an entity's streaks (e.g. on crash/evict).
  void Forget(int entity);

 private:
  Config config_;
  Stats stats_;
  std::map<int, int> high_streak_;
  std::map<int, int> low_streak_;
};

}  // namespace dsps::tenant

#endif  // DSPS_TENANT_ELASTICITY_H_
