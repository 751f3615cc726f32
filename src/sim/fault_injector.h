#ifndef DSPS_SIM_FAULT_INJECTOR_H_
#define DSPS_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "telemetry/registry.h"

namespace dsps::sim {

/// Deterministic fault-injection layer for the simulated network.
///
/// The injector is consulted by Network::Send for every message (and again
/// at delivery time for crash windows); it decides — from its own seeded
/// RNG and the configured fault model — whether the message is dropped,
/// duplicated, or delayed. Faults come in four flavors:
///
///  * node crashes: messages from or to a down node are dropped (a crash
///    window is CrashNode .. RecoverNode; in-flight messages addressed to
///    a node that crashes before delivery are also lost);
///  * link partitions: a bidirectional pair block, dropped at send time;
///  * message loss: per-message Bernoulli drop, globally or per directed
///    link;
///  * latency jitter & duplication: uniform extra delay and occasional
///    double delivery, the classic at-least-once hazards.
///
/// Everything is counted (plain accessors always; labeled
/// fault.dropped/fault.duplicated counters when a registry is attached),
/// so no injected fault is ever silent. A Network with no injector
/// attached takes no RNG draws and behaves bit-identically to a build
/// without this layer.
class FaultInjector {
 public:
  struct Config {
    /// Seed of the injector's private RNG. Two runs with equal seeds and
    /// equal fault schedules inject exactly the same faults.
    uint64_t seed = 1;
    /// Probability that any non-local message is dropped in flight.
    double loss_probability = 0.0;
    /// Probability that a delivered message is delivered twice.
    double duplication_probability = 0.0;
    /// Extra per-message latency, uniform in [0, latency_jitter_s).
    double latency_jitter_s = 0.0;
  };

  /// Why a message was dropped (kNone = deliver it).
  enum class DropReason { kNone = 0, kNodeDown, kPartition, kLoss };

  /// The injector's decision for one message.
  struct Verdict {
    DropReason drop = DropReason::kNone;
    bool duplicate = false;
    double extra_latency_s = 0.0;
    /// Extra latency of the duplicate copy (when duplicate is set).
    double duplicate_extra_latency_s = 0.0;
  };

  explicit FaultInjector(const Config& config);

  /// Decides the fate of one message about to be sent. Consumes RNG; call
  /// exactly once per send for reproducibility. Drops are counted here.
  Verdict Judge(common::SimNodeId from, common::SimNodeId to);

  /// Marks a node crashed: every message from or to it drops until
  /// RecoverNode. Idempotent.
  void CrashNode(common::SimNodeId node);
  void RecoverNode(common::SimNodeId node);
  bool IsNodeUp(common::SimNodeId node) const;

  /// Correlated failure: crashes (recovers) every node of the group as
  /// one event — a whole rack or site going dark at once, the scenario
  /// declustered placement must straddle. Counted separately from
  /// independent crashes so benches can report how many correlated
  /// events a run survived.
  void CrashGroup(const std::vector<common::SimNodeId>& nodes);
  void RecoverGroup(const std::vector<common::SimNodeId>& nodes);
  int64_t correlated_crash_events() const { return correlated_crashes_; }

  /// Blocks the (a, b) pair in both directions until Heal. Idempotent.
  void Partition(common::SimNodeId a, common::SimNodeId b);
  void Heal(common::SimNodeId a, common::SimNodeId b);
  bool IsPartitioned(common::SimNodeId a, common::SimNodeId b) const;

  /// Overrides the loss probability of the directed link (from, to);
  /// negative restores the global default.
  void SetLinkLossProbability(common::SimNodeId from, common::SimNodeId to,
                              double p);

  /// Counts a drop decided outside Judge (the network's delivery-time
  /// crash check). Keeps all drop accounting in one place.
  void CountDrop(DropReason reason);

  int64_t dropped_node_down() const { return dropped_node_down_; }
  int64_t dropped_partition() const { return dropped_partition_; }
  int64_t dropped_loss() const { return dropped_loss_; }
  int64_t total_dropped() const {
    return dropped_node_down_ + dropped_partition_ + dropped_loss_;
  }
  int64_t duplicated() const { return duplicated_; }

  /// The declared bound on the extra latency Judge adds to one message
  /// (Config::latency_jitter_s). Reading it takes no RNG draw.
  double latency_jitter_bound_s() const { return config_.latency_jitter_s; }

  /// Attaches a metrics registry (null detaches; default off, zero cost).
  /// Exports fault.dropped{reason=node_down|partition|loss} and
  /// fault.duplicated counters.
  void SetMetrics(telemetry::MetricsRegistry* metrics);

 private:
  static std::pair<common::SimNodeId, common::SimNodeId> Ordered(
      common::SimNodeId a, common::SimNodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  Config config_;
  common::Rng rng_;
  std::set<common::SimNodeId> down_nodes_;
  std::set<std::pair<common::SimNodeId, common::SimNodeId>> partitions_;
  std::map<std::pair<common::SimNodeId, common::SimNodeId>, double>
      link_loss_;
  int64_t dropped_node_down_ = 0;
  int64_t dropped_partition_ = 0;
  int64_t dropped_loss_ = 0;
  int64_t duplicated_ = 0;
  int64_t correlated_crashes_ = 0;
  telemetry::Counter* drop_node_down_counter_ = nullptr;
  telemetry::Counter* drop_partition_counter_ = nullptr;
  telemetry::Counter* drop_loss_counter_ = nullptr;
  telemetry::Counter* duplicated_counter_ = nullptr;
};

}  // namespace dsps::sim

#endif  // DSPS_SIM_FAULT_INJECTOR_H_
