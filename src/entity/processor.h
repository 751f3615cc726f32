#ifndef DSPS_ENTITY_PROCESSOR_H_
#define DSPS_ENTITY_PROCESSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "engine/engine.h"
#include "sim/network.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace dsps::entity {

/// CPU capacity of every processor (CPU seconds per second: one core).
inline constexpr double kProcessorCapacity = 1.0;

/// A simulated processor: one machine of an entity's cluster. It hosts an
/// ExecutionEngine with the fragments placed on it and charges simulated
/// CPU time for every tuple, so queueing delay (the "time waiting for
/// processing" in the paper's delay decomposition) emerges naturally from
/// load.
class Processor {
 public:
  /// A boundary output together with the simulated time processing of its
  /// input finished (delay accounting).
  struct Emission {
    engine::TaggedOutput output;
    double completion_time = 0.0;
  };
  using EmissionHandler = std::function<void(const Emission&)>;

  /// `network` and `engine` define where and how this processor runs; it
  /// has kProcessorCapacity CPU seconds available per second.
  Processor(common::ProcessorId id, sim::Network* network,
            common::SimNodeId node,
            std::unique_ptr<engine::ExecutionEngine> engine);

  common::ProcessorId id() const { return id_; }
  common::SimNodeId node() const { return node_; }
  engine::ExecutionEngine* engine() { return engine_.get(); }

  /// Installs / removes fragments on the hosted engine.
  common::Status InstallFragment(std::unique_ptr<engine::FragmentInstance> f);
  common::Result<std::unique_ptr<engine::FragmentInstance>> RemoveFragment(
      common::FragmentId id);

  /// Called for every boundary output, at its completion time.
  void SetEmissionHandler(EmissionHandler handler);

  /// Submits one tuple to (op, port) of `fragment`, a fragment hosted
  /// here (a handle the entity resolved at install or move time). The
  /// work starts when the CPU frees up; outputs are emitted at the
  /// completion time.
  common::Status Submit(engine::FragmentInstance& fragment,
                        common::OperatorId op, int port,
                        const engine::Tuple& tuple);
  /// The same by fragment id, for tuples that crossed the LAN: NotFound
  /// if the fragment is no longer hosted here.
  common::Status Submit(common::FragmentId fragment, common::OperatorId op,
                        int port, const engine::Tuple& tuple);

  /// Seconds of queued work ahead of a tuple submitted now.
  double backlog_seconds() const;

  /// Total CPU-seconds consumed so far.
  double busy_seconds() const { return busy_seconds_; }
  int64_t tuples_processed() const { return tuples_processed_; }

  /// Load committed via fragment installation bookkeeping (CPU s/s), used
  /// by placement decisions; maintained by the entity runtime.
  double committed_load() const { return committed_load_; }
  void AddCommittedLoad(double delta) { committed_load_ += delta; }

  /// Attaches telemetry (either pointer may be null; default off, zero
  /// cost). `labels` identify this processor (e.g. {entity, processor}).
  /// With metrics, every Submit updates a processor.tuples counter, a
  /// processor.queue_wait_s histogram, and processor.backlog_s /
  /// .utilization gauges. With a trace log, sampled tuples get queue_wait
  /// and execute spans, and outputs inherit the input's trace id.
  void SetTelemetry(telemetry::MetricsRegistry* metrics,
                    telemetry::TraceLog* trace,
                    const telemetry::Labels& labels);

 private:
  /// Charges the CPU cost of the injection that produced `outputs` from
  /// `tuple` and schedules their emission at its completion time.
  void Charge(const engine::Tuple& tuple,
              std::vector<engine::TaggedOutput> outputs);
  /// The completion event of pending_[slot]: frees the slot and emits
  /// its outputs.
  void EmitPending(uint32_t slot);

  /// Outputs waiting for their completion time.
  struct PendingEmission {
    std::vector<engine::TaggedOutput> outputs;
    double completion_time = 0.0;
  };

  common::ProcessorId id_;
  sim::Network* network_;
  common::SimNodeId node_;
  std::unique_ptr<engine::ExecutionEngine> engine_;
  double busy_until_ = 0.0;
  double busy_seconds_ = 0.0;
  double committed_load_ = 0.0;
  int64_t tuples_processed_ = 0;
  EmissionHandler emission_;
  /// One recycled slot per scheduled completion; the event captures
  /// {this, slot}, which fits std::function's inline buffer, so a
  /// completion costs no allocation to schedule. (Retired processors stay
  /// alive in their entity, so a pending `this` never dangles.)
  std::vector<PendingEmission> pending_;
  std::vector<uint32_t> free_pending_;
  telemetry::TraceLog* trace_ = nullptr;
  telemetry::Counter* tuples_counter_ = nullptr;
  telemetry::HistogramMetric* queue_wait_hist_ = nullptr;
  telemetry::Gauge* backlog_gauge_ = nullptr;
  telemetry::Gauge* utilization_gauge_ = nullptr;
};

}  // namespace dsps::entity

#endif  // DSPS_ENTITY_PROCESSOR_H_
