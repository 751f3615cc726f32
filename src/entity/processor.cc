#include "entity/processor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dsps::entity {

Processor::Processor(common::ProcessorId id, sim::Network* network,
                     common::SimNodeId node,
                     std::unique_ptr<engine::ExecutionEngine> engine)
    : id_(id), network_(network), node_(node), engine_(std::move(engine)) {
  static_assert(kProcessorCapacity > 0);
  DSPS_CHECK(network != nullptr);
  DSPS_CHECK(engine_ != nullptr);
}

common::Status Processor::InstallFragment(
    std::unique_ptr<engine::FragmentInstance> f) {
  return engine_->Install(std::move(f));
}

common::Result<std::unique_ptr<engine::FragmentInstance>>
Processor::RemoveFragment(common::FragmentId id) {
  std::vector<engine::TaggedOutput> flushed;
  auto result = engine_->Remove(id, &flushed);
  if (!flushed.empty() && emission_) {
    double completion = network_->simulator()->now();
    for (auto& out : flushed) {
      emission_(Emission{std::move(out), completion});
    }
  }
  return result;
}

void Processor::SetEmissionHandler(EmissionHandler handler) {
  emission_ = std::move(handler);
}

common::Status Processor::Submit(engine::FragmentInstance& fragment,
                                 common::OperatorId op, int port,
                                 const engine::Tuple& tuple) {
  std::vector<engine::TaggedOutput> outputs;
  DSPS_RETURN_IF_ERROR(engine_->Inject(fragment, op, port, tuple, &outputs));
  Charge(tuple, std::move(outputs));
  return common::Status::OK();
}

common::Status Processor::Submit(common::FragmentId fragment,
                                 common::OperatorId op, int port,
                                 const engine::Tuple& tuple) {
  std::vector<engine::TaggedOutput> outputs;
  DSPS_RETURN_IF_ERROR(engine_->Inject(fragment, op, port, tuple, &outputs));
  Charge(tuple, std::move(outputs));
  return common::Status::OK();
}

void Processor::Charge(const engine::Tuple& tuple,
                       std::vector<engine::TaggedOutput> outputs) {
  double cost = engine_->DrainCpuCost() / kProcessorCapacity;
  sim::Simulator* sim = network_->simulator();
  double start = std::max(sim->now(), busy_until_);
  busy_until_ = start + cost;
  busy_seconds_ += cost;
  tuples_processed_ += 1;
  double completion = busy_until_;
  if (tuple.trace_id != 0) {
    // Downstream hops and the final result keep the sampled tuple's trace.
    for (engine::TaggedOutput& out : outputs) {
      out.output.tuple.trace_id = tuple.trace_id;
    }
    if (trace_ != nullptr) {
      trace_->Record(tuple.trace_id, telemetry::Stage::kQueueWait, sim->now(),
                     start);
      trace_->Record(tuple.trace_id, telemetry::Stage::kExecute, start,
                     completion);
    }
  }
  if (tuples_counter_ != nullptr) {
    tuples_counter_->Increment();
    queue_wait_hist_->Observe(start - sim->now());
    backlog_gauge_->Set(busy_until_ - sim->now());
    if (sim->now() > 0) utilization_gauge_->Set(busy_seconds_ / sim->now());
  }
  if (!outputs.empty() && emission_) {
    // Deliver outputs when the CPU work completes.
    uint32_t slot;
    if (!free_pending_.empty()) {
      slot = free_pending_.back();
      free_pending_.pop_back();
    } else {
      slot = static_cast<uint32_t>(pending_.size());
      pending_.emplace_back();
    }
    pending_[slot] = PendingEmission{std::move(outputs), completion};
    sim->ScheduleAt(completion, [this, slot]() { EmitPending(slot); });
  }
}

void Processor::EmitPending(uint32_t slot) {
  // Take the outputs and free the slot first: an emission may submit more
  // work here, which can reuse the slot or grow pending_.
  PendingEmission done = std::move(pending_[slot]);
  free_pending_.push_back(slot);
  for (engine::TaggedOutput& out : done.outputs) {
    emission_(Emission{std::move(out), done.completion_time});
  }
}

void Processor::SetTelemetry(telemetry::MetricsRegistry* metrics,
                             telemetry::TraceLog* trace,
                             const telemetry::Labels& labels) {
  trace_ = trace;
  if (metrics == nullptr) {
    tuples_counter_ = nullptr;
    queue_wait_hist_ = nullptr;
    backlog_gauge_ = nullptr;
    utilization_gauge_ = nullptr;
    return;
  }
  tuples_counter_ = metrics->counter("processor.tuples", labels);
  queue_wait_hist_ = metrics->histogram("processor.queue_wait_s", labels);
  backlog_gauge_ = metrics->gauge("processor.backlog_s", labels);
  utilization_gauge_ = metrics->gauge("processor.utilization", labels);
}

double Processor::backlog_seconds() const {
  double now = network_->simulator()->now();
  return std::max(0.0, busy_until_ - now);
}

}  // namespace dsps::entity
