#include "engine/fragment.h"

#include <deque>
#include <set>

#include "common/check.h"

namespace dsps::engine {

FragmentInstance::FragmentInstance(common::QueryId query, common::FragmentId id)
    : query_(query), id_(id) {}

common::Result<std::unique_ptr<FragmentInstance>> FragmentInstance::Create(
    const QueryPlan& plan, common::QueryId query, common::FragmentId id,
    const std::vector<common::OperatorId>& ops) {
  if (ops.empty()) {
    return common::Status::InvalidArgument("fragment needs >= 1 operator");
  }
  std::set<common::OperatorId> op_set(ops.begin(), ops.end());
  for (common::OperatorId op : op_set) {
    if (op < 0 || op >= plan.num_operators()) {
      return common::Status::InvalidArgument("fragment operator out of range");
    }
  }
  std::unique_ptr<FragmentInstance> frag(new FragmentInstance(query, id));
  frag->slots_.resize(static_cast<size_t>(*op_set.rbegin()) + 1);
  for (common::OperatorId op : op_set) {
    frag->slots_[op].op = plan.op(op).Clone();
    frag->slots_[op].sink = plan.OutEdges(op).empty();
  }
  for (const PlanEdge& e : plan.edges()) {
    if (op_set.count(e.from) == 0) continue;
    OpSlot& from = frag->slots_[e.from];
    (op_set.count(e.to) > 0 ? from.internal : from.remote).push_back(e);
  }
  return frag;
}

std::vector<common::OperatorId> FragmentInstance::op_ids() const {
  std::vector<common::OperatorId> out;
  for (size_t op = 0; op < slots_.size(); ++op) {
    if (slots_[op].op != nullptr) {
      out.push_back(static_cast<common::OperatorId>(op));
    }
  }
  return out;
}

const std::vector<PlanEdge>& FragmentInstance::RemoteEdges(
    common::OperatorId from_op) const {
  return Contains(from_op) ? slots_[from_op].remote : empty_edges_;
}

common::Status FragmentInstance::Inject(common::OperatorId op, int port,
                                        const Tuple& tuple,
                                        std::vector<Output>* out) {
  if (!Contains(op)) {
    return common::Status::NotFound("operator not in fragment");
  }
  struct Work {
    common::OperatorId op;
    int port;
    Tuple tuple;
  };
  std::deque<Work> queue;
  queue.push_back(Work{op, port, tuple});
  std::vector<Tuple> produced;
  while (!queue.empty()) {
    Work w = std::move(queue.front());
    queue.pop_front();
    // Internal edges only lead to hosted operators (see Create).
    const OpSlot& slot = slots_[w.op];
    Operator* oper = slot.op.get();
    produced.clear();
    oper->Process(w.port, w.tuple, &produced);
    pending_cpu_cost_ += oper->cost_per_tuple();
    const bool emits = slot.sink || !slot.remote.empty();
    for (Tuple& t : produced) {
      for (const PlanEdge& e : slot.internal) {
        queue.push_back(Work{e.to, e.to_port, t});
      }
      if (emits) out->push_back(Output{w.op, slot.sink, std::move(t)});
    }
  }
  return common::Status::OK();
}

double FragmentInstance::DrainCpuCost() {
  double c = pending_cpu_cost_;
  pending_cpu_cost_ = 0.0;
  return c;
}

int64_t FragmentInstance::StateBytes() const {
  int64_t total = 0;
  for (const OpSlot& slot : slots_) {
    if (slot.op != nullptr) total += slot.op->StateBytes();
  }
  return total;
}

const Operator& FragmentInstance::op(common::OperatorId id) const {
  DSPS_CHECK(Contains(id));
  return *slots_[id].op;
}

Operator* FragmentInstance::mutable_op(common::OperatorId id) {
  DSPS_CHECK(Contains(id));
  return slots_[id].op.get();
}

double FragmentInstance::StaticCostPerTuple() const {
  double c = 0.0;
  for (const OpSlot& slot : slots_) {
    if (slot.op != nullptr) c += slot.op->cost_per_tuple();
  }
  return c;
}

}  // namespace dsps::engine
