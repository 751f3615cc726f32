#include "engine/fragment.h"

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
                                        const Tuple& tuple, Scratch* scratch,
                                        std::vector<TaggedOutput>* out) {
  if (!Contains(op)) {
    return common::Status::NotFound("operator not in fragment");
  }
  DSPS_DCHECK(scratch->queue.empty());
  // The same order as one FIFO queue that starts with the injected tuple.
  Step(op, port, tuple, scratch, out);
  for (size_t head = 0; head < scratch->queue.size(); ++head) {
    const Scratch::Work& w = scratch->queue[head];
    Step(w.op, w.port, w.tuple, scratch, out);
  }
  scratch->queue.clear();
  return common::Status::OK();
}

void FragmentInstance::Step(common::OperatorId op, int port,
                            const Tuple& tuple, Scratch* scratch,
                            std::vector<TaggedOutput>* out) {
  // Internal edges only lead to hosted operators (see Create).
  const OpSlot& slot = slots_[op];
  Operator* oper = slot.op.get();
  std::vector<Tuple>& produced = scratch->produced;
  produced.clear();
  oper->Process(port, tuple, &produced);
  pending_cpu_cost_ += oper->cost_per_tuple();
  const bool emits = slot.sink || !slot.remote.empty();
  const size_t edges = slot.internal.size();
  std::vector<Scratch::Work>& queue = scratch->queue;
  for (Tuple& t : produced) {
    // The last use of `t` takes it instead of copying it.
    for (size_t i = 0; i < edges; ++i) {
      const PlanEdge& e = slot.internal[i];
      if (i + 1 == edges && !emits) {
        queue.push_back(Scratch::Work{e.to, e.to_port, std::move(t)});
      } else {
        queue.push_back(Scratch::Work{e.to, e.to_port, t});
      }
    }
    if (emits) {
      out->push_back(
          TaggedOutput{id_, tag_, Output{op, slot.sink, std::move(t)}});
    }
  }
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

}  // namespace dsps::engine
