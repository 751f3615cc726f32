#include "engine/plan.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "common/check.h"

namespace dsps::engine {

common::OperatorId QueryPlan::AddOperator(std::unique_ptr<Operator> op) {
  DSPS_CHECK(op != nullptr);
  ops_.push_back(std::move(op));
  return static_cast<common::OperatorId>(ops_.size() - 1);
}

common::Status QueryPlan::Connect(common::OperatorId from,
                                  common::OperatorId to, int to_port) {
  if (from < 0 || from >= num_operators() || to < 0 || to >= num_operators()) {
    return common::Status::InvalidArgument("Connect: operator id out of range");
  }
  if (to_port < 0 || to_port >= ops_[to]->num_inputs()) {
    return common::Status::InvalidArgument("Connect: port out of range");
  }
  edges_.push_back(PlanEdge{from, to, to_port});
  return common::Status::OK();
}

common::Status QueryPlan::BindStream(common::StreamId stream,
                                     common::OperatorId to, int to_port) {
  if (stream < 0) {
    return common::Status::InvalidArgument("BindStream: invalid stream");
  }
  if (to < 0 || to >= num_operators()) {
    return common::Status::InvalidArgument("BindStream: operator id out of range");
  }
  if (to_port < 0 || to_port >= ops_[to]->num_inputs()) {
    return common::Status::InvalidArgument("BindStream: port out of range");
  }
  bindings_.push_back(StreamBinding{stream, to, to_port});
  return common::Status::OK();
}

const Operator& QueryPlan::op(common::OperatorId id) const {
  DSPS_CHECK(id >= 0 && id < num_operators());
  return *ops_[id];
}

Operator* QueryPlan::mutable_op(common::OperatorId id) {
  DSPS_CHECK(id >= 0 && id < num_operators());
  return ops_[id].get();
}

std::vector<PlanEdge> QueryPlan::OutEdges(common::OperatorId id) const {
  std::vector<PlanEdge> out;
  for (const PlanEdge& e : edges_) {
    if (e.from == id) out.push_back(e);
  }
  return out;
}

std::vector<common::OperatorId> QueryPlan::SinkOps() const {
  std::vector<bool> has_out(ops_.size(), false);
  for (const PlanEdge& e : edges_) has_out[e.from] = true;
  std::vector<common::OperatorId> sinks;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (!has_out[i]) sinks.push_back(static_cast<common::OperatorId>(i));
  }
  return sinks;
}

common::Status QueryPlan::Validate() const {
  if (ops_.empty()) {
    return common::Status::FailedPrecondition("plan has no operators");
  }
  // Every input port fed exactly once.
  std::set<std::pair<common::OperatorId, int>> fed;
  for (const StreamBinding& b : bindings_) {
    if (!fed.insert({b.to, b.to_port}).second) {
      return common::Status::FailedPrecondition("input port fed twice");
    }
  }
  for (const PlanEdge& e : edges_) {
    if (!fed.insert({e.to, e.to_port}).second) {
      return common::Status::FailedPrecondition("input port fed twice");
    }
  }
  for (int i = 0; i < num_operators(); ++i) {
    for (int p = 0; p < ops_[i]->num_inputs(); ++p) {
      if (fed.count({i, p}) == 0) {
        return common::Status::FailedPrecondition("unfed operator input port");
      }
    }
  }
  if (!TopologicalOrder().ok()) {
    return common::Status::FailedPrecondition("plan has a cycle");
  }
  return common::Status::OK();
}

common::Result<std::vector<common::OperatorId>> QueryPlan::TopologicalOrder()
    const {
  std::vector<int> indegree(ops_.size(), 0);
  for (const PlanEdge& e : edges_) indegree[e.to] += 1;
  std::queue<common::OperatorId> ready;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (indegree[i] == 0) ready.push(static_cast<common::OperatorId>(i));
  }
  std::vector<common::OperatorId> order;
  order.reserve(ops_.size());
  while (!ready.empty()) {
    common::OperatorId id = ready.front();
    ready.pop();
    order.push_back(id);
    for (const PlanEdge& e : edges_) {
      if (e.from == id && --indegree[e.to] == 0) ready.push(e.to);
    }
  }
  if (order.size() != ops_.size()) {
    return common::Status::FailedPrecondition("plan has a cycle");
  }
  return order;
}

std::unique_ptr<QueryPlan> QueryPlan::Clone() const {
  auto copy = std::make_unique<QueryPlan>();
  for (const auto& op : ops_) copy->ops_.push_back(op->Clone());
  copy->edges_ = edges_;
  copy->bindings_ = bindings_;
  return copy;
}

double QueryPlan::EstimateInherentCostPerTuple() const {
  auto order_result = TopologicalOrder();
  if (!order_result.ok()) return 0.0;
  // Relative input rate per operator, normalized so that each bound stream
  // contributes rate 1. Selectivity propagates multiplicatively.
  std::vector<double> in_rate(ops_.size(), 0.0);
  for (const StreamBinding& b : bindings_) in_rate[b.to] += 1.0;
  double total_cost = 0.0;
  for (common::OperatorId id : order_result.value()) {
    double rate = in_rate[id];
    total_cost += rate * ops_[id]->cost_per_tuple();
    double out_rate = rate * ops_[id]->estimated_selectivity();
    for (const PlanEdge& e : edges_) {
      if (e.from == id) in_rate[e.to] += out_rate;
    }
  }
  return total_cost;
}

}  // namespace dsps::engine
