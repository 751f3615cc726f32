#include "ordering/distributed_chain.h"

#include <algorithm>

#include "common/check.h"

namespace dsps::ordering {

DistributedChain::DistributedChain(sim::Network* network,
                                   common::QueryId query,
                                   std::vector<FilterSite> sites,
                                   const Config& config)
    : network_(network), query_(query), config_(config) {
  DSPS_CHECK(network != nullptr);
  DSPS_CHECK(!sites.empty());
  std::vector<Candidate> candidates;
  for (FilterSite& site : sites) {
    DSPS_CHECK(site.predicate != nullptr);
    candidates.push_back(Candidate{site.proc, site.op});
    am_.ReportCost(query_, site.op, site.cost);
    sites_.push_back(SiteState{std::move(site), 0.0, 0.0});
  }
  for (size_t i = 0; i < sites_.size(); ++i) {
    sites_by_node_[sites_[i].site.node].push_back(i);
  }
  am_.SetCandidates(query_, std::move(candidates));
  // Freeze the static order from the initial estimates.
  auto order = am_.CurrentOrder(query_);
  DSPS_CHECK(order.ok());
  for (const Candidate& c : order.value()) static_order_.push_back(c.op);
}

void DistributedChain::InstallHandlers() {
  for (const auto& [node, idxs] : sites_by_node_) {
    network_->SetHandler(node, [this](const sim::Message& msg) {
      HandleMessage(msg);
    });
  }
}

void DistributedChain::SetSurvivorHandler(SurvivorHandler handler) {
  survivor_ = std::move(handler);
}

const DistributedChain::SiteState* DistributedChain::NextSite(
    const std::vector<common::OperatorId>& done) {
  common::OperatorId next_op = -1;
  if (config_.adaptive) {
    auto hop = am_.NextHop(query_, done);
    if (!hop.ok()) return nullptr;
    next_op = hop.value().op;
  } else {
    for (common::OperatorId op : static_order_) {
      if (std::find(done.begin(), done.end(), op) == done.end()) {
        next_op = op;
        break;
      }
    }
    if (next_op < 0) return nullptr;
  }
  for (const SiteState& state : sites_) {
    if (state.site.op == next_op) return &state;
  }
  return nullptr;
}

void DistributedChain::SendTo(const SiteState& to, Envelope env,
                              common::SimNodeId from) {
  sim::Message msg;
  msg.from = from;
  msg.to = to.site.node;
  msg.type = kMsgChainTuple;
  msg.size_bytes = env.tuple->SizeBytes() + 8 * static_cast<int64_t>(
                                                    env.done.size());
  msg.payload = std::move(env);
  common::Status s = network_->Send(std::move(msg));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
}

common::Status DistributedChain::Submit(const engine::Tuple& tuple) {
  Envelope env;
  env.tuple = std::make_shared<const engine::Tuple>(tuple);
  env.injected_at = network_->simulator()->now();
  const SiteState* first = NextSite(env.done);
  if (first == nullptr) {
    return common::Status::FailedPrecondition("chain has no operators");
  }
  // The injection point is the first site's node (the delegate would
  // normally forward there; local injection keeps the harness simple).
  env.next_op = first->site.op;
  SendTo(*first, std::move(env), first->site.node);
  return common::Status::OK();
}

bool DistributedChain::HandleMessage(const sim::Message& msg) {
  if (msg.type != kMsgChainTuple) return false;
  const auto* env = std::any_cast<Envelope>(&msg.payload);
  if (env == nullptr) return false;
  // The envelope's next operator is the one the sender chose: recover it
  // as the best not-done operator hosted on this node.
  auto node_it = sites_by_node_.find(msg.to);
  if (node_it == sites_by_node_.end()) return false;
  for (size_t idx : node_it->second) {
    SiteState& state = sites_[idx];
    if (state.site.op == env->next_op) {
      Evaluate(&state, *env);
      return true;
    }
  }
  return false;
}

void DistributedChain::Evaluate(SiteState* state, Envelope env) {
  sim::Simulator* sim = network_->simulator();
  double start = std::max(sim->now(), state->busy_until);
  state->busy_until = start + state->site.cost;
  state->cpu_seconds += state->site.cost;
  total_cpu_ += state->site.cost;
  evaluations_ += 1;
  bool passed = state->site.predicate(*env.tuple);
  am_.ReportSelectivity(query_, state->site.op, passed ? 1.0 : 0.0);
  am_.ReportBacklog(state->site.proc,
                    std::max(0.0, state->busy_until - sim->now()));
  env.done.push_back(state->site.op);
  double completion = state->busy_until;
  common::SimNodeId from = state->site.node;
  if (!passed) return;  // tuple dropped; nothing to schedule
  // At completion, route to the next hop or emit as survivor.
  auto shared = std::make_shared<Envelope>(std::move(env));
  sim->ScheduleAt(completion, [this, shared, from, completion]() {
    const SiteState* next = NextSite(shared->done);
    if (next == nullptr) {
      survivors_ += 1;
      if (survivor_) {
        survivor_(*shared->tuple, completion - shared->injected_at);
      }
      return;
    }
    Envelope out = *shared;
    out.next_op = next->site.op;
    SendTo(*next, std::move(out), from);
  });
}

double DistributedChain::max_site_cpu_seconds() const {
  double max_cpu = 0.0;
  for (const SiteState& state : sites_) {
    max_cpu = std::max(max_cpu, state.cpu_seconds);
  }
  return max_cpu;
}

}  // namespace dsps::ordering
