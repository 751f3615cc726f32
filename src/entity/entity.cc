#include "entity/entity.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"
#include "placement/fragmenter.h"

namespace dsps::entity {

Entity::Entity(common::EntityId id, sim::Network* network,
               std::vector<common::SimNodeId> processor_nodes,
               EngineFactory engine_factory, placement::PlacementPolicy* policy,
               const Config& config)
    : id_(id),
      network_(network),
      config_(config),
      engine_factory_(std::move(engine_factory)),
      policy_(policy) {
  DSPS_CHECK(network != nullptr);
  DSPS_CHECK(policy != nullptr);
  DSPS_CHECK(!processor_nodes.empty());
  DSPS_CHECK(engine_factory_ != nullptr);
  start_time_ = network_->simulator()->now();
  for (size_t i = 0; i < processor_nodes.size(); ++i) {
    auto proc = std::make_unique<Processor>(
        static_cast<common::ProcessorId>(i), network_, processor_nodes[i],
        engine_factory_(), config.processor_capacity);
    common::ProcessorId pid = proc->id();
    proc->SetEmissionHandler([this, pid](const Processor::Emission& em) {
      OnEmission(pid, em);
    });
    if (config.metrics != nullptr || config.trace != nullptr) {
      proc->SetTelemetry(
          config.metrics, config.trace,
          telemetry::MakeLabels({{"entity", std::to_string(id)},
                                 {"processor", std::to_string(i)}}));
    }
    proc_by_node_[processor_nodes[i]] = static_cast<int>(i);
    processors_.push_back(std::move(proc));
  }
  if (config.metrics != nullptr) {
    migrations_counter_ = config.metrics->counter(
        "entity.fragment_migrations",
        telemetry::MakeLabels({{"entity", std::to_string(id)}}));
  }
}

common::SimNodeId Entity::gateway_node() const {
  return processors_.front()->node();
}

Processor* Entity::processor(common::ProcessorId id) {
  int idx = ProcIndexOf(id);
  return idx < 0 ? nullptr : processors_[idx].get();
}

int Entity::ProcIndexOf(common::ProcessorId id) const {
  if (id < 0 || static_cast<size_t>(id) >= processors_.size()) return -1;
  return static_cast<int>(id);
}

void Entity::InstallHandlers() {
  for (const auto& proc : processors_) {
    network_->SetHandler(proc->node(), [this](const sim::Message& msg) {
      HandleMessage(msg);
    });
  }
}

common::ProcessorId Entity::DelegateFor(common::StreamId stream) {
  if (config_.single_receiver) return processors_.front()->id();
  auto it = delegates_.find(stream);
  if (it != delegates_.end()) return it->second;
  common::ProcessorId pid =
      processors_[next_delegate_ % processors_.size()]->id();
  next_delegate_ = (next_delegate_ + 1) % static_cast<int>(processors_.size());
  delegates_[stream] = pid;
  return pid;
}

common::Status Entity::InstallQuery(const engine::Query& query,
                                    double expected_input_tps) {
  if (queries_.count(query.id) > 0) {
    return common::Status::AlreadyExists("query already installed");
  }
  if (query.plan == nullptr) {
    return common::Status::InvalidArgument("query has no plan");
  }
  DSPS_RETURN_IF_ERROR(query.plan->Validate());

  QueryState state;
  state.query = query;
  state.p_k = std::max(1e-12, query.plan->EstimateInherentCostPerTuple());
  state.fragments = placement::FragmentQuery(
      *query.plan, query.id, config_.distribution_limit, expected_input_tps,
      config_.bytes_per_tuple, &next_fragment_id_);

  // Build the placement problem: fragments holding a stream-bound operator
  // are anchored at that stream's delegate.
  placement::PlacementInput input;
  for (const auto& proc : processors_) {
    input.processors.push_back(placement::ProcessorSpec{
        proc->id(), proc->capacity(), proc->committed_load()});
  }
  input.fragments = state.fragments;
  input.distribution_limit = config_.distribution_limit;
  for (const placement::FragmentSpec& frag : state.fragments) {
    std::set<common::OperatorId> members(frag.ops.begin(), frag.ops.end());
    for (const engine::StreamBinding& b : query.plan->bindings()) {
      if (members.count(b.to) > 0) {
        input.input_home[frag.id] = DelegateFor(b.stream);
        break;
      }
    }
  }
  auto placed = policy_->Place(input);
  if (!placed.ok()) return placed.status();
  state.placement = std::move(placed).value();

  // Instantiate and install the fragments.
  std::map<common::OperatorId, RouteTarget> op_location;
  for (const placement::FragmentSpec& frag : state.fragments) {
    common::ProcessorId pid = state.placement.at(frag.id);
    int idx = ProcIndexOf(pid);
    DSPS_CHECK(idx >= 0);
    auto instance =
        engine::FragmentInstance::Create(*query.plan, query.id, frag.id,
                                         frag.ops);
    if (!instance.ok()) return instance.status();
    DSPS_RETURN_IF_ERROR(
        processors_[idx]->InstallFragment(std::move(instance).value()));
    processors_[idx]->AddCommittedLoad(frag.cpu_load);
    for (common::OperatorId op : frag.ops) {
      op_location[op] = RouteTarget{frag.id, op, 0, pid};
    }
    query_of_fragment_[frag.id] = query.id;
  }

  // Stream entry points and inter-fragment routes.
  for (const engine::StreamBinding& b : query.plan->bindings()) {
    RouteTarget target = op_location.at(b.to);
    target.port = b.to_port;
    state.stream_entries[b.stream].push_back(target);
  }
  for (const engine::PlanEdge& e : query.plan->edges()) {
    const RouteTarget& from = op_location.at(e.from);
    const RouteTarget& to_loc = op_location.at(e.to);
    if (from.fragment == to_loc.fragment) continue;  // internal edge
    RouteTarget target = to_loc;
    target.port = e.to_port;
    state.routes[{from.fragment, e.from}].push_back(target);
  }
  // Delegate-side interest index (when the catalog is known): a stream
  // tuple is routed to this query only if it can pass the query's filter.
  for (const auto& [stream, targets] : state.stream_entries) {
    (void)targets;
    const std::vector<interest::Box>* boxes =
        query.interest.boxes_for(stream);
    if (config_.catalog == nullptr || boxes == nullptr || boxes->empty() ||
        !config_.catalog->Contains(stream)) {
      always_deliver_[stream].insert(query.id);
      continue;
    }
    auto [it, inserted] = stream_index_.try_emplace(stream, nullptr);
    if (inserted) {
      // Per-entity indexes hold a handful of boxes each, so they take the
      // spline strategy: a linear scan below its build threshold and no
      // grid cells allocated up front.
      interest::BoxIndex::Config cfg;
      cfg.strategy = interest::IndexStrategy::kSpline;
      it->second = std::make_unique<interest::BoxIndex>(
          config_.catalog->stats(stream).domain, cfg);
    }
    for (const interest::Box& b : *boxes) {
      it->second->Insert(query.id, b);
    }
  }
  queries_[query.id] = std::move(state);
  return common::Status::OK();
}

common::Status Entity::RemoveQuery(common::QueryId query) {
  auto it = queries_.find(query);
  if (it == queries_.end()) return common::Status::NotFound("unknown query");
  for (const placement::FragmentSpec& frag : it->second.fragments) {
    common::ProcessorId pid = it->second.placement.at(frag.id);
    int idx = ProcIndexOf(pid);
    DSPS_CHECK(idx >= 0);
    auto removed = processors_[idx]->RemoveFragment(frag.id);
    if (removed.ok()) {
      processors_[idx]->AddCommittedLoad(-frag.cpu_load);
    }
    query_of_fragment_.erase(frag.id);
  }
  for (const auto& [stream, targets] : it->second.stream_entries) {
    (void)targets;
    auto idx = stream_index_.find(stream);
    if (idx != stream_index_.end()) idx->second->Remove(query);
    auto always = always_deliver_.find(stream);
    if (always != always_deliver_.end()) always->second.erase(query);
  }
  queries_.erase(it);
  return common::Status::OK();
}

void Entity::OnStreamTuple(const engine::Tuple& tuple) {
  // Gateway -> delegate hop (Figure 3: the delegation processor routes
  // the stream inside the entity).
  common::ProcessorId delegate = DelegateFor(tuple.stream);
  int idx = ProcIndexOf(delegate);
  DSPS_CHECK(idx >= 0);
  StreamTupleEnvelope env;
  env.tuple = std::make_shared<const engine::Tuple>(tuple);
  sim::Message msg;
  msg.from = gateway_node();
  msg.to = processors_[idx]->node();
  msg.type = kMsgStreamTuple;
  msg.size_bytes = tuple.SizeBytes();
  msg.trace_id = tuple.trace_id;
  msg.payload = std::move(env);
  common::Status s = network_->Send(std::move(msg));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
}

bool Entity::HandleMessage(const sim::Message& msg) {
  auto node_it = proc_by_node_.find(msg.to);
  if (node_it == proc_by_node_.end()) return false;
  Processor* proc = processors_[node_it->second].get();
  if (msg.type == kMsgStreamTuple) {
    const auto* env = std::any_cast<StreamTupleEnvelope>(&msg.payload);
    if (env == nullptr) return false;
    common::StreamId stream = env->tuple->stream;
    auto route_to_query = [&](QueryState& state) {
      auto entry_it = state.stream_entries.find(stream);
      if (entry_it == state.stream_entries.end()) return;
      for (const RouteTarget& target : entry_it->second) {
        if (target.proc == proc->id()) {
          common::Status s =
              proc->Submit(target.fragment, target.op, target.port,
                           *env->tuple);
          DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
        } else {
          SendFragmentTuple(proc->node(), target, env->tuple);
        }
      }
    };
    auto idx = stream_index_.find(stream);
    if (idx != stream_index_.end()) {
      // Indexed fan-out: only queries whose interest matches the tuple.
      point_scratch_.clear();
      for (const engine::Value& v : env->tuple->values) {
        point_scratch_.push_back(engine::AsDouble(v));
      }
      match_scratch_.clear();
      idx->second->Match(point_scratch_.data(), &match_scratch_);
      for (int64_t qid : match_scratch_) {
        auto q_it = queries_.find(qid);
        if (q_it != queries_.end()) route_to_query(q_it->second);
      }
      auto always = always_deliver_.find(stream);
      if (always != always_deliver_.end()) {
        for (common::QueryId qid : always->second) {
          auto q_it = queries_.find(qid);
          if (q_it != queries_.end()) route_to_query(q_it->second);
        }
      }
    } else {
      // Naive fan-out: every query bound to this stream.
      for (auto& [qid, state] : queries_) route_to_query(state);
    }
    return true;
  }
  if (msg.type == kMsgFragmentTuple) {
    const auto* env = std::any_cast<FragmentTupleEnvelope>(&msg.payload);
    if (env == nullptr) return false;
    common::Status s = proc->Submit(env->fragment, env->op, env->port,
                                    *env->tuple);
    // The fragment may have been removed in flight; drop silently then.
    (void)s;
    return true;
  }
  return false;
}

void Entity::SendFragmentTuple(common::SimNodeId from_node,
                               const RouteTarget& to,
                               std::shared_ptr<const engine::Tuple> tuple) {
  int idx = ProcIndexOf(to.proc);
  DSPS_CHECK(idx >= 0);
  FragmentTupleEnvelope env;
  env.fragment = to.fragment;
  env.op = to.op;
  env.port = to.port;
  env.tuple = std::move(tuple);
  sim::Message msg;
  msg.from = from_node;
  msg.to = processors_[idx]->node();
  msg.type = kMsgFragmentTuple;
  msg.size_bytes = env.tuple->SizeBytes();
  msg.trace_id = env.tuple->trace_id;
  msg.payload = std::move(env);
  common::Status s = network_->Send(std::move(msg));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
}

void Entity::OnEmission(common::ProcessorId proc,
                        const Processor::Emission& em) {
  auto qid_it = query_of_fragment_.find(em.output.fragment);
  if (qid_it == query_of_fragment_.end()) return;  // removed in flight
  QueryState& state = queries_.at(qid_it->second);
  const engine::FragmentInstance::Output& out = em.output.output;
  if (out.is_result) {
    ResultRecord record;
    record.query = qid_it->second;
    record.latency = std::max(0.0, em.completion_time - out.tuple.timestamp);
    record.pr = record.latency / state.p_k;
    pr_.Add(record.pr);
    ++results_;
    if (result_handler_) result_handler_(record, out.tuple);
    return;
  }
  auto route_it = state.routes.find({em.output.fragment, out.from_op});
  if (route_it == state.routes.end()) return;
  int from_idx = ProcIndexOf(proc);
  DSPS_CHECK(from_idx >= 0);
  auto shared = std::make_shared<const engine::Tuple>(out.tuple);
  for (const RouteTarget& target : route_it->second) {
    if (target.proc == proc) {
      common::Status s = processors_[from_idx]->Submit(
          target.fragment, target.op, target.port, *shared);
      DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    } else {
      SendFragmentTuple(processors_[from_idx]->node(), target, shared);
    }
  }
}

void Entity::SetResultHandler(ResultHandler handler) {
  result_handler_ = std::move(handler);
}

double Entity::MaxUtilization() const {
  double elapsed =
      std::max(1e-9, network_->simulator()->now() - start_time_);
  double max_util = 0.0;
  for (const auto& proc : processors_) {
    max_util = std::max(max_util, proc->busy_seconds() / elapsed);
  }
  return max_util;
}

double Entity::MeanUtilization() const {
  double elapsed =
      std::max(1e-9, network_->simulator()->now() - start_time_);
  double sum = 0.0;
  for (const auto& proc : processors_) {
    sum += proc->busy_seconds() / elapsed;
  }
  return sum / processors_.size();
}

common::Result<common::ProcessorId> Entity::FragmentLocation(
    common::FragmentId fragment) const {
  auto qid_it = query_of_fragment_.find(fragment);
  if (qid_it == query_of_fragment_.end()) {
    return common::Status::NotFound("unknown fragment");
  }
  const QueryState& state = queries_.at(qid_it->second);
  return state.placement.at(fragment);
}

common::Status Entity::MoveFragment(common::FragmentId fragment,
                                    common::ProcessorId to) {
  auto qid_it = query_of_fragment_.find(fragment);
  if (qid_it == query_of_fragment_.end()) {
    return common::Status::NotFound("unknown fragment");
  }
  QueryState& state = queries_.at(qid_it->second);
  common::ProcessorId from = state.placement.at(fragment);
  if (from == to) return common::Status::OK();
  int from_idx = ProcIndexOf(from);
  int to_idx = ProcIndexOf(to);
  if (from_idx < 0 || to_idx < 0) {
    return common::Status::InvalidArgument("unknown processor");
  }
  // Pull the live instance (flushes buffered work on batching engines).
  auto removed = processors_[from_idx]->RemoveFragment(fragment);
  if (!removed.ok()) return removed.status();
  std::unique_ptr<engine::FragmentInstance> instance =
      std::move(removed).value();
  int64_t state_bytes = instance->StateBytes();
  DSPS_RETURN_IF_ERROR(
      processors_[to_idx]->InstallFragment(std::move(instance)));
  // Charge the state transfer to the LAN.
  sim::Message msg;
  msg.from = processors_[from_idx]->node();
  msg.to = processors_[to_idx]->node();
  msg.type = kMsgMigration;
  msg.size_bytes = state_bytes + 256;  // state + control overhead
  common::Status s = network_->Send(std::move(msg));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  if (migrations_counter_ != nullptr) migrations_counter_->Increment();
  // Bookkeeping: committed loads, placement, and every routing table
  // entry that points at this fragment.
  double cpu_load = 0.0;
  for (const placement::FragmentSpec& frag : state.fragments) {
    if (frag.id == fragment) cpu_load = frag.cpu_load;
  }
  processors_[from_idx]->AddCommittedLoad(-cpu_load);
  processors_[to_idx]->AddCommittedLoad(cpu_load);
  state.placement[fragment] = to;
  for (auto& [stream, targets] : state.stream_entries) {
    for (RouteTarget& t : targets) {
      if (t.fragment == fragment) t.proc = to;
    }
  }
  for (auto& [key, targets] : state.routes) {
    for (RouteTarget& t : targets) {
      if (t.fragment == fragment) t.proc = to;
    }
  }
  return common::Status::OK();
}

int Entity::Rebalance(const placement::Rebalancer& rebalancer) {
  placement::PlacementInput input;
  for (const auto& proc : processors_) {
    // base_load excludes the fragments being re-planned.
    input.processors.push_back(
        placement::ProcessorSpec{proc->id(), proc->capacity(), 0.0});
  }
  input.distribution_limit = config_.distribution_limit;
  placement::Placement current;
  for (const auto& [qid, state] : queries_) {
    for (const placement::FragmentSpec& frag : state.fragments) {
      input.fragments.push_back(frag);
      current[frag.id] = state.placement.at(frag.id);
    }
  }
  if (input.fragments.empty()) return 0;
  int applied = 0;
  for (const placement::MoveDecision& move :
       rebalancer.Plan(input, current)) {
    if (MoveFragment(move.fragment, move.to).ok()) ++applied;
  }
  return applied;
}

double Entity::TotalCommittedLoad() const {
  double total = 0.0;
  for (const auto& proc : processors_) total += proc->committed_load();
  return total;
}

void Entity::CollectIndexStats(interest::IndexStats* stats) const {
  for (const auto& [stream, index] : stream_index_) {
    if (index != nullptr) index->AddStatsTo(stats);
  }
}

common::ProcessorId Entity::AddProcessor(common::SimNodeId node) {
  auto pid = static_cast<common::ProcessorId>(processors_.size());
  auto proc = std::make_unique<Processor>(pid, network_, node,
                                          engine_factory_(),
                                          config_.processor_capacity);
  proc->SetEmissionHandler([this, pid](const Processor::Emission& em) {
    OnEmission(pid, em);
  });
  if (config_.metrics != nullptr || config_.trace != nullptr) {
    proc->SetTelemetry(
        config_.metrics, config_.trace,
        telemetry::MakeLabels({{"entity", std::to_string(id_)},
                               {"processor", std::to_string(pid)}}));
  }
  proc_by_node_[node] = static_cast<int>(pid);
  processors_.push_back(std::move(proc));
  return pid;
}

common::Result<common::SimNodeId> Entity::RemoveLastProcessor() {
  if (processors_.size() <= 1) {
    return common::Status::FailedPrecondition(
        "cannot remove the gateway processor");
  }
  auto victim = static_cast<common::ProcessorId>(processors_.size() - 1);
  // Drain: move every fragment placed on the victim to the least-loaded
  // remaining processor (ties break to the lowest id, deterministically).
  std::vector<common::FragmentId> draining;
  for (const auto& [qid, state] : queries_) {
    for (const auto& [fragment, proc] : state.placement) {
      if (proc == victim) draining.push_back(fragment);
    }
  }
  std::sort(draining.begin(), draining.end());
  for (common::FragmentId fragment : draining) {
    common::ProcessorId best = 0;
    for (common::ProcessorId p = 1; p < victim; ++p) {
      if (processors_[p]->committed_load() <
          processors_[best]->committed_load()) {
        best = p;
      }
    }
    DSPS_RETURN_IF_ERROR(MoveFragment(fragment, best));
  }
  // Reassign stream delegations owned by the victim, round-robin over
  // the survivors.
  for (auto& [stream, delegate] : delegates_) {
    if (delegate != victim) continue;
    delegate = processors_[next_delegate_ % victim]->id();
    next_delegate_ = (next_delegate_ + 1) % static_cast<int>(victim);
  }
  common::SimNodeId node = processors_.back()->node();
  proc_by_node_.erase(node);
  retired_.push_back(std::move(processors_.back()));
  processors_.pop_back();
  return node;
}

}  // namespace dsps::entity
