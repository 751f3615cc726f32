#include "entity/entity.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"
#include "placement/fragmenter.h"

namespace dsps::entity {

namespace {

/// Bytes per tuple used in placement traffic estimates.
constexpr double kBytesPerTuple = 64.0;

/// A slot of `slots` for a new entry: a recycled one from `free`, else a
/// new one at the end.
template <typename T>
uint32_t TakeSlot(std::vector<T>* slots, std::vector<uint32_t>* free) {
  if (free->empty()) {
    slots->emplace_back();
    return static_cast<uint32_t>(slots->size() - 1);
  }
  const uint32_t slot = free->back();
  free->pop_back();
  return slot;
}

}  // namespace

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
  for (common::SimNodeId node : processor_nodes) AddProcessor(node);
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

Processor* Entity::ProcessorAt(common::SimNodeId node) const {
  for (const auto& proc : processors_) {
    if (proc->node() == node) return proc.get();
  }
  return nullptr;
}

Entity::StreamRoutes& Entity::RoutesOf(common::StreamId stream) {
  DSPS_CHECK_MSG(stream >= 0, "invalid stream %d", stream);
  if (static_cast<size_t>(stream) >= streams_.size()) {
    streams_.resize(static_cast<size_t>(stream) + 1);
  }
  return streams_[stream];
}

int Entity::SlotOf(common::FragmentId fragment) const {
  for (size_t slot = 0; slot < records_.size(); ++slot) {
    if (records_[slot].fragment == fragment) return static_cast<int>(slot);
  }
  return -1;
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
  StreamRoutes& routes = RoutesOf(stream);
  if (routes.delegate == common::kInvalidProcessor) {
    routes.delegate = processors_[next_delegate_ % processors_.size()]->id();
    next_delegate_ =
        (next_delegate_ + 1) % static_cast<int>(processors_.size());
  }
  return routes.delegate;
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
      kBytesPerTuple, &next_fragment_id_);

  // Build the placement problem: fragments holding a stream-bound operator
  // are anchored at that stream's delegate.
  placement::PlacementInput input;
  for (const auto& proc : processors_) {
    input.processors.push_back(placement::ProcessorSpec{
        proc->id(), kProcessorCapacity, proc->committed_load()});
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

  // Instantiate every fragment before installing any.
  std::vector<std::unique_ptr<engine::FragmentInstance>> instances;
  for (const placement::FragmentSpec& frag : state.fragments) {
    auto instance = engine::FragmentInstance::Create(*query.plan, query.id,
                                                     frag.id, frag.ops);
    if (!instance.ok()) return instance.status();
    instances.push_back(std::move(instance).value());
  }
  QueryState& installed = queries_[query.id] = std::move(state);

  // Install the fragments, each with its routing record.
  std::vector<RouteTarget> op_location(
      static_cast<size_t>(query.plan->num_operators()));
  for (size_t f = 0; f < installed.fragments.size(); ++f) {
    const placement::FragmentSpec& frag = installed.fragments[f];
    common::ProcessorId pid = installed.placement.at(frag.id);
    int idx = ProcIndexOf(pid);
    DSPS_CHECK(idx >= 0);
    const uint32_t slot = TakeSlot(&records_, &free_records_);
    records_[slot].fragment = frag.id;
    records_[slot].query = &installed;
    installed.fragment_slots.push_back(slot);
    engine::FragmentInstance* instance = instances[f].get();
    instance->set_tag(slot);
    // Fresh fragment ids never collide on an engine.
    common::Status s =
        processors_[idx]->InstallFragment(std::move(instances[f]));
    DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    processors_[idx]->AddCommittedLoad(frag.cpu_load);
    for (common::OperatorId op : frag.ops) {
      op_location[op] = RouteTarget{frag.id, op, 0, pid, instance};
    }
  }

  // Stream entry points, one binding per bound stream.
  for (const engine::StreamBinding& b : query.plan->bindings()) {
    StreamRoutes& routes = RoutesOf(b.stream);
    Binding* binding = nullptr;
    for (const auto& [stream, slot] : installed.bindings) {
      if (stream == b.stream) binding = &routes.bindings[slot];
    }
    if (binding == nullptr) {
      const uint32_t slot = TakeSlot(&routes.bindings, &routes.free_bindings);
      installed.bindings.emplace_back(b.stream, slot);
      binding = &routes.bindings[slot];
      binding->query = query.id;
    }
    RouteTarget target = op_location[b.to];
    target.port = b.to_port;
    binding->targets.push_back(target);
  }
  // Inter-fragment routes, kept by the producing fragment's record.
  for (const engine::PlanEdge& e : query.plan->edges()) {
    const RouteTarget& from = op_location[e.from];
    const RouteTarget& to_loc = op_location[e.to];
    if (from.fragment == to_loc.fragment) continue;  // internal edge
    RouteTarget target = to_loc;
    target.port = e.to_port;
    FragmentRecord& record = records_[from.instance->tag()];
    if (record.remote.size() <= static_cast<size_t>(e.from)) {
      record.remote.resize(static_cast<size_t>(e.from) + 1);
    }
    record.remote[e.from].push_back(target);
  }
  // Delegate-side interest index (when the catalog is known): a stream
  // tuple is routed to this query only if it can pass the query's filter.
  for (const auto& [stream, slot] : installed.bindings) {
    StreamRoutes& routes = streams_[stream];
    const std::vector<interest::Box>* boxes = query.interest.boxes_for(stream);
    if (config_.catalog == nullptr || boxes == nullptr || boxes->empty() ||
        !config_.catalog->Contains(stream)) {
      auto pos = std::lower_bound(
          routes.always.begin(), routes.always.end(), query.id,
          [&routes](uint32_t s, common::QueryId q) {
            return routes.bindings[s].query < q;
          });
      routes.always.insert(pos, slot);
      continue;
    }
    if (routes.index == nullptr) {
      routes.index = std::make_unique<interest::BoxIndex>(
          config_.catalog->stats(stream).domain.size());
    }
    for (const interest::Box& b : *boxes) routes.index->Insert(slot, b);
  }
  return common::Status::OK();
}

common::Status Entity::RemoveQuery(common::QueryId query) {
  auto it = queries_.find(query);
  if (it == queries_.end()) return common::Status::NotFound("unknown query");
  QueryState& state = it->second;
  for (size_t f = 0; f < state.fragments.size(); ++f) {
    const placement::FragmentSpec& frag = state.fragments[f];
    common::ProcessorId pid = state.placement.at(frag.id);
    int idx = ProcIndexOf(pid);
    DSPS_CHECK(idx >= 0);
    auto removed = processors_[idx]->RemoveFragment(frag.id);
    if (removed.ok()) {
      processors_[idx]->AddCommittedLoad(-frag.cpu_load);
    }
    const uint32_t slot = state.fragment_slots[f];
    records_[slot] = FragmentRecord{};
    free_records_.push_back(slot);
  }
  for (const auto& [stream, slot] : state.bindings) {
    StreamRoutes& routes = streams_[stream];
    if (routes.index != nullptr) routes.index->Remove(slot);
    auto always = std::find(routes.always.begin(), routes.always.end(), slot);
    if (always != routes.always.end()) routes.always.erase(always);
    routes.bindings[slot] = Binding{};
    routes.free_bindings.push_back(slot);
  }
  queries_.erase(it);
  return common::Status::OK();
}

void Entity::OnStreamTuple(const engine::Tuple& tuple) {
  OnStreamTuple(std::make_shared<const engine::Tuple>(tuple),
                engine::ProjectPoint(tuple));
}

void Entity::OnStreamTuple(std::shared_ptr<const engine::Tuple> tuple,
                           std::shared_ptr<const std::vector<double>> point) {
  // Gateway -> delegate hop (Figure 3: the delegation processor routes
  // the stream inside the entity).
  common::ProcessorId delegate = DelegateFor(tuple->stream);
  int idx = ProcIndexOf(delegate);
  DSPS_CHECK(idx >= 0);
  sim::Message msg;
  msg.from = gateway_node();
  msg.to = processors_[idx]->node();
  msg.type = kMsgStreamTuple;
  msg.size_bytes = tuple->SizeBytes();
  msg.trace_id = tuple->trace_id;
  msg.payload = StreamTupleEnvelope{std::move(tuple), std::move(point)};
  common::Status s = network_->Send(std::move(msg));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
}

bool Entity::HandleMessage(const sim::Message& msg) {
  if (msg.type == kMsgStreamTuple) {
    Processor* proc = ProcessorAt(msg.to);
    if (proc == nullptr) return false;
    const auto* env = msg.payload.get<StreamTupleEnvelope>();
    if (env == nullptr) return false;
    const common::StreamId stream = env->tuple->stream;
    if (stream < 0 || static_cast<size_t>(stream) >= streams_.size()) {
      return true;  // no query is bound to the stream
    }
    const StreamRoutes& routes = streams_[stream];
    if (routes.index != nullptr) {
      // Indexed fan-out: only queries whose interest matches the tuple.
      // The index answers binding slots; deliver in ascending query id.
      DSPS_CHECK_MSG(env->point != nullptr, "stream tuple without its point");
      match_scratch_.clear();
      routes.index->Match(env->point->data(), &match_scratch_);
      std::sort(match_scratch_.begin(), match_scratch_.end(),
                [&routes](int64_t a, int64_t b) {
                  return routes.bindings[a].query < routes.bindings[b].query;
                });
      for (int64_t slot : match_scratch_) {
        Deliver(proc, routes.bindings[slot].targets, env->tuple);
      }
    }
    for (uint32_t slot : routes.always) {
      Deliver(proc, routes.bindings[slot].targets, env->tuple);
    }
    return true;
  }
  if (msg.type == kMsgFragmentTuple) {
    Processor* proc = ProcessorAt(msg.to);
    if (proc == nullptr) return false;
    const auto* env = msg.payload.get<FragmentTupleEnvelope>();
    if (env == nullptr) return false;
    common::Status s =
        proc->Submit(env->fragment, env->op, env->port, *env->tuple);
    if (s.ok()) return true;
    // The fragment moved while the tuple was on the LAN: one more hop to
    // its current host. A fragment removed in flight takes its tuples
    // with it.
    const int slot = SlotOf(env->fragment);
    if (slot < 0) return true;
    RouteTarget to;
    to.fragment = env->fragment;
    to.op = env->op;
    to.port = env->port;
    to.proc = records_[slot].query->placement.at(env->fragment);
    DSPS_CHECK_MSG(to.proc != proc->id(), "%s", s.ToString().c_str());
    SendFragmentTuple(msg.to, to, env->tuple);
    return true;
  }
  return false;
}

void Entity::Deliver(Processor* at, const std::vector<RouteTarget>& targets,
                     const std::shared_ptr<const engine::Tuple>& tuple) {
  for (const RouteTarget& target : targets) {
    if (target.proc == at->id()) {
      common::Status s =
          at->Submit(*target.instance, target.op, target.port, *tuple);
      DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    } else {
      SendFragmentTuple(at->node(), target, tuple);
    }
  }
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

void Entity::OnEmission(Processor* from, const Processor::Emission& em) {
  const uint32_t slot = em.output.tag;
  if (slot >= records_.size() ||
      records_[slot].fragment != em.output.fragment) {
    return;  // removed in flight
  }
  const FragmentRecord& record = records_[slot];
  const QueryState& state = *record.query;
  const engine::FragmentInstance::Output& out = em.output.output;
  if (out.is_result) {
    ResultRecord result;
    result.query = state.query.id;
    result.latency = std::max(0.0, em.completion_time - out.tuple.timestamp);
    result.pr = result.latency / state.p_k;
    pr_.Add(result.pr);
    ++results_;
    if (result_handler_) result_handler_(result, out.tuple);
    return;
  }
  if (static_cast<size_t>(out.from_op) >= record.remote.size() ||
      record.remote[out.from_op].empty()) {
    return;
  }
  Processor* at = from;
  if (ProcIndexOf(from->id()) < 0 || processors_[from->id()].get() != from) {
    // The processor was retired after the work started. The fragment's
    // current host took over its state, so the output leaves from there.
    at = processors_[state.placement.at(em.output.fragment)].get();
  }
  Deliver(at, record.remote[out.from_op],
          std::make_shared<const engine::Tuple>(out.tuple));
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
  const int slot = SlotOf(fragment);
  if (slot < 0) return common::Status::NotFound("unknown fragment");
  return records_[slot].query->placement.at(fragment);
}

common::Status Entity::MoveFragment(common::FragmentId fragment,
                                    common::ProcessorId to) {
  const int slot = SlotOf(fragment);
  if (slot < 0) return common::Status::NotFound("unknown fragment");
  QueryState& state = *records_[slot].query;
  common::ProcessorId from = state.placement.at(fragment);
  if (from == to) return common::Status::OK();
  int from_idx = ProcIndexOf(from);
  int to_idx = ProcIndexOf(to);
  if (from_idx < 0 || to_idx < 0) {
    return common::Status::InvalidArgument("unknown processor");
  }
  // Point the placement and every route at the new host first: outputs
  // that pulling the instance flushes toward this fragment then travel to
  // where it is going instead of into the engine it is leaving.
  state.placement[fragment] = to;
  Retarget(state, fragment, to);
  // Pull the live instance (flushes buffered work on batching engines).
  // Only the owning pointer moves: every route's handle stays valid.
  auto removed = processors_[from_idx]->RemoveFragment(fragment);
  DSPS_CHECK_MSG(removed.ok(), "%s", removed.status().ToString().c_str());
  std::unique_ptr<engine::FragmentInstance> instance =
      std::move(removed).value();
  int64_t state_bytes = instance->StateBytes();
  common::Status installed =
      processors_[to_idx]->InstallFragment(std::move(instance));
  DSPS_CHECK_MSG(installed.ok(), "%s", installed.ToString().c_str());
  // Charge the state transfer to the LAN.
  sim::Message msg;
  msg.from = processors_[from_idx]->node();
  msg.to = processors_[to_idx]->node();
  msg.type = kMsgMigration;
  msg.size_bytes = state_bytes + 256;  // state + control overhead
  common::Status s = network_->Send(std::move(msg));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  if (migrations_counter_ != nullptr) migrations_counter_->Increment();
  // Committed loads follow the fragment.
  double cpu_load = 0.0;
  for (const placement::FragmentSpec& frag : state.fragments) {
    if (frag.id == fragment) cpu_load = frag.cpu_load;
  }
  processors_[from_idx]->AddCommittedLoad(-cpu_load);
  processors_[to_idx]->AddCommittedLoad(cpu_load);
  return common::Status::OK();
}

void Entity::Retarget(QueryState& state, common::FragmentId fragment,
                      common::ProcessorId to) {
  auto retarget = [fragment, to](std::vector<RouteTarget>& targets) {
    for (RouteTarget& t : targets) {
      if (t.fragment == fragment) t.proc = to;
    }
  };
  for (const auto& [stream, slot] : state.bindings) {
    retarget(streams_[stream].bindings[slot].targets);
  }
  for (uint32_t slot : state.fragment_slots) {
    for (std::vector<RouteTarget>& targets : records_[slot].remote) {
      retarget(targets);
    }
  }
}

int Entity::Rebalance(const placement::Rebalancer& rebalancer) {
  placement::PlacementInput input;
  for (const auto& proc : processors_) {
    // base_load excludes the fragments being re-planned.
    input.processors.push_back(
        placement::ProcessorSpec{proc->id(), kProcessorCapacity, 0.0});
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
  for (const StreamRoutes& routes : streams_) {
    if (routes.index != nullptr) routes.index->AddStatsTo(stats);
  }
}

common::ProcessorId Entity::AddProcessor(common::SimNodeId node) {
  auto pid = static_cast<common::ProcessorId>(processors_.size());
  auto proc =
      std::make_unique<Processor>(pid, network_, node, engine_factory_());
  Processor* raw = proc.get();
  proc->SetEmissionHandler(
      [this, raw](const Processor::Emission& em) { OnEmission(raw, em); });
  if (config_.metrics != nullptr || config_.trace != nullptr) {
    proc->SetTelemetry(
        config_.metrics, config_.trace,
        telemetry::MakeLabels({{"entity", std::to_string(id_)},
                               {"processor", std::to_string(pid)}}));
  }
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
  for (StreamRoutes& routes : streams_) {
    if (routes.delegate != victim) continue;
    routes.delegate = processors_[next_delegate_ % victim]->id();
    next_delegate_ = (next_delegate_ + 1) % static_cast<int>(victim);
  }
  common::SimNodeId node = processors_.back()->node();
  retired_.push_back(std::move(processors_.back()));
  processors_.pop_back();
  return node;
}

}  // namespace dsps::entity
