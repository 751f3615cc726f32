#include "system/system.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "dissemination/reorganizer.h"
#include "placement/rebalancer.h"

namespace dsps::system {

namespace {

/// Simulated per-query re-install time at a survivor receiving a re-home
/// batch (state re-initialization; queries of one batch serialize).
constexpr double kRehomeInstallLatencyS = 0.02;
/// Wire size of a re-home batch: a 64-byte header plus this per query.
constexpr int64_t kRehomeBatchBytesPerQuery = 96;
/// Wire size of one failure-detection heartbeat.
constexpr int64_t kHeartbeatBytes = 32;
/// Watchdog retry storm: combined result / re-home-batch / dissemination
/// retries per simulated second that count as a storm.
constexpr double kRetryStormRatePerS = 50.0;
/// Watchdog repartition thrash: repartition rounds per simulated second.
constexpr double kRepartitionThrashRatePerS = 1.0;
/// Watchdog admission-queue growth: depth the queue must reach (while
/// strictly growing) before buildup counts.
constexpr double kAdmissionQueueFloor = 4.0;
/// Watchdog SLO burn: trailing-window p95 / SLO ratio held for the
/// threshold detector's sustain ticks that counts as burn.
constexpr double kSloBurnRatio = 1.0;

}  // namespace

System::System(const Config& config)
    : config_(config),
      rng_(config.seed),
      simulator_(std::make_unique<sim::Simulator>()),
      network_(std::make_unique<sim::Network>(simulator_.get())),
      result_channel_(network_.get(), kMsgClientResultAck,
                      config.result_max_retries),
      rehome_channel_(network_.get(), kMsgRehomeAck) {
  common::Rng topo_rng = rng_.Fork(1);
  topology_ = sim::BuildTopology(network_.get(), config.topology, &topo_rng);
  placement_policy_ = std::make_unique<placement::PrAwarePlacement>();
  if (config.inject_faults) {
    faults_ = std::make_unique<sim::FaultInjector>(config.faults);
    faults_->SetMetrics(config.metrics);
    network_->SetFaultInjector(faults_.get());
  }

  // Telemetry wiring: the network observes every message; the trace log
  // learns which message types map to which pipeline stage so in-flight
  // spans are recorded without the lower layers knowing the stage enums.
  if (config.metrics != nullptr) {
    network_->SetMetrics(config.metrics);
    results_counter_ = config.metrics->counter("system.results");
    query_migrations_counter_ =
        config.metrics->counter("system.query_migrations");
    latency_hist_ = config.metrics->histogram("system.latency_s");
    pr_hist_ = config.metrics->histogram("system.pr");
    graph_build_us_ = config.metrics->histogram("partition.graph_build_us");
    incremental_delta_us_ =
        config.metrics->histogram("partition.incremental_delta_us");
  }
  if (config.flight != nullptr) {
    // Every trace span/instant forwards into the post-mortem ring, and
    // network drops land there even when tracing is off.
    if (config.trace != nullptr) {
      config.trace->AttachFlightRecorder(config.flight);
    }
    network_->SetFlightRecorder(config.flight);
  }
  if (config.trace != nullptr) {
    network_->SetTraceLog(config.trace);
    config.trace->MapMessageType(dissemination::kMsgTupleForward,
                                 telemetry::Stage::kDisseminationHop);
    config.trace->MapMessageType(entity::kMsgStreamTuple,
                                 telemetry::Stage::kEntityIngress);
    config.trace->MapMessageType(entity::kMsgFragmentTuple,
                                 telemetry::Stage::kPipelineHop);
    config.trace->MapMessageType(kMsgClientResult,
                                 telemetry::Stage::kResultDeliver);
  }

  // Entities. The delegate-side interest index reads the catalog, which
  // fills in at AddStreams time.
  entity::Entity::Config entity_config;
  entity_config.catalog = &catalog_;
  entity_config.metrics = config.metrics;
  entity_config.trace = config.trace;
  for (int e = 0; e < config.topology.num_entities; ++e) {
    entity_config.fault_domain = topology_.entities[e].fault_domain;
    auto entity = std::make_unique<entity::Entity>(
        topology_.entities[e].entity, network_.get(),
        topology_.entities[e].processors, MakeEngineFactory(e),
        placement_policy_.get(), entity_config);
    common::EntityId eid = topology_.entities[e].entity;
    entity->SetResultHandler(
        [this, eid](const entity::Entity::ResultRecord& record,
                    const engine::Tuple& tuple) {
          metrics_.results += 1;
          metrics_.latency.Add(record.latency);
          metrics_.pr.Add(record.pr);
          if (results_counter_ != nullptr) {
            results_counter_->Increment();
            latency_hist_->Observe(record.latency);
            pr_hist_->Observe(record.pr);
          }
          if (config_.trace != nullptr && tuple.trace_id != 0) {
            // End-to-end summary span: the per-stage spans recorded along
            // the way decompose exactly this interval. Tenant-enabled
            // runs tag the span with the query's owner (-1 otherwise, so
            // tenant-free JSONL stays byte-identical).
            int64_t span_tenant = -1;
            if (admission_ != nullptr) {
              const engine::Query* q = query_state_.Find(record.query);
              if (q != nullptr) span_tenant = q->tenant;
            }
            config_.trace->Record(tuple.trace_id, telemetry::Stage::kResult,
                                  tuple.timestamp, simulator_->now(),
                                  /*from=*/-1, /*to=*/-1, record.query,
                                  span_tenant);
          }
          if (admission_ != nullptr) {
            RecordTenantResult(record.query, record.latency);
          }
          ShipResultToClient(eid, record.query, tuple);
        });
    entities_.push_back(std::move(entity));
  }
  entity_interest_.resize(entities_.size());
  query_state_.SetNumEntities(static_cast<int>(entities_.size()));
  alive_.assign(entities_.size(), true);
  departed_.assign(entities_.size(), false);
  crash_time_.assign(entities_.size(),
                     std::numeric_limits<double>::quiet_NaN());

  // Clients (the paper's "huge number of clients" at the access portal).
  if (config.num_clients > 0) {
    common::Rng client_rng = rng_.Fork(2);
    for (int c = 0; c < config.num_clients; ++c) {
      sim::Point pos{client_rng.Uniform(0, sim::kWorldSize),
                     client_rng.Uniform(0, sim::kWorldSize)};
      common::SimNodeId node = network_->AddNode(pos);
      network_->SetHandler(node, [this](const sim::Message& msg) {
        if (msg.type != kMsgClientResult) return;
        const auto* env = msg.payload.get<ClientResultEnvelope>();
        if (env == nullptr) return;
        if (env->seq != 0 && !result_channel_.Accept(msg, env->seq)) return;
        metrics_.client_results += 1;
        metrics_.client_latency.Add(
            std::max(0.0, simulator_->now() - env->result_timestamp));
      });
      client_nodes_.push_back(node);
      client_positions_.push_back(pos);
    }
  }

  // Declustered placement map over the topology's fault domains, plus the
  // control-plane node re-home batches originate from. Only in map mode:
  // every other allocation mode allocates no node and builds no map, so
  // node-id assignment — and whole simulations — stay bit-identical.
  if (config.allocation == AllocationMode::kPlacementMap) {
    std::vector<int> domain_of(entities_.size());
    for (size_t e = 0; e < entities_.size(); ++e) {
      domain_of[e] = topology_.entities[e].fault_domain;
    }
    placement_map_ =
        std::make_unique<placement::PlacementMap>(std::move(domain_of));
    double center = sim::kWorldSize / 2.0;
    rehome_node_ = network_->AddNode({center, center});
    network_->SetHandler(rehome_node_, [this](const sim::Message& msg) {
      (void)rehome_channel_.HandleAck(msg);
    });
  }

  // Dissemination layer.
  dissemination::Disseminator::Config diss_config = config.dissemination;
  if (diss_config.metrics == nullptr) diss_config.metrics = config.metrics;
  if (diss_config.trace == nullptr) diss_config.trace = config.trace;
  disseminator_ = std::make_unique<dissemination::Disseminator>(
      network_.get(), diss_config);
  disseminator_->SetDeliveryHandler(
      [this](common::EntityId entity,
             const dissemination::TupleEnvelope& env) {
        metrics_.delivered_tuples += 1;
        entities_[entity]->OnStreamTuple(env.tuple, env.point);
      });

  // Coordinator tree over the entities.
  coordinator_ = std::make_unique<coordinator::CoordinatorTree>(
      config.coordinator);
  coordinator_->SetMetrics(config.metrics);
  for (const sim::EntitySite& site : topology_.entities) {
    auto join = coordinator_->Join(site.entity, site.center);
    DSPS_CHECK(join.ok());
  }

  // Network handler dispatch: gateway nodes receive system acks,
  // dissemination, and intra-entity messages; other processor nodes only
  // intra-entity ones.
  for (size_t e = 0; e < entities_.size(); ++e) {
    for (common::SimNodeId node : topology_.entities[e].processors) {
      network_->SetHandler(node, ProcessorDispatcher(entities_[e].get()));
    }
    InstallGatewayDispatcher(static_cast<common::EntityId>(e));
  }

  // Multi-tenant admission control. Allocation-only: no node, no RNG
  // draw, no message — an empty tenant list leaves the simulation
  // bit-identical to a tenant-free build.
  if (!config.tenants.empty()) {
    tenant_registry_ =
        std::make_unique<tenant::TenantRegistry>(config.tenants);
    admission_ = std::make_unique<tenant::AdmissionController>(
        tenant_registry_.get(), config.admission);
    if (config.metrics != nullptr) admission_->SetMetrics(config.metrics);
  }
}

sim::Network::Handler System::ProcessorDispatcher(entity::Entity* ent) {
  return [this, ent](const sim::Message& msg) {
    if (ent->HandleMessage(msg)) return;
    disseminator_->HandleMessage(msg);
  };
}

void System::InstallGatewayDispatcher(common::EntityId entity) {
  entity::Entity* ent = entities_[entity].get();
  network_->SetHandler(ent->gateway_node(), [this,
                                             ent](const sim::Message& msg) {
    if (HandleSystemMessage(msg)) return;
    if (ent->HandleMessage(msg)) return;
    disseminator_->HandleMessage(msg);
  });
}

bool System::HandleSystemMessage(const sim::Message& msg) {
  if (result_channel_.HandleAck(msg)) return true;
  if (msg.type == kMsgRehomeBatch) {
    const auto* env = msg.payload.get<RehomeBatchEnvelope>();
    DSPS_CHECK(env != nullptr);
    // A batch that reaches an already-evicted survivor is dead on
    // arrival: its process is gone, so no ack and no installs (the
    // control plane cancels the pending send; the queries stay
    // unplaced for re-dispatch to the next standby).
    if (!IsAlive(env->target)) return true;
    if (!rehome_channel_.Accept(msg, env->seq)) return true;
    // The survivor re-initializes one query's state at a time: installs
    // within a batch serialize at kRehomeInstallLatencyS, while different
    // survivors work concurrently — recovery time scales with the
    // largest per-survivor share, not the total orphan count.
    common::EntityId target = env->target;
    double delay = 0.0;
    for (common::QueryId qid : env->queries) {
      delay += kRehomeInstallLatencyS;
      simulator_->Schedule(delay, [this, target, qid]() {
        (void)InstallFromUnplaced(target, qid);
      });
    }
    return true;
  }
  return false;
}

void System::ShipResultToClient(common::EntityId entity,
                                common::QueryId query,
                                const engine::Tuple& tuple) {
  if (client_nodes_.empty()) return;
  auto it = client_of_query_.find(query);
  if (it == client_of_query_.end()) return;
  ClientResultEnvelope env;
  env.result_timestamp = tuple.timestamp;
  env.query = query;
  if (config_.reliable_results) env.seq = result_channel_.NextSeq();
  sim::Message msg;
  msg.from = entities_[entity]->gateway_node();
  msg.to = client_nodes_[it->second];
  msg.type = kMsgClientResult;
  msg.size_bytes = tuple.SizeBytes();
  msg.trace_id = tuple.trace_id;
  msg.payload = env;
  if (config_.reliable_results) {
    result_channel_.Send(std::move(msg), env.seq);
    return;
  }
  common::Status s = network_->Send(std::move(msg));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
}

entity::Entity::EngineFactory System::MakeEngineFactory(
    int entity_index) const {
  // Even entities run the basic engine and odd ones the batch engine: the
  // heterogeneity the loose coupling must tolerate.
  if (entity_index % 2 == 1) {
    return [] {
      return std::unique_ptr<engine::ExecutionEngine>(
          new engine::BatchEngine(16));
    };
  }
  return [] {
    return std::unique_ptr<engine::ExecutionEngine>(new engine::BasicEngine());
  };
}

void System::AddStreams(
    std::vector<std::unique_ptr<workload::StreamGen>> gens) {
  for (auto& gen : gens) {
    common::StreamId stream = gen->stream();
    DSPS_CHECK_MSG(
        static_cast<size_t>(stream) < topology_.sources.size(),
        "stream %d has no source site (increase topology.num_sources)",
        stream);
    catalog_.Register(stream, gen->stats());
    common::Status s = disseminator_->AddSource(
        stream, topology_.sources[stream].node);
    DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    streams_.push_back(std::move(gen));
  }
  // New streams change edge weights; rebuild the index on the next
  // repartition instead of patching every pair.
  graph_index_.reset();
  // Entities join every stream's tree once sources exist.
  for (const sim::EntitySite& site : topology_.entities) {
    common::Status s = disseminator_->AddEntity(
        site.entity, entities_[site.entity]->gateway_node());
    DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  }
  // AddEntity installed the disseminator's own handlers on the gateways;
  // restore the combined dispatcher.
  for (size_t e = 0; e < entities_.size(); ++e) {
    InstallGatewayDispatcher(static_cast<common::EntityId>(e));
  }
}

common::EntityId System::AllocateOne(const engine::Query& query) {
  switch (config_.allocation) {
    case AllocationMode::kRoundRobin: {
      for (int tries = 0; tries < num_entities(); ++tries) {
        common::EntityId e = round_robin_next_;
        round_robin_next_ = (round_robin_next_ + 1) % num_entities();
        if (alive_[e]) return e;
      }
      return 0;
    }
    case AllocationMode::kIsolatedZipf: {
      for (int tries = 0; tries < 64; ++tries) {
        auto e = static_cast<common::EntityId>(
            rng_.Zipf(static_cast<uint64_t>(num_entities()), 0.8));
        if (alive_[e]) return e;
      }
      return AllocateOne(query);  // practically unreachable
    }
    case AllocationMode::kCoordinatorTree:
    case AllocationMode::kCoordinatorInterest: {
      // Route by the position of the query's primary stream source (data
      // locality) balanced against entity load — and, in the interest
      // mode, against the coarse subtree interest summaries.
      sim::Point pos{0, 0};
      if (config_.query_anchor == Config::QueryAnchor::kClient &&
          !client_positions_.empty() &&
          client_of_query_.count(query.id) > 0) {
        pos = client_positions_[client_of_query_.at(query.id)];
      } else {
        common::StreamId lead = query.interest.leading_stream();
        if (lead != common::kInvalidStream &&
            static_cast<size_t>(lead) < topology_.sources.size()) {
          pos = topology_.sources[lead].position;
        }
      }
      if (config_.allocation == AllocationMode::kCoordinatorInterest) {
        auto route = coordinator_->RouteQueryByInterest(query.interest,
                                                        catalog_, pos,
                                                        query.load);
        DSPS_CHECK(route.ok());
        return route.value().entity;
      }
      auto route = coordinator_->RouteQuery(pos, query.load);
      DSPS_CHECK(route.ok());
      return route.value().entity;
    }
    case AllocationMode::kPlacementMap:
      break;  // never routed here: SubmitDirect walks the map's targets
    case AllocationMode::kGraphPartition: {
      // Single query under partition mode: place by interest affinity to
      // existing entity interests, tie-broken by load.
      double best_score = -1e300;
      common::EntityId best = 0;
      double mean_load = 1e-9;
      for (const auto& ent : entities_) mean_load += ent->TotalCommittedLoad();
      mean_load /= num_entities();
      for (int e = 0; e < num_entities(); ++e) {
        if (!alive_[e]) continue;
        double shared = interest::SharedRateBytesPerSec(
            query.interest, entity_interest_[e], catalog_);
        double load = entities_[e]->TotalCommittedLoad();
        double score = shared - load / mean_load;
        if (score > best_score) {
          best_score = score;
          best = e;
        }
      }
      return best;
    }
  }
  return 0;
}

common::Status System::InstallOn(common::EntityId entity,
                                 const engine::Query& query) {
  auto t_install = std::chrono::steady_clock::now();
  ++install_profile_.installs;
  // Expected per-binding arrival at the entity: the query's leaf filters
  // see every tuple of their stream that the dissemination layer delivers
  // to this entity — bounded by the full stream rate. (The filter's
  // interest coverage shrinks its OUTPUT, which the fragmenter's
  // selectivity cascade models; using coverage here would systematically
  // underestimate leaf-operator load.)
  double tps = 1.0;
  for (const auto& [s, boxes] : query.interest.boxes_by_stream()) {
    if (boxes.empty() || !catalog_.Contains(s)) continue;
    tps = std::max(tps, catalog_.stats(s).tuples_per_s);
  }
  const double load_factor = config_.admission.load_factor;
  if (load_factor > 0.0) {
    double capacity =
        entity::kProcessorCapacity * entities_[entity]->num_processors();
    // Cached ascending-qid member sum (see QueryStateTable): equal to the
    // old per-install member walk, but O(1) under the append-heavy id
    // order that batch submission produces.
    double admitted = entities_[entity]->TotalCommittedLoad() +
                      query_state_.MemberLoadSum(entity);
    double limit = load_factor * capacity;
    // An entity exactly at its limit rejects any further positive load.
    // The >= test is load-bearing: for a load small enough that
    // admitted + load rounds back to limit, the sum-comparison alone
    // would admit or reject depending on rounding mode and optimization
    // level — the outcome must not differ between debug and release.
    if (admitted >= limit || admitted + query.load > limit) {
      install_profile_.install_us +=
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t_install)
              .count();
      return common::Status::ResourceExhausted("entity at admission limit");
    }
  }
  DSPS_RETURN_IF_ERROR(entities_[entity]->InstallQuery(query, tps));
  query_state_.Insert(query, entity);
  GraphIndexAdd(query);
  auto t_interest = std::chrono::steady_clock::now();
  install_profile_.install_us +=
      std::chrono::duration<double, std::micro>(t_interest - t_install).count();
  // Update the entity's aggregated interest and its dissemination-tree
  // registrations. The per-stream merge re-simplifies exactly the streams
  // this query reads and reports which of them actually changed; the rest
  // are skipped outright. Republishing an unchanged stream was already a
  // no-op by the subscribers' change-detection cutoffs (coordinator slot
  // equality, tree unchanged-aggregate early stop), so the skip is
  // observably identical — it just avoids paying a tree descent per
  // already-covered stream during install storms.
  changed_streams_.clear();
  entity_interest_[entity].MergeSimplifyFrom(query.interest,
                                             &changed_streams_);
  if (!changed_streams_.empty()) {
    coordinator_->SetEntityInterest(entity, entity_interest_[entity]);
    for (common::StreamId s : changed_streams_) {
      const std::vector<interest::Box>* boxes =
          entity_interest_[entity].boxes_for(s);
      if (boxes == nullptr) continue;
      common::Status st = disseminator_->SetEntityInterest(entity, s, *boxes);
      if (!st.ok()) return st;
    }
  }
  install_profile_.interest_us +=
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t_interest)
          .count();
  // On the conservation ledger from here on: the query stays in
  // accepted_ until RemoveQuery withdraws it, whichever homes it visits.
  accepted_.insert(query.id);
  if (placement_map_ != nullptr) {
    // Single point of truth for the off-map ledger: a home the map would
    // have chosen is on-map; any other (explicit migration, fallback) is
    // excused from the auditor's replica-placement check.
    std::vector<common::EntityId> targets = placement_map_->Targets(query.id);
    if (std::find(targets.begin(), targets.end(), entity) != targets.end()) {
      off_map_.erase(query.id);
    } else {
      off_map_.insert(query.id);
    }
  }
  return common::Status::OK();
}

common::Status System::SubmitQuery(const engine::Query& query) {
  if (entities_.empty()) {
    return common::Status::FailedPrecondition("no entities");
  }
  if (IsLive(query.id)) {
    return common::Status::AlreadyExists("query id is already live");
  }
  common::Status st =
      admission_ != nullptr ? SubmitTenantQuery(query) : SubmitDirect(query);
  // A refused new submission leaves no client binding behind.
  if (!st.ok()) ReleaseClientIfGone(query.id);
  return st;
}

bool System::IsLive(common::QueryId query) const {
  return accepted_.count(query) > 0 || admission_queue_.count(query) > 0;
}

void System::AssignClient(common::QueryId query) {
  if (client_nodes_.empty() || client_of_query_.count(query) > 0) return;
  client_of_query_[query] = next_client_;
  next_client_ = (next_client_ + 1) % static_cast<int>(client_nodes_.size());
}

void System::ReleaseClientIfGone(common::QueryId query) {
  if (!IsLive(query)) client_of_query_.erase(query);
}

common::Status System::SubmitDirect(const engine::Query& query) {
  AssignClient(query.id);
  if (config_.allocation == AllocationMode::kPlacementMap) {
    // Walk the map's target list in order — primary first, then the warm
    // standbys — so an admission refusal falls through to the next
    // domain-straddling replica target instead of failing the query.
    common::Status last =
        common::Status::FailedPrecondition("no alive placement target");
    for (common::EntityId t : placement_map_->Targets(query.id)) {
      if (!IsAlive(t)) continue;
      last = InstallOn(t, query);
      if (last.ok()) return last;
    }
    return last;
  }
  auto t_route = std::chrono::steady_clock::now();
  common::EntityId e = AllocateOne(query);
  install_profile_.route_us +=
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t_route)
          .count();
  return InstallOn(e, query);
}

common::Status System::SubmitTenantQuery(const engine::Query& query) {
  tenant::TenantId t = query.tenant;
  admission_->OnSubmitted(t);
  if (admission_->QuotaExceeded(t)) {
    admission_->OnRejected(t);
    return common::Status::ResourceExhausted(
        "tenant " + tenant_registry_->NameOf(t) + " over standing-query quota");
  }
  common::Status st = SubmitDirect(query);
  if (st.ok()) {
    admission_->OnAdmitted(t, query.load);
    return st;
  }
  if (st.code() != common::StatusCode::kResourceExhausted) {
    // Not a capacity refusal (bad plan, no alive target, ...): queueing
    // or degrading cannot help, so the submission settles as rejected.
    admission_->OnRejected(t);
    return st;
  }
  // Capacity refusal: weighted-fair arbitration. A tenant over its fair
  // share sheds to a coarser interest box (answers over a representative
  // sub-region at a fraction of the load); anyone else — and over-share
  // tenants whose degraded form still finds no room — waits in the
  // bounded admission queue for capacity to free up.
  if (config_.admission.allow_degrade && admission_->OverFairShare(t, query.load)) {
    engine::Query coarse = tenant::DegradeForAdmission(query);
    if (SubmitDirect(coarse).ok()) {
      admission_->OnDegraded(t, coarse.load);
      return common::Status::OK();
    }
  }
  if (!admission_->QueueFull(t)) {
    EnqueueAdmission(query);
    return common::Status::OK();
  }
  admission_->OnRejected(t);
  return st;
}

void System::EnqueueAdmission(const engine::Query& query) {
  admission_->OnQueued(query.tenant);
  QueuedAdmission entry;
  entry.query = query;
  entry.enqueued_at = simulator_->now();
  entry.seq = next_admission_seq_++;
  admission_queue_[query.id] = std::move(entry);
  if (config_.trace != nullptr) {
    config_.trace->RecordInstant("admission_queue", simulator_->now(),
                                 query.tenant, query.id);
  }
  common::QueryId qid = query.id;
  simulator_->Schedule(config_.admission.max_queue_wait_s,
                       [this, qid]() { OnAdmissionDeadline(qid); });
}

void System::OnAdmissionDeadline(common::QueryId qid) {
  auto it = admission_queue_.find(qid);
  if (it == admission_queue_.end()) return;  // drained or withdrawn
  engine::Query query = std::move(it->second.query);
  admission_queue_.erase(it);
  tenant::TenantId t = query.tenant;
  // Last chance at expiry: capacity may have appeared without passing a
  // release site (e.g. real load decayed). Full fidelity first, then the
  // degraded form, then eviction from the queue.
  if (SubmitDirect(query).ok()) {
    admission_->OnDequeuedAdmit(t, query.load, /*degraded=*/false);
    return;
  }
  if (config_.admission.allow_degrade) {
    engine::Query coarse = tenant::DegradeForAdmission(query);
    if (SubmitDirect(coarse).ok()) {
      admission_->OnDequeuedAdmit(t, coarse.load, /*degraded=*/true);
      return;
    }
  }
  admission_->OnQueueEvicted(t);
  client_of_query_.erase(qid);
  if (config_.trace != nullptr) {
    config_.trace->RecordInstant("admission_evict", simulator_->now(), t, qid);
  }
}

int System::DrainAdmissionQueue() {
  if (admission_ == nullptr || admission_queue_.empty()) return 0;
  if (draining_admissions_) return 0;
  draining_admissions_ = true;
  // Weighted-fair drain: tenants ascending by normalized standing load at
  // drain time, FIFO (enqueue order) within a tenant.
  struct Entry {
    double share;
    int64_t seq;
    common::QueryId qid;
  };
  std::vector<Entry> order;
  order.reserve(admission_queue_.size());
  for (const auto& [qid, entry] : admission_queue_) {
    order.push_back(
        {admission_->NormalizedLoad(entry.query.tenant), entry.seq, qid});
  }
  std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
    if (a.share != b.share) return a.share < b.share;
    return a.seq < b.seq;
  });
  int landed = 0;
  for (const Entry& e : order) {
    auto it = admission_queue_.find(e.qid);
    if (it == admission_queue_.end()) continue;
    engine::Query query = it->second.query;
    if (!SubmitDirect(query).ok()) continue;
    admission_queue_.erase(e.qid);
    admission_->OnDequeuedAdmit(query.tenant, query.load, /*degraded=*/false);
    ++landed;
  }
  draining_admissions_ = false;
  return landed;
}

std::vector<common::QueryId> System::QueuedAdmissions() const {
  std::vector<common::QueryId> out;
  out.reserve(admission_queue_.size());
  for (const auto& [qid, entry] : admission_queue_) out.push_back(qid);
  return out;
}

void System::RecordTenantResult(common::QueryId query, double latency) {
  const engine::Query* q = query_state_.Find(query);
  if (q == nullptr) return;
  tenant::TenantId t = q->tenant;
  TenantRuntime& rt = tenant_runtime_[t];
  rt.results += 1;
  rt.latency.Add(latency);
  const tenant::TenantSpec& spec = tenant_registry_->SpecOrDefault(t);
  if (spec.latency_slo_s <= 0.0 || latency <= spec.latency_slo_s) {
    rt.within_slo += 1;
  }
  double now = simulator_->now();
  rt.recent.emplace_back(now, latency);
  double window = config_.admission.slo_window_s;
  while (!rt.recent.empty() && rt.recent.front().first < now - window) {
    rt.recent.pop_front();
  }
  if (config_.metrics != nullptr) {
    if (rt.results_counter == nullptr) {
      telemetry::Labels labels =
          telemetry::MakeLabels({{"tenant", tenant_registry_->NameOf(t)}});
      rt.results_counter = config_.metrics->counter("tenant.results", labels);
      rt.latency_hist =
          config_.metrics->histogram("tenant.latency_s", labels);
    }
    rt.results_counter->Increment();
    rt.latency_hist->Observe(latency);
  }
}

int64_t System::TenantResults(tenant::TenantId tenant) const {
  auto it = tenant_runtime_.find(tenant);
  return it != tenant_runtime_.end() ? it->second.results : 0;
}

const telemetry::Sketch* System::TenantLatency(tenant::TenantId tenant) const {
  auto it = tenant_runtime_.find(tenant);
  return it != tenant_runtime_.end() ? &it->second.latency : nullptr;
}

double System::TenantRecentP95(tenant::TenantId tenant) const {
  auto it = tenant_runtime_.find(tenant);
  if (it == tenant_runtime_.end() || it->second.recent.empty()) return 0.0;
  // The deque is trimmed on insert; results older than the window that
  // were not followed by newer ones still count (better a stale answer
  // than a vacuous zero during a stall).
  common::Histogram h;
  for (const auto& [when, latency] : it->second.recent) h.Add(latency);
  return h.p95();
}

double System::TenantSloAttainment(tenant::TenantId tenant) const {
  auto it = tenant_runtime_.find(tenant);
  if (it == tenant_runtime_.end() || it->second.results == 0) return 1.0;
  return static_cast<double>(it->second.within_slo) /
         static_cast<double>(it->second.results);
}

common::Status System::SubmitBatch(const std::vector<engine::Query>& queries) {
  return SubmitQueries(queries).first_error;
}

void System::TallySubmit(const common::Status& st, BatchSubmitResult* out) {
  if (st.ok()) {
    ++out->admitted;
    return;
  }
  if (st.code() == common::StatusCode::kResourceExhausted) {
    ++out->rejected;
  } else {
    ++out->failed;
  }
  if (out->first_error.ok()) out->first_error = st;
}

System::BatchSubmitResult System::SubmitQueries(
    std::span<const engine::Query> queries) {
  BatchSubmitResult result;
  if (queries.empty()) return result;
  if (entities_.empty()) {
    result.failed = static_cast<int64_t>(queries.size());
    result.first_error = common::Status::FailedPrecondition("no entities");
    return result;
  }
  if (config_.allocation != AllocationMode::kGraphPartition ||
      admission_ != nullptr) {
    for (const engine::Query& q : queries) {
      TallySubmit(SubmitQuery(q), &result);
    }
    return result;
  }
  // One live copy per id, as in SubmitQuery: a query whose id is live, or
  // repeats an earlier query of the batch, is refused before partitioning.
  std::unordered_set<common::QueryId> batch_ids;
  batch_ids.reserve(queries.size());
  bool refused = false;
  for (const engine::Query& q : queries) {
    refused |= IsLive(q.id) || !batch_ids.insert(q.id).second;
  }
  std::vector<engine::Query> fresh;
  if (refused) {
    batch_ids.clear();
    for (const engine::Query& q : queries) {
      if (IsLive(q.id) || !batch_ids.insert(q.id).second) {
        TallySubmit(common::Status::AlreadyExists("query id is already live"),
                    &result);
      } else {
        fresh.push_back(q);
      }
    }
    if (fresh.empty()) return result;
    queries = fresh;
  }
  // Joint placement: partition the batch's query graph over the alive
  // entities, then install grouped by home. The stable sort keeps each
  // entity's installs in submission order, while its admission sum,
  // member list and aggregated interest stay cache-warm across its group.
  auto t_route = std::chrono::steady_clock::now();
  for (const engine::Query& q : queries) AssignClient(q.id);
  std::vector<common::EntityId> target(queries.size());
  // A batch the partitioner cannot place fails query by query.
  const common::Status routed = PartitionBatch(queries, &target);
  std::vector<size_t> order(queries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&target](size_t a, size_t b) {
    return target[a] < target[b];
  });
  install_profile_.route_us +=
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t_route)
          .count();
  for (size_t i : order) {
    common::Status st = routed.ok() ? InstallOn(target[i], queries[i]) : routed;
    if (!st.ok()) ReleaseClientIfGone(queries[i].id);
    TallySubmit(st, &result);
  }
  return result;
}

common::Status System::PartitionBatch(std::span<const engine::Query> queries,
                                      std::vector<common::EntityId>* target) {
  const std::vector<common::EntityId> alive_ids = AliveEntityIds();
  if (alive_ids.empty()) {
    return common::Status::FailedPrecondition("no alive entities");
  }
  partition::QueryGraph graph =
      partition::QueryGraph::Build(queries, catalog_);
  partition::MultilevelPartitioner partitioner;
  auto assignment = partitioner.Partition(
      graph, static_cast<int>(alive_ids.size()), kBalanceTolerance);
  if (!assignment.ok()) return assignment.status();
  for (size_t i = 0; i < queries.size(); ++i) {
    (*target)[i] = alive_ids[assignment.value()[i]];
  }
  return common::Status::OK();
}

interest::IndexStats System::IndexStatsSnapshot() const {
  interest::IndexStats stats;
  stats.MergeFrom(disseminator_->RouteIndexStats());
  if (graph_index_ != nullptr) {
    stats.MergeFrom(graph_index_->StreamIndexStats());
  }
  for (const auto& entity : entities_) entity->CollectIndexStats(&stats);
  return stats;
}

void System::RecomputeEntityInterest(common::EntityId entity) {
  interest::InterestSet fresh;
  // Ascending-qid member walk == the old whole-map filter's merge order.
  for (common::QueryId qid : query_state_.QueriesOn(entity)) {
    fresh.MergeFrom(query_state_.At(qid).interest);
  }
  fresh.Simplify();
  entity_interest_[entity] = std::move(fresh);
  if (IsAlive(entity)) {
    coordinator_->SetEntityInterest(entity, entity_interest_[entity]);
  }
  // Refresh every stream's registration (empty boxes clear stale ones).
  // Most streams come out as the tree already has them; those are
  // skipped.
  const std::vector<interest::Box> no_boxes;
  for (common::StreamId s : catalog_.streams()) {
    const std::vector<interest::Box>* boxes =
        entity_interest_[entity].boxes_for(s);
    const std::vector<interest::Box>& next =
        boxes == nullptr ? no_boxes : *boxes;
    const dissemination::DisseminationTree* tree = disseminator_->tree(s);
    if (tree != nullptr && tree->LocalInterest(entity) == next) continue;
    // The entity may have been removed from the trees (failure path).
    (void)disseminator_->SetEntityInterest(entity, s, next);
  }
}

common::Status System::RemoveQuery(common::QueryId query) {
  common::EntityId home = query_state_.HomeOf(query);
  if (home == common::kInvalidEntity) {
    // A withdrawn query may be sitting in the unplaced queue...
    auto un_it = unplaced_.find(query);
    if (un_it != unplaced_.end()) {
      if (admission_ != nullptr) {
        admission_->OnWithdrawn(un_it->second.tenant, un_it->second.load);
      }
      unplaced_.erase(un_it);
      accepted_.erase(query);
      off_map_.erase(query);
      client_of_query_.erase(query);
      return common::Status::OK();
    }
    // ...or still waiting in the admission queue (it never stood up any
    // capacity, so withdrawal settles it as evicted-from-queue).
    if (admission_ != nullptr) {
      auto q_it = admission_queue_.find(query);
      if (q_it != admission_queue_.end()) {
        admission_->OnQueueEvicted(q_it->second.query.tenant);
        admission_queue_.erase(q_it);
        client_of_query_.erase(query);
        return common::Status::OK();
      }
    }
    return common::Status::NotFound("unknown query");
  }
  DSPS_RETURN_IF_ERROR(entities_[home]->RemoveQuery(query));
  if (admission_ != nullptr) {
    admission_->OnWithdrawn(query_state_.TenantOf(query),
                            query_state_.LoadOf(query));
  }
  query_state_.Erase(query);
  accepted_.erase(query);
  off_map_.erase(query);
  client_of_query_.erase(query);
  GraphIndexRemove(query);
  RecomputeEntityInterest(home);
  // Withdrawal released capacity: queued submissions get their retry.
  DrainAdmissionQueue();
  return common::Status::OK();
}

common::Result<int> System::FailEntity(common::EntityId entity) {
  if (entity < 0 || entity >= num_entities()) {
    return common::Status::InvalidArgument("unknown entity");
  }
  if (!alive_[entity]) {
    return common::Status::FailedPrecondition("entity already failed");
  }
  if (num_alive() <= 1) {
    return common::Status::FailedPrecondition("last alive entity");
  }
  // Oracle failure / graceful departure: the entity's process is gone, so
  // it must not be re-admitted on a late heartbeat.
  departed_[entity] = true;
  if (monitor_) monitor_->Unregister(entity);
  return EvictEntity(entity);
}

int System::EvictEntity(common::EntityId entity) {
  ++evictions_total_;
  alive_[entity] = false;
  if (placement_map_ != nullptr) placement_map_->SetAlive(entity, false);
  // Leave the federation structures (same repair path as graceful leave).
  auto leave = coordinator_->Leave(entity);
  if (leave.ok()) failure_stats_.repair_messages += leave.value();
  (void)disseminator_->RemoveEntity(entity);
  // Timer hygiene: the evicted process cannot retransmit its results, and
  // re-home batches addressed to it will never be acked. A stranded
  // batch's uninstalled queries are still in unplaced_, so they
  // re-dispatch to their next standby target, which no longer includes
  // `entity`.
  const common::SimNodeId gateway = entities_[entity]->gateway_node();
  (void)result_channel_.Abandon(gateway);
  std::vector<common::QueryId> stranded;
  for (const sim::Message& batch : rehome_channel_.Abandon(gateway)) {
    for (common::QueryId qid :
         batch.payload.get<RehomeBatchEnvelope>()->queries) {
      if (unplaced_.count(qid) > 0) stranded.push_back(qid);
    }
  }
  if (!stranded.empty()) DispatchDeclusteredRehomes(std::move(stranded));
  // Re-home its queries on the survivors. Re-homes that fail are kept in
  // the unplaced queue and counted — a failed SubmitQuery used to drop
  // the query with no error and no metric.
  std::vector<engine::Query> orphans;
  // Copy the member list first: Erase below mutates it mid-walk.
  const std::vector<common::QueryId> resident = query_state_.QueriesOn(entity);
  orphans.reserve(resident.size());
  for (common::QueryId qid : resident) {
    orphans.push_back(query_state_.At(qid));
  }
  for (const engine::Query& q : orphans) {
    (void)entities_[entity]->RemoveQuery(q.id);
    query_state_.Erase(q.id);
    GraphIndexRemove(q.id);
  }
  entity_interest_[entity].Clear();
  if (config_.trace != nullptr) {
    config_.trace->RecordInstant("evict", simulator_->now(), entity,
                                 static_cast<double>(orphans.size()));
  }
  if (placement_map_ != nullptr) {
    // Declustered recovery: orphans enter the unplaced ledger *first* (so
    // the conservation invariant holds at every audit between now and
    // their re-install), then fan out to their precomputed standby
    // targets — in parallel per-survivor batches, or one costed serial
    // chain for the baseline comparison. Nothing lands synchronously.
    std::vector<common::QueryId> orphan_ids;
    orphan_ids.reserve(orphans.size());
    for (engine::Query& q : orphans) {
      off_map_.erase(q.id);
      orphan_ids.push_back(q.id);
      unplaced_[q.id] = std::move(q);
    }
    DispatchDeclusteredRehomes(std::move(orphan_ids));
    return 0;
  }
  // Re-homes bypass SubmitQuery: their ids are still on the accepted_
  // ledger (their tenant already paid for them), so they skip arbitration
  // and cannot double-count against quotas.
  int rehomed = 0;
  for (const engine::Query& q : orphans) {
    if (SubmitDirect(q).ok()) {
      ++rehomed;
    } else {
      unplaced_[q.id] = q;
    }
  }
  failure_stats_.queries_rehomed += rehomed;
  return rehomed;
}

void System::DispatchDeclusteredRehomes(std::vector<common::QueryId> orphans) {
  DSPS_CHECK(placement_map_ != nullptr);
  // Group by first alive standby target. Queries with no alive target
  // stay in unplaced_ for the maintenance retry path.
  std::map<common::EntityId, std::vector<common::QueryId>> by_target;
  for (common::QueryId qid : orphans) {
    if (unplaced_.count(qid) == 0) continue;  // raced with removal/re-home
    for (common::EntityId t : placement_map_->Targets(qid)) {
      if (IsAlive(t)) {
        by_target[t].push_back(qid);
        break;
      }
    }
  }
  if (!config_.recovery.parallel) {
    // Serial baseline: one global re-home chain. Every install queues
    // behind a single watermark, so recovery time grows with the total
    // orphan count no matter how many survivors could have helped.
    double start = std::max(simulator_->now(), serial_rehome_free_at_);
    for (auto& [target, qids] : by_target) {
      for (common::QueryId qid : qids) {
        start += kRehomeInstallLatencyS;
        simulator_->ScheduleAt(start, [this, target = target, qid]() {
          (void)InstallFromUnplaced(target, qid);
        });
      }
    }
    serial_rehome_free_at_ = start;
    return;
  }
  for (auto& [target, qids] : by_target) {
    SendRehomeBatch(target, std::move(qids));
  }
}

void System::SendRehomeBatch(common::EntityId target,
                             std::vector<common::QueryId> queries) {
  RehomeBatchEnvelope env;
  env.target = target;
  env.queries = std::move(queries);
  env.seq = rehome_channel_.NextSeq();
  sim::Message msg;
  msg.from = rehome_node_;
  msg.to = entities_[target]->gateway_node();
  msg.type = kMsgRehomeBatch;
  msg.size_bytes =
      64 + kRehomeBatchBytesPerQuery * static_cast<int64_t>(env.queries.size());
  const int64_t seq = env.seq;
  msg.payload = std::move(env);
  failure_stats_.rehome_batches += 1;
  // A batch out of retries (target unreachable but not evicted) leaves
  // its uninstalled queries in unplaced_, which TryRehomeUnplaced and
  // every maintenance round retry — a lost batch is never a lost query.
  rehome_channel_.Send(std::move(msg), seq);
}

bool System::InstallFromUnplaced(common::EntityId target,
                                 common::QueryId query) {
  auto it = unplaced_.find(query);
  // The query may have been withdrawn or re-homed elsewhere, and the
  // target evicted, while the batch was in flight — both benign: the
  // install is simply skipped (the query either no longer needs a home
  // or waits in unplaced_ for the next dispatch).
  if (it == unplaced_.end()) return false;
  if (!IsAlive(target)) return false;
  engine::Query q = it->second;
  if (!InstallOn(target, q).ok()) return false;  // admission refusal: queued
  unplaced_.erase(query);
  failure_stats_.queries_rehomed += 1;
  return true;
}

const System::FailureStats& System::failure_stats() const {
  failure_stats_.rehome_batch_retries = rehome_channel_.retries();
  failure_stats_.rehome_batches_cancelled = rehome_channel_.failed();
  return failure_stats_;
}

std::vector<common::QueryId> System::UnplacedQueries() const {
  std::vector<common::QueryId> out;
  out.reserve(unplaced_.size());
  for (const auto& [qid, q] : unplaced_) out.push_back(qid);
  return out;
}

int System::TryRehomeUnplaced() {
  int placed = 0;
  for (auto it = unplaced_.begin(); it != unplaced_.end();) {
    // Accepted ids: SubmitDirect, like the eviction re-home loop.
    if (SubmitDirect(it->second).ok()) {
      ++placed;
      it = unplaced_.erase(it);
    } else {
      ++it;
    }
  }
  failure_stats_.queries_rehomed += placed;
  return placed;
}

void System::ReadmitEntity(common::EntityId entity) {
  alive_[entity] = true;
  departed_[entity] = false;
  if (placement_map_ != nullptr) {
    placement_map_->SetAlive(entity, true);
    // Adding a ring member can displace an existing standby from another
    // query's target list (consistent hashing moves a 1/n share). Homes
    // that fell off their list are still correct placements — park them
    // on the off-map ledger so the auditor's replica check stays exact;
    // later migrations or re-homes bring them back on-map.
    for (common::QueryId qid : query_state_.SortedIds()) {
      if (off_map_.count(qid) > 0) continue;
      std::vector<common::EntityId> targets = placement_map_->Targets(qid);
      common::EntityId home = query_state_.HomeOf(qid);
      if (std::find(targets.begin(), targets.end(), home) == targets.end()) {
        off_map_.insert(qid);
      }
    }
  }
  auto join = coordinator_->Join(entity, topology_.entities[entity].center);
  if (join.ok()) failure_stats_.repair_messages += join.value();
  (void)disseminator_->AddEntity(entity, entities_[entity]->gateway_node());
  // AddEntity installed the disseminator's own handler; restore the
  // combined dispatcher.
  InstallGatewayDispatcher(entity);
  coordinator_->SetEntityInterest(entity, entity_interest_[entity]);
  if (monitor_) monitor_->Register(entity, simulator_->now());
  failure_stats_.readmissions += 1;
  if (config_.trace != nullptr) {
    config_.trace->RecordInstant("readmit", simulator_->now(), entity);
  }
  // A fresh empty entity is exactly where queued unplaced queries belong
  // — and newly released capacity, where queued admissions do.
  if (!unplaced_.empty()) TryRehomeUnplaced();
  DrainAdmissionQueue();
}

void System::OnHeartbeat(common::EntityId entity) {
  if (entity < 0 || entity >= num_entities() || departed_[entity]) return;
  monitor_->Heartbeat(entity, simulator_->now());
  // An evicted-but-heartbeating entity was a false suspicion (or has
  // recovered): its process is up, so re-admit it.
  if (!alive_[entity]) ReadmitEntity(entity);
}

void System::HandleSuspect(common::EntityId entity) {
  if (!alive_[entity]) return;
  if (num_alive() <= 1) {
    // Never evict the last survivor on suspicion alone — keep watching.
    monitor_->Register(entity, simulator_->now());
    failure_stats_.skipped_last_alive += 1;
    return;
  }
  failure_stats_.detections += 1;
  if (config_.trace != nullptr) {
    config_.trace->RecordInstant("detect", simulator_->now(), entity);
  }
  if (!std::isnan(crash_time_[entity])) {
    failure_stats_.detection_latency.Add(simulator_->now() -
                                         crash_time_[entity]);
  } else {
    // The entity's process is up (heartbeats were lost or partitioned
    // away): a false positive. It self-heals once a heartbeat gets
    // through again — see OnHeartbeat.
    failure_stats_.false_positive_evictions += 1;
  }
  EvictEntity(entity);
}

void System::EnableFailureDetection(const FailureDetectionConfig& config,
                                    double until) {
  DSPS_CHECK(config.heartbeat_period_s > 0);
  monitor_.emplace(kSuspectPeriods * config.heartbeat_period_s);
  if (monitor_node_ == common::kInvalidSimNode) {
    // Lazily created so node-id assignment is untouched when detection is
    // off (client node ids — and thus whole simulations — stay identical).
    double center = sim::kWorldSize / 2.0;
    monitor_node_ = network_->AddNode({center, center});
    network_->SetHandler(monitor_node_, [this](const sim::Message& msg) {
      if (msg.type != kMsgHeartbeat) return;
      const auto* env = msg.payload.get<HeartbeatEnvelope>();
      DSPS_CHECK(env != nullptr);
      OnHeartbeat(env->entity);
    });
  }
  double now = simulator_->now();
  for (int e = 0; e < num_entities(); ++e) {
    if (alive_[e] && !departed_[e]) monitor_->Register(e, now);
  }
  simulator_->Every(config.heartbeat_period_s, until, [this] {
    for (int e = 0; e < num_entities(); ++e) {
      if (departed_[e]) continue;
      common::SimNodeId gw = entities_[e]->gateway_node();
      // A crashed process sends nothing (distinct from sent-but-lost,
      // which the injector drops and counts on the wire).
      if (faults_ != nullptr && !faults_->IsNodeUp(gw)) continue;
      sim::Message msg;
      msg.from = gw;
      msg.to = monitor_node_;
      msg.type = kMsgHeartbeat;
      msg.size_bytes = kHeartbeatBytes;
      msg.payload = HeartbeatEnvelope{static_cast<common::EntityId>(e)};
      common::Status s = network_->Send(std::move(msg));
      DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
      failure_stats_.heartbeat_messages += 1;
    }
  });
  simulator_->Every(config.heartbeat_period_s, until, [this] {
    for (common::EntityId suspect : monitor_->Sweep(simulator_->now())) {
      HandleSuspect(suspect);
    }
  });
}

void System::ScheduleCrash(common::EntityId entity, double crash_at,
                           double recover_at) {
  DSPS_CHECK(entity >= 0 && entity < num_entities());
  ScheduleCrashWindow({entity}, /*correlated=*/false, crash_at, recover_at);
}

std::vector<common::EntityId> System::EntitiesInDomain(int domain) const {
  std::vector<common::EntityId> members;
  for (const sim::EntitySite& site : topology_.entities) {
    if (site.fault_domain == domain) members.push_back(site.entity);
  }
  return members;
}

void System::ScheduleDomainCrash(int domain, double crash_at,
                                 double recover_at) {
  std::vector<common::EntityId> members = EntitiesInDomain(domain);
  DSPS_CHECK_MSG(!members.empty(), "fault domain %d has no entities", domain);
  ScheduleCrashWindow(std::move(members), /*correlated=*/true, crash_at,
                      recover_at);
}

void System::ScheduleCrashWindow(std::vector<common::EntityId> members,
                                 bool correlated, double crash_at,
                                 double recover_at) {
  DSPS_CHECK_MSG(faults_ != nullptr,
                 "crash windows require Config::inject_faults");
  DSPS_CHECK(recover_at > crash_at);
  // The node lists are read when the window opens and closes: elastic
  // growth may have added processors since it was scheduled.
  auto nodes_of = [this](const std::vector<common::EntityId>& entities) {
    std::vector<common::SimNodeId> nodes;
    for (common::EntityId e : entities) {
      const auto& procs = topology_.entities[e].processors;
      nodes.insert(nodes.end(), procs.begin(), procs.end());
    }
    return nodes;
  };
  simulator_->ScheduleAt(crash_at, [this, members, correlated, nodes_of]() {
    // A correlated crash takes every node of every member down in one
    // event — the rack/site failure declustering must survive.
    std::vector<common::SimNodeId> nodes = nodes_of(members);
    if (correlated) {
      faults_->CrashGroup(nodes);
    } else {
      for (common::SimNodeId node : nodes) faults_->CrashNode(node);
    }
    for (common::EntityId e : members) {
      crash_time_[e] = simulator_->now();
      if (config_.trace != nullptr) {
        config_.trace->RecordInstant("crash", simulator_->now(), e);
      }
    }
  });
  simulator_->ScheduleAt(recover_at, [this, members, nodes_of]() {
    faults_->RecoverGroup(nodes_of(members));
    for (common::EntityId e : members) {
      crash_time_[e] = std::numeric_limits<double>::quiet_NaN();
      if (config_.trace != nullptr) {
        config_.trace->RecordInstant("recover", simulator_->now(), e);
      }
    }
    // Re-admission is heartbeat-driven: a revived gateway resumes
    // beaconing and OnHeartbeat re-admits its entity if it was evicted.
  });
}

bool System::IsAlive(common::EntityId entity) const {
  return entity >= 0 && entity < num_entities() && alive_[entity];
}

int System::num_alive() const {
  int n = 0;
  for (bool a : alive_) n += a ? 1 : 0;
  return n;
}

std::vector<common::EntityId> System::AliveEntityIds() const {
  std::vector<common::EntityId> ids;
  for (int e = 0; e < num_entities(); ++e) {
    if (alive_[e]) ids.push_back(e);
  }
  return ids;
}

common::Status System::MigrateQuery(common::QueryId query,
                                    common::EntityId to) {
  common::EntityId from = query_state_.HomeOf(query);
  if (from == common::kInvalidEntity) {
    return common::Status::NotFound("unknown query");
  }
  if (!IsAlive(to)) {
    return common::Status::InvalidArgument("target entity not alive");
  }
  if (from == to) return common::Status::OK();
  engine::Query q = query_state_.At(query);
  DSPS_RETURN_IF_ERROR(entities_[from]->RemoveQuery(query));
  query_state_.Erase(query);
  GraphIndexRemove(query);
  RecomputeEntityInterest(from);
  common::Status st = InstallOn(to, q);
  if (!st.ok()) {
    // The query left `from` but could not land on `to` (admission limit,
    // install failure): park it in the unplaced queue like a failed
    // re-home — a failed migration must never lose a query.
    unplaced_[query] = q;
    return st;
  }
  if (query_migrations_counter_ != nullptr) {
    query_migrations_counter_->Increment();
  }
  return st;
}

void System::GraphIndexAdd(const engine::Query& query) {
  if (graph_index_ == nullptr) return;
  auto start = std::chrono::steady_clock::now();
  graph_index_->AddQuery(query);
  double us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  install_profile_.graph_us += us;
  if (incremental_delta_us_ != nullptr) {
    incremental_delta_us_->Observe(us);
  }
}

void System::GraphIndexRemove(common::QueryId query) {
  if (graph_index_ == nullptr) return;
  auto start = std::chrono::steady_clock::now();
  graph_index_->RemoveQuery(query);
  if (incremental_delta_us_ != nullptr) {
    incremental_delta_us_->Observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
}

common::Result<System::RepartitionReport> System::RepartitionQueries(
    partition::Repartitioner* repartitioner) {
  DSPS_CHECK(repartitioner != nullptr);
  ++repartition_rounds_;
  const std::vector<common::EntityId> alive_ids = AliveEntityIds();
  if (alive_ids.empty() || query_state_.empty()) {
    return common::Status::FailedPrecondition("nothing to repartition");
  }
  std::map<common::EntityId, int> part_of_entity;
  for (size_t i = 0; i < alive_ids.size(); ++i) {
    part_of_entity[alive_ids[i]] = static_cast<int>(i);
  }
  // Live query graph in stable (ascending) query-id order.
  const std::vector<common::QueryId> sorted_ids = query_state_.SortedIds();
  std::vector<engine::Query> live;
  std::vector<int> old_assignment;
  live.reserve(sorted_ids.size());
  old_assignment.reserve(sorted_ids.size());
  for (common::QueryId qid : sorted_ids) {
    live.push_back(query_state_.At(qid));
    auto it = part_of_entity.find(query_state_.HomeOf(qid));
    old_assignment.push_back(it == part_of_entity.end() ? -1 : it->second);
  }
  // First round bulk-loads the incremental index; later rounds only
  // materialize it, since install/remove deltas kept it in sync. Either
  // way the graph is identical to a full QueryGraph::Build over `live`.
  auto build_start = std::chrono::steady_clock::now();
  if (graph_index_ == nullptr) {
    graph_index_ = std::make_unique<partition::QueryGraphIndex>(&catalog_);
    for (const engine::Query& q : live) graph_index_->AddQuery(q);
  }
  partition::QueryGraph graph = graph_index_->Graph();
  if (graph_build_us_ != nullptr) {
    graph_build_us_->Observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - build_start)
            .count());
  }
  repartitioner->SetMetrics(config_.metrics);
  partition::RepartitionResult result = repartitioner->Repartition(
      graph, old_assignment, static_cast<int>(alive_ids.size()),
      kBalanceTolerance);
  RepartitionReport report;
  report.edge_cut = result.edge_cut;
  report.imbalance = result.imbalance;
  report.decision_seconds = result.decision_seconds;
  for (size_t i = 0; i < live.size(); ++i) {
    common::EntityId target = alive_ids[result.assignment[i]];
    if (old_assignment[i] >= 0 && target == alive_ids[old_assignment[i]]) {
      continue;
    }
    if (MigrateQuery(live[i].id, target).ok()) ++report.migrations;
  }
  if (config_.trace != nullptr) {
    config_.trace->RecordInstant("repartition", simulator_->now(), -1,
                                 static_cast<double>(report.migrations));
  }
  return report;
}

void System::MaintenanceRound() {
  maintenance_stats_.rounds += 1;
  if (!unplaced_.empty()) TryRehomeUnplaced();
  DrainAdmissionQueue();
  maintenance_stats_.coordinator_messages += coordinator_->Maintain();
  dissemination::TreeReorganizer reorganizer;
  int round_moves = 0;
  for (common::StreamId s : catalog_.streams()) {
    dissemination::DisseminationTree* tree = disseminator_->mutable_tree(s);
    if (tree != nullptr) {
      round_moves += reorganizer.Round(tree).moves;
    }
  }
  maintenance_stats_.tree_moves += round_moves;
  if (config_.trace != nullptr && round_moves > 0) {
    config_.trace->RecordInstant("tree_reorg", simulator_->now(), -1,
                                 static_cast<double>(round_moves));
  }
  placement::Rebalancer rebalancer;
  for (int e = 0; e < num_entities(); ++e) {
    if (alive_[e]) {
      maintenance_stats_.fragment_moves += entities_[e]->Rebalance(rebalancer);
    }
  }
}

void System::EnableMaintenance(double period_s, double until) {
  DSPS_CHECK(period_s > 0);
  simulator_->Every(period_s, until, [this] { MaintenanceRound(); });
}

Auditor* System::EnableAudit(double period_s, double until, bool fatal) {
  DSPS_CHECK(period_s > 0);
  if (auditor_ == nullptr) {
    Auditor::Config cfg;
    cfg.fatal = fatal;
    cfg.metrics = config_.metrics;
    cfg.flight = config_.flight;
    auditor_ = std::make_unique<Auditor>(this, cfg);
  }
  simulator_->Every(period_s, until, [this] { auditor_->RunOnce(); });
  return auditor_.get();
}

telemetry::Watchdog* System::EnableWatchdog(double period_s, double until) {
  DSPS_CHECK(period_s > 0);
  if (watchdog_ == nullptr) {
    telemetry::Watchdog::Config cfg;
    cfg.metrics = config_.metrics;
    cfg.trace = config_.trace;
    cfg.flight = config_.flight;
    watchdog_ = std::make_unique<telemetry::Watchdog>(cfg);
    // Entity loss is always an anomaly: the counter is zero on healthy
    // runs, so any strict increase fires.
    watchdog_->AddIncreaseDetector(
        "entity_loss",
        [this] { return static_cast<double>(evictions_total_); });
    // Retry storm: the three reliable channels (client results, re-home
    // batches, dissemination) summed into one cumulative count.
    watchdog_->AddRateDetector(
        "retry_storm",
        [this] {
          double retries =
              static_cast<double>(result_channel_.retries()) +
              static_cast<double>(rehome_channel_.retries());
          retries += static_cast<double>(disseminator_->retries_count());
          return retries;
        },
        kRetryStormRatePerS);
    watchdog_->AddRateDetector(
        "repartition_thrash",
        [this] { return static_cast<double>(repartition_rounds_); },
        kRepartitionThrashRatePerS);
    watchdog_->AddGrowthDetector(
        "admission_queue",
        [this] { return static_cast<double>(admission_queue_.size()); },
        kAdmissionQueueFloor);
    if (tenant_registry_ != nullptr) {
      for (tenant::TenantId t : tenant_registry_->ids()) {
        double slo = tenant_registry_->SpecOrDefault(t).latency_slo_s;
        if (slo <= 0.0) continue;
        watchdog_->AddThresholdDetector(
            "slo_burn." + tenant_registry_->NameOf(t),
            [this, t, slo] { return TenantRecentP95(t) / slo; },
            kSloBurnRatio);
      }
    }
    // Total committed load across alive entities: constant on steady
    // runs (median == sample, MAD == 0), spikes on flash crowds.
    watchdog_->AddSpikeDetector(
        "load_spike",
        [this] {
          double total = 0.0;
          for (size_t e = 0; e < entities_.size(); ++e) {
            if (alive_[e]) total += entities_[e]->TotalCommittedLoad();
          }
          return total;
        });
  }
  simulator_->Every(period_s, until,
                    [this] { watchdog_->Tick(simulator_->now()); });
  return watchdog_.get();
}

void System::RegisterSeriesProbes(telemetry::TimeSeriesRecorder* recorder) {
  for (int e = 0; e < num_entities(); ++e) {
    recorder->AddGaugeProbe(
        "series.entity_load",
        telemetry::MakeLabels({{"entity", std::to_string(e)}}),
        [this, e] { return entities_[e]->TotalCommittedLoad(); });
  }
  recorder->AddGaugeProbe("series.load_imbalance", {}, [this] {
    double total = 0.0, max_load = 0.0;
    for (const auto& ent : entities_) {
      double load = ent->TotalCommittedLoad();
      total += load;
      max_load = std::max(max_load, load);
    }
    double mean = total / std::max<size_t>(1, entities_.size());
    return mean > 0 ? max_load / mean : 1.0;
  });
  // Classified per sample (not once) because elastic growth adds
  // processor nodes.
  recorder->AddRateProbe("series.wan_bytes_per_s", {}, [this] {
    return static_cast<double>(LinkBytes().wan_bytes);
  });
  recorder->AddGaugeProbe("series.unplaced_queries", {}, [this] {
    return static_cast<double>(unplaced_.size());
  });
  recorder->AddGaugeProbe("series.alive_entities", {}, [this] {
    return static_cast<double>(num_alive());
  });
  recorder->AddGaugeProbe("series.detection_latency_ms", {}, [this] {
    const common::Histogram& h = failure_stats_.detection_latency;
    return h.count() > 0 ? h.mean() * 1e3 : 0.0;
  });
  recorder->AddRateProbe("series.repair_messages_per_s", {}, [this] {
    return static_cast<double>(failure_stats_.repair_messages);
  });
  recorder->AddRateProbe("series.results_per_s", {}, [this] {
    return static_cast<double>(metrics_.results);
  });
  recorder->AddRateProbe("series.rehomed_per_s", {}, [this] {
    return static_cast<double>(failure_stats_.queries_rehomed);
  });
  // Per-tenant trajectories (admission controller active only, so
  // tenant-free recorders serialize byte-identically to before).
  if (admission_ != nullptr) {
    for (tenant::TenantId t : tenant_registry_->ids()) {
      telemetry::Labels labels =
          telemetry::MakeLabels({{"tenant", tenant_registry_->NameOf(t)}});
      recorder->AddRateProbe("series.tenant_results_per_s", labels,
                             [this, t] {
                               return static_cast<double>(TenantResults(t));
                             });
      recorder->AddGaugeProbe(
          "series.tenant_recent_p95_ms", labels,
          [this, t] { return TenantRecentP95(t) * 1e3; });
      recorder->AddGaugeProbe("series.tenant_queued", labels, [this, t] {
        return static_cast<double>(admission_->counters(t).queued_now);
      });
      recorder->AddGaugeProbe("series.tenant_standing_load", labels,
                              [this, t] {
                                return admission_->counters(t).standing_load;
                              });
    }
    recorder->AddGaugeProbe("series.total_processors", {}, [this] {
      int procs = 0;
      for (const auto& ent : entities_) procs += ent->num_processors();
      return static_cast<double>(procs);
    });
  }
}

void System::EnableTimeSeries(telemetry::TimeSeriesRecorder* recorder,
                              double period_s, double until) {
  DSPS_CHECK(recorder != nullptr);
  DSPS_CHECK(period_s > 0);
  RegisterSeriesProbes(recorder);
  recorder->Sample(simulator_->now());
  simulator_->Every(period_s, until,
                    [this, recorder] { recorder->Sample(simulator_->now()); });
}

void System::EnableElasticity(const tenant::ElasticityManager::Config& config,
                              double period_s, double until) {
  DSPS_CHECK(period_s > 0);
  elasticity_ = std::make_unique<tenant::ElasticityManager>(config);
  simulator_->Every(period_s, until, [this] { ElasticityRound(); });
}

int System::ElasticityRound() {
  if (elasticity_ == nullptr) return 0;
  int actions = 0;
  for (int e = 0; e < num_entities(); ++e) {
    if (!alive_[e]) {
      elasticity_->Forget(e);
      continue;
    }
    entity::Entity* ent = entities_[e].get();
    tenant::ElasticityManager::Observation obs;
    obs.entity = e;
    obs.committed_load = ent->TotalCommittedLoad();
    obs.capacity = entity::kProcessorCapacity * ent->num_processors();
    obs.pr_p95 = ent->pr().p95();
    obs.processors = ent->num_processors();
    switch (elasticity_->Evaluate(obs)) {
      case tenant::ElasticityManager::Action::kGrow:
        if (GrowEntity(e)) ++actions;
        break;
      case tenant::ElasticityManager::Action::kShrink:
        if (ShrinkEntity(e)) ++actions;
        break;
      case tenant::ElasticityManager::Action::kNone:
        break;
    }
  }
  return actions;
}

bool System::GrowEntity(common::EntityId entity) {
  if (entity < 0 || entity >= num_entities() || !alive_[entity]) return false;
  entity::Entity* ent = entities_[entity].get();
  sim::EntitySite& site = topology_.entities[entity];
  // Deterministic LAN position: elastic processors land on fixed rational
  // offsets around the entity center — no RNG, so growing capacity never
  // perturbs the seeded draws of the rest of the simulation.
  static constexpr double kOffsets[8][2] = {
      {1.0, 0.0},    {0.0, 1.0},     {-1.0, 0.0},    {0.0, -1.0},
      {0.75, 0.75},  {-0.75, 0.75},  {-0.75, -0.75}, {0.75, -0.75}};
  int k = static_cast<int>(site.processors.size());
  const double* off = kOffsets[k % 8];
  double r = sim::kLanRadius * 0.5;
  sim::Point pos{site.center.x + off[0] * r, site.center.y + off[1] * r};
  common::SimNodeId node = network_->AddNode(pos);
  ent->AddProcessor(node);
  // The topology is the ground truth Collect()'s LAN/WAN split and crash
  // scheduling read; the new node must be part of the entity there too.
  site.processors.push_back(node);
  network_->SetHandler(node, ProcessorDispatcher(ent));
  elasticity_stats_.grow_events += 1;
  elasticity_stats_.processors_added += 1;
  if (config_.trace != nullptr) {
    config_.trace->RecordInstant("scale_up", simulator_->now(), entity,
                                 ent->num_processors());
  }
  // Fresh capacity: queued submissions get their retry immediately.
  DrainAdmissionQueue();
  return true;
}

bool System::ShrinkEntity(common::EntityId entity) {
  if (entity < 0 || entity >= num_entities() || !alive_[entity]) return false;
  entity::Entity* ent = entities_[entity].get();
  // Shrink never removes the gateway.
  if (ent->num_processors() <= 1) return false;
  auto removed = ent->RemoveLastProcessor();
  if (!removed.ok()) return false;
  sim::EntitySite& site = topology_.entities[entity];
  DSPS_CHECK(!site.processors.empty() &&
             site.processors.back() == removed.value());
  site.processors.pop_back();
  // The freed node keeps its handler installed and simply goes quiet;
  // stray in-flight messages to it are dispatched and ignored.
  elasticity_stats_.shrink_events += 1;
  elasticity_stats_.processors_removed += 1;
  if (config_.trace != nullptr) {
    config_.trace->RecordInstant("scale_down", simulator_->now(), entity,
                                 ent->num_processors());
  }
  return true;
}

void System::ScheduleEmission(uint32_t stream, uint32_t window) {
  workload::StreamGen* gen = streams_[stream].get();
  double rate = catalog_.stats(gen->stream()).tuples_per_s;
  double delay = rng_.Exponential(rate);
  double t = simulator_->now() + delay;
  if (t > traffic_window_end_[window]) return;
  simulator_->ScheduleAt(t, [this, stream, window]() {
    workload::StreamGen* g = streams_[stream].get();
    engine::Tuple tuple = g->Next(simulator_->now());
    common::Status s = disseminator_->Publish(tuple);
    DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    ScheduleEmission(stream, window);
  });
}

void System::GenerateTraffic(double duration_s) {
  const auto window = static_cast<uint32_t>(traffic_window_end_.size());
  traffic_window_end_.push_back(simulator_->now() + duration_s);
  for (size_t i = 0; i < streams_.size(); ++i) {
    ScheduleEmission(static_cast<uint32_t>(i), window);
  }
}

void System::RunUntil(double t) { simulator_->RunUntil(t); }

double System::now() const { return simulator_->now(); }

common::EntityId System::EntityOf(common::QueryId query) const {
  return query_state_.HomeOf(query);
}

System::LinkByteTotals System::LinkBytes() const {
  std::map<common::SimNodeId, int> entity_of_node;
  for (const sim::EntitySite& site : topology_.entities) {
    for (common::SimNodeId node : site.processors) {
      entity_of_node[node] = site.entity;
    }
  }
  LinkByteTotals totals;
  for (const sim::Network::LinkRecord& link : network_->AllLinkStats()) {
    auto a = entity_of_node.find(link.from);
    auto b = entity_of_node.find(link.to);
    bool lan = a != entity_of_node.end() && b != entity_of_node.end() &&
               a->second == b->second;
    (lan ? totals.lan_bytes : totals.wan_bytes) += link.stats.bytes;
  }
  return totals;
}

SystemMetrics System::Collect() const {
  SystemMetrics m = metrics_;
  LinkByteTotals bytes = LinkBytes();
  m.lan_bytes = bytes.lan_bytes;
  m.wan_bytes = bytes.wan_bytes;
  for (const sim::SourceSite& src : topology_.sources) {
    m.source_egress_bytes += network_->egress_bytes(src.node);
    const dissemination::DisseminationTree* tree =
        disseminator_->tree(src.stream);
    if (tree != nullptr) {
      m.max_source_fanout =
          std::max(m.max_source_fanout, tree->source_fanout());
    }
  }
  // Entity load imbalance and processor utilization.
  double total_load = 0.0, max_load = 0.0;
  for (const auto& ent : entities_) {
    double load = ent->TotalCommittedLoad();
    total_load += load;
    max_load = std::max(max_load, load);
    m.max_processor_utilization =
        std::max(m.max_processor_utilization, ent->MaxUtilization());
    m.mean_processor_utilization += ent->MeanUtilization();
  }
  m.mean_processor_utilization /= std::max<size_t>(1, entities_.size());
  double mean_load = total_load / std::max<size_t>(1, entities_.size());
  m.entity_load_imbalance = mean_load > 0 ? max_load / mean_load : 1.0;
  m.unplaced_queries = static_cast<int64_t>(unplaced_.size());
  m.dropped_messages = network_->dropped_messages();
  return m;
}

}  // namespace dsps::system
