#ifndef DSPS_SYSTEM_SYSTEM_H_
#define DSPS_SYSTEM_SYSTEM_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "coordinator/coordinator_tree.h"
#include "coordinator/heartbeat_monitor.h"
#include "dissemination/disseminator.h"
#include "engine/engine.h"
#include "entity/entity.h"
#include "interest/measure.h"
#include "partition/graph_index.h"
#include "partition/partitioner.h"
#include "partition/repartitioner.h"
#include "placement/placement.h"
#include "placement/placement_map.h"
#include "sim/fault_injector.h"
#include "sim/reliable_channel.h"
#include "sim/topology.h"
#include "system/auditor.h"
#include "system/metrics.h"
#include "system/query_state.h"
#include "telemetry/registry.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "telemetry/watchdog.h"
#include "tenant/admission.h"
#include "tenant/elasticity.h"
#include "tenant/tenant.h"
#include "workload/stream_gen.h"

namespace dsps::system {

/// Message type for entity->client result delivery.
inline constexpr int kMsgClientResult = 401;
/// Client->entity ack (a sim::AckEnvelope) of a reliable kMsgClientResult.
inline constexpr int kMsgClientResultAck = 402;
/// Entity gateway -> failure monitor liveness beacon.
inline constexpr int kMsgHeartbeat = 403;
/// Control plane -> survivor gateway: batch of orphaned queries to
/// re-install (declustered parallel recovery).
inline constexpr int kMsgRehomeBatch = 404;
/// Survivor gateway -> control plane ack (a sim::AckEnvelope) of a
/// kMsgRehomeBatch.
inline constexpr int kMsgRehomeAck = 405;

/// Payload of kMsgClientResult.
struct ClientResultEnvelope {
  double result_timestamp = 0.0;
  common::QueryId query = common::kInvalidQuery;
  /// Reliable-mode sequence number (0 = fire-and-forget).
  int64_t seq = 0;
};

/// Payload of kMsgHeartbeat.
struct HeartbeatEnvelope {
  common::EntityId entity = common::kInvalidEntity;
};

/// Payload of kMsgRehomeBatch.
struct RehomeBatchEnvelope {
  common::EntityId target = common::kInvalidEntity;
  std::vector<common::QueryId> queries;
  /// Reliable sequence number (batches are acked, retried, deduplicated).
  int64_t seq = 0;
};

/// How arriving queries are allocated to entities (Section 3.2).
enum class AllocationMode {
  /// Level-by-level routing down the hierarchical coordinator tree
  /// (Section 3.2.1) — scalable to fast query streams.
  kCoordinatorTree,
  /// Coordinator-tree routing that additionally steers by coarse subtree
  /// interest summaries, so overlapping queries co-locate (Section 3.2.2's
  /// goal at 3.2.1's cost).
  kCoordinatorInterest,
  /// Batch weighted graph partitioning (Section 3.2.2) — interest-aware.
  kGraphPartition,
  /// Round-robin baseline (no load or interest awareness).
  kRoundRobin,
  /// DAOS-style algorithmic placement (placement/placement_map.h): a
  /// multi-ring consistent hash over fault domains gives every query an
  /// O(1) stateless primary plus k warm-standby replica targets that
  /// straddle domains; on failure, orphans fan out to their precomputed
  /// standbys in parallel per-survivor batches instead of the serial
  /// re-home queue.
  kPlacementMap,
  /// Isolated regime (Table 1): each query sticks to the entity its client
  /// happens to use — Zipf-skewed random, no load sharing at all.
  kIsolatedZipf,
};

/// The full two-layer system of the paper: stream sources, a WAN of
/// entities (each a LAN cluster of processors), per-source dissemination
/// trees with early filtering, a coordinator tree or graph partitioner
/// for query distribution, and the intra-entity runtime (delegation,
/// placement, PR accounting). Everything runs on one deterministic
/// discrete-event simulation.
class System {
 public:
  /// Imbalance (heaviest part / ideal part weight) graph-partition
  /// allocation and repartitioning may accept.
  static constexpr double kBalanceTolerance = 1.2;

  struct Config {
    sim::TopologyConfig topology;
    coordinator::CoordinatorTree::Config coordinator;
    dissemination::Disseminator::Config dissemination;
    AllocationMode allocation = AllocationMode::kCoordinatorTree;
    /// When positive, models the paper's clients: each query belongs to a
    /// client at a WAN position; results are shipped from the hosting
    /// entity's gateway to the client and client-perceived latency is
    /// recorded (SystemMetrics::client_latency).
    int num_clients = 0;
    /// Where the coordinator anchors a query geographically: near its
    /// data (the primary stream's source) or near its client. The tension
    /// between the two is experiment E9.
    enum class QueryAnchor { kSource, kClient };
    QueryAnchor query_anchor = QueryAnchor::kSource;
    uint64_t seed = 1;
    /// Optional telemetry, threaded through every layer (network counters,
    /// dissemination per-node counters, coordinator events, processor
    /// utilization, causal per-tuple trace spans). Both default to null:
    /// telemetry off, zero overhead, and — because instrumentation never
    /// sends messages or consumes randomness — identical simulations
    /// either way. Must outlive the System.
    telemetry::MetricsRegistry* metrics = nullptr;
    telemetry::TraceLog* trace = nullptr;
    /// Optional post-mortem flight recorder (telemetry/flight_recorder.h):
    /// receives every trace span and instant (via TraceLog forwarding),
    /// network drop events, auditor violation summaries, and watchdog
    /// anomalies; auto-dumped to its dump_path on the first auditor
    /// violation or failed fatal check. Read-only with respect to the
    /// simulation. Must outlive the System.
    telemetry::FlightRecorder* flight = nullptr;
    /// Deterministic fault injection. When set the System owns a
    /// sim::FaultInjector (seeded from `faults.seed`) attached to its
    /// network; fault_injector() exposes it for scenario scripting
    /// (partitions, per-link loss) and ScheduleCrash drives entity crash
    /// windows through it. Off by default: no injector is attached, the
    /// network takes no fault RNG draws, and the simulation is
    /// bit-identical to a build without the fault layer.
    bool inject_faults = false;
    sim::FaultInjector::Config faults;
    /// Reliable client-result delivery: results go over a
    /// sim::ReliableChannel, so each query result reaches its client
    /// exactly once under loss, or is counted as a delivery failure. Off
    /// by default (no acks, no timers, bit-identical traffic).
    bool reliable_results = false;
    int result_max_retries = sim::ReliableChannel::kDefaultMaxRetries;
    /// Crash-recovery pipeline parameters (placement-map mode only; the
    /// other allocation modes keep the synchronous re-home of PR 3).
    struct RecoveryConfig {
      /// true: orphans fan out to their standby targets in parallel
      /// per-survivor batches over the network (each survivor installs
      /// its batch serially; survivors work concurrently). false: one
      /// global serial re-home chain — the old single-queue behavior,
      /// but costed in simulated time so the two are comparable.
      bool parallel = true;
    };
    RecoveryConfig recovery;
    /// Multi-tenant admission control (src/tenant/). Registering one or
    /// more tenant specs activates the AdmissionController: submissions
    /// are arbitrated per tenant (admit / queue with bounded wait /
    /// degrade to a coarser interest box / reject) under `admission`'s
    /// knobs. Left empty (the default), everything runs as the single
    /// implicit tenant: no controller is allocated, no RNG is drawn, no
    /// node is created — simulations are bit-identical to a tenant-free
    /// build.
    std::vector<tenant::TenantSpec> tenants;
    /// Admission knobs. `admission.load_factor` is the capacity gate of
    /// InstallOn with or without tenants: when positive, a query whose
    /// declared load — added to the entity's committed CPU load and the
    /// declared loads of its resident queries — would exceed this factor
    /// times the entity's total processor capacity is rejected
    /// (ResourceExhausted — reported, never silently dropped). 0 (the
    /// default) disables it: entities over-commit freely.
    tenant::AdmissionController::Config admission;
  };

  explicit System(const Config& config);
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Registers stream generators (their streams enter the catalog, their
  /// sources join the dissemination layer). Call before SubmitQuery.
  void AddStreams(std::vector<std::unique_ptr<workload::StreamGen>> gens);

  /// Admits one query: allocates it to an entity (per the allocation
  /// mode), installs it there, and updates the entity's dissemination
  /// interest. AlreadyExists if the id is live (placed, unplaced or
  /// queued for admission); withdraw it with RemoveQuery first.
  common::Status SubmitQuery(const engine::Query& query);

  /// Admits a batch through SubmitQueries and returns its first error
  /// (OK when every query was admitted). Every query gets its verdict;
  /// a refusal does not stop the batch.
  common::Status SubmitBatch(const std::vector<engine::Query>& queries);

  /// Outcome tally of a batched submission (SubmitQueries): every query
  /// gets its verdict, and `first_error` carries the first non-OK status
  /// for diagnostics.
  struct BatchSubmitResult {
    int64_t admitted = 0;
    /// Capacity refusals (ResourceExhausted) — expected under admission
    /// control, counted separately from hard failures.
    int64_t rejected = 0;
    int64_t failed = 0;
    common::Status first_error = common::Status::OK();
  };

  /// Admits a batch; every query gets its verdict in the tally. Under
  /// kGraphPartition with no admission controller the batch is placed
  /// jointly (Section 3.2.2): its query graph is partitioned over the
  /// alive entities (MultilevelPartitioner at kBalanceTolerance) and the
  /// queries are installed grouped by home, each home's in submission
  /// order. Every other batch is a SubmitQuery loop (Section 3.2.1's
  /// one-at-a-time routing, tenant arbitration, the placement map).
  /// Either way a query whose id is live, or repeats an earlier query of
  /// the batch, is refused with AlreadyExists (counted as failed).
  BatchSubmitResult SubmitQueries(std::span<const engine::Query> queries);

  /// Cumulative wall-clock profile of the install path (SubmitQuery /
  /// SubmitQueries), for the install-storm benchmarks.
  struct InstallProfile {
    int64_t installs = 0;      ///< InstallOn attempts (incl. refusals)
    double route_us = 0.0;     ///< allocation / coordinator descent
    double install_us = 0.0;   ///< admission gate + entity install
    double interest_us = 0.0;  ///< interest merge + (re)publication
    double graph_us = 0.0;     ///< query-graph add deltas
  };
  const InstallProfile& install_profile() const { return install_profile_; }

  /// Aggregated BoxIndex statistics over every interest index the system
  /// owns: the per-node dissemination match tables, the incremental
  /// query-graph inverted indexes, and the per-entity stream-matching
  /// indexes. Exported as the index.* series in bench JSON and read by
  /// tools/dsps_doctor.
  interest::IndexStats IndexStatsSnapshot() const;

  /// Schedules source emissions for `duration_s` of simulated time
  /// starting now (each stream at its catalog rate).
  void GenerateTraffic(double duration_s);

  /// Runs the simulation until simulated time `t`.
  void RunUntil(double t);

  /// Simulated now.
  double now() const;

  /// Gathers all metrics accumulated so far.
  SystemMetrics Collect() const;

  const interest::StreamCatalog& catalog() const { return catalog_; }
  entity::Entity* entity_at(int index) { return entities_[index].get(); }
  int num_entities() const { return static_cast<int>(entities_.size()); }
  sim::Network* network() { return network_.get(); }
  dissemination::Disseminator* disseminator() { return disseminator_.get(); }
  coordinator::CoordinatorTree* coordinator_tree() {
    return coordinator_.get();
  }

  /// Which entity hosts `query` (kInvalidEntity if unknown).
  common::EntityId EntityOf(common::QueryId query) const;

  /// Withdraws a query: uninstalls it from its entity and recomputes the
  /// entity's aggregated dissemination interest from its remaining
  /// queries (so ancestors stop forwarding data nobody wants).
  common::Status RemoveQuery(common::QueryId query);

  /// Simulates the oracle failure (or graceful departure) of an entity:
  /// it leaves the coordinator tree and every dissemination tree, and its
  /// queries are re-allocated to the surviving entities — the
  /// loose-coupling payoff: nothing else changes. Returns the number of
  /// queries re-homed; queries whose re-home failed are kept in the
  /// unplaced queue (see UnplacedQueries) and counted, never silently
  /// dropped. For failures *detected* rather than announced, see
  /// EnableFailureDetection.
  common::Result<int> FailEntity(common::EntityId entity);

  bool IsAlive(common::EntityId entity) const;
  int num_alive() const;

  /// The fault injector (null unless Config::inject_faults). Use it to
  /// script partitions and per-link loss on top of the config-level fault
  /// model.
  sim::FaultInjector* fault_injector() { return faults_.get(); }

  /// Schedules a crash window for `entity` (requires inject_faults): at
  /// `crash_at` every node of the entity goes down — messages to and from
  /// it, heartbeats included, are dropped and counted; at `recover_at`
  /// the nodes come back and, if the entity was evicted by failure
  /// detection meanwhile, it re-joins the federation empty (its queries
  /// were re-homed). The crash is only *detected* — and its queries only
  /// re-homed — if failure detection is enabled.
  void ScheduleCrash(common::EntityId entity, double crash_at,
                     double recover_at);

  /// Schedules a *correlated* crash window (requires inject_faults): every
  /// entity in fault domain `domain` (see TopologyConfig::num_fault_domains)
  /// crashes at `crash_at` in one event and recovers at `recover_at` — the
  /// rack/site failure the declustered placement map is built to survive.
  void ScheduleDomainCrash(int domain, double crash_at, double recover_at);

  /// Entities assigned to fault domain `domain` by the topology.
  std::vector<common::EntityId> EntitiesInDomain(int domain) const;

  /// The declustered placement map (null unless allocation ==
  /// AllocationMode::kPlacementMap). Exposed for tests and the auditor.
  const placement::PlacementMap* placement_map() const {
    return placement_map_.get();
  }

  /// Real heartbeat-driven failure detection (Section 3.2.1): every
  /// heartbeat_period_s each non-departed entity's gateway sends a
  /// heartbeat *message over the simulated network* to a monitor node,
  /// and the System sweeps its HeartbeatMonitor once per period too. An
  /// entity is suspected at the first sweep more than kSuspectPeriods
  /// periods after its last heartbeat arrived, and the FailEntity repair
  /// path runs on it — detection latency, repair messages, and re-home
  /// outcomes are recorded in failure_stats(). False positives self-heal:
  /// an evicted entity whose heartbeats get through again is re-admitted.
  struct FailureDetectionConfig {
    double heartbeat_period_s = 0.5;
  };
  /// Heartbeat periods an entity may go unheard before it is suspected.
  static constexpr int kSuspectPeriods = 3;
  void EnableFailureDetection(const FailureDetectionConfig& config,
                              double until);

  /// Cumulative failure-detection / recovery accounting.
  struct FailureStats {
    /// Sweep-triggered evictions (crashes detected + false positives).
    int detections = 0;
    /// Evictions of entities that were actually up (suspected on lost
    /// heartbeats alone).
    int false_positive_evictions = 0;
    /// Entities re-admitted after recovery or a false positive.
    int readmissions = 0;
    /// Suspects spared because they were the last alive entity.
    int skipped_last_alive = 0;
    /// Orphaned queries successfully re-homed by any eviction path.
    int queries_rehomed = 0;
    /// Heartbeat messages sent (the standing cost of detection).
    int64_t heartbeat_messages = 0;
    /// Coordinator protocol messages spent on Leave/Join repairs.
    int64_t repair_messages = 0;
    /// Declustered recovery (placement-map mode): re-home batches sent to
    /// survivors, their retransmissions, and batches given up — out of
    /// retries or addressed to an evicted target (their queries stay
    /// unplaced and are retried).
    int64_t rehome_batches = 0;
    int64_t rehome_batch_retries = 0;
    int64_t rehome_batches_cancelled = 0;
    /// Crash-to-sweep delay of every detected (real) crash.
    common::Histogram detection_latency;
  };
  /// The live counters. The re-home batch retry and give-up counts live
  /// in the re-home channel and are copied in at each call, so read them
  /// through a fresh call.
  const FailureStats& failure_stats() const;

  /// The failure monitor's network node (kInvalidSimNode until
  /// EnableFailureDetection ran). Exposed so fault scenarios can target
  /// the heartbeat path itself (partitions, loss).
  common::SimNodeId monitor_node() const { return monitor_node_; }
  /// The control-plane node re-home batches leave from (kInvalidSimNode
  /// outside kPlacementMap). Exposed so fault scenarios can target the
  /// re-home path.
  common::SimNodeId rehome_node() const { return rehome_node_; }

  /// Network node of client `index` (requires Config::num_clients >
  /// index). Exposed so fault scenarios can target the result path.
  common::SimNodeId client_node(int index) const {
    return client_nodes_[index];
  }

  /// Queries currently without a home because re-home or admission
  /// failed. They stay queued: TryRehomeUnplaced retries them (also
  /// called automatically on entity re-admission and every maintenance
  /// round) and Collect reports them — a failed placement is never a
  /// silent loss.
  std::vector<common::QueryId> UnplacedQueries() const;
  int unplaced_count() const { return static_cast<int>(unplaced_.size()); }
  /// Attempts to re-submit every unplaced query; returns how many landed.
  int TryRehomeUnplaced();

  /// Reliable client-result delivery statistics (zero unless
  /// Config::reliable_results).
  int64_t result_retries() const { return result_channel_.retries(); }
  /// Result copies a client refused: retransmissions and network
  /// duplicates of results it already had.
  int64_t result_duplicates() const { return result_channel_.duplicates(); }
  int64_t result_delivery_failures() const {
    return result_channel_.failed();
  }
  /// Pending result retries cancelled because their sending entity was
  /// evicted (the process is gone; its timers must not run out their
  /// retries against a client that already saw the failure).
  int64_t result_retries_cancelled() const {
    return result_channel_.cancelled();
  }

  /// Moves a live query to another entity. Because entities may run
  /// different engines, operator state cannot cross the boundary (the
  /// paper's Section 3 argument): the move is a query-level reinstall —
  /// window state restarts on the new entity.
  common::Status MigrateQuery(common::QueryId query, common::EntityId to);

  /// One round of runtime adaptive repartitioning (Section 3.2.2): builds
  /// the live query graph from the installed queries, lets `repartitioner`
  /// adapt the current assignment, and executes the resulting migrations.
  struct RepartitionReport {
    int migrations = 0;
    double edge_cut = 0.0;
    double imbalance = 1.0;
    double decision_seconds = 0.0;
  };
  common::Result<RepartitionReport> RepartitionQueries(
      partition::Repartitioner* repartitioner);

  /// Starts periodic self-maintenance at the given cadence: coordinator
  /// re-centering (rule 5), dissemination-tree reorganization rounds, and
  /// intra-entity placement rebalancing. Runs until `until` (simulated).
  void EnableMaintenance(double period_s, double until);

  /// Cumulative maintenance actions (for experiments).
  struct MaintenanceStats {
    int rounds = 0;
    int tree_moves = 0;
    int fragment_moves = 0;
    int coordinator_messages = 0;
  };
  const MaintenanceStats& maintenance_stats() const {
    return maintenance_stats_;
  }

  /// Starts the periodic invariant auditor (see system/auditor.h): one
  /// full sweep every `period_s` simulated seconds until `until`. The
  /// sweeps are read-only observers — enabling them cannot change a
  /// simulation's results. Returns the auditor (owned by the System) so
  /// callers can read its violation counts and its JSON report
  /// (`ReportJson`); repeated calls reuse the existing auditor. `fatal`
  /// aborts on the first violation (defaults on in debug builds).
  Auditor* EnableAudit(double period_s, double until,
                       bool fatal = Auditor::Config().fatal);

  /// The auditor, or null before EnableAudit.
  Auditor* auditor() { return auditor_.get(); }

  /// Starts the online anomaly watchdog (telemetry/watchdog.h): every
  /// `period_s` simulated seconds until `until` its detectors sweep the
  /// control plane for entity loss, retry storms, repartition thrash,
  /// admission-queue buildup, per-tenant SLO burn, and load spikes.
  /// Like the auditor, the sweeps are read-only, consume no RNG, and
  /// send no messages — enabling them cannot change a simulation's
  /// results. Returns the watchdog (owned by the System) so callers can
  /// read trigger counts; repeated calls reuse the existing watchdog.
  telemetry::Watchdog* EnableWatchdog(double period_s, double until);

  /// The watchdog, or null before EnableWatchdog.
  telemetry::Watchdog* watchdog() { return watchdog_.get(); }

  /// Registers this system's adaptation-trajectory probes on `recorder`:
  /// per-entity committed load, load imbalance, WAN bytes/s, unplaced
  /// queue depth, alive entities, detection latency, repair messages/s,
  /// and results/s. The recorder must outlive the System's sampling.
  void RegisterSeriesProbes(telemetry::TimeSeriesRecorder* recorder);

  /// RegisterSeriesProbes + one immediate sample + periodic sampling every
  /// `period_s` simulated seconds until `until`. Sampling is read-only:
  /// it consumes no RNG and sends no messages, so enabling it cannot
  /// perturb the simulation.
  void EnableTimeSeries(telemetry::TimeSeriesRecorder* recorder,
                        double period_s, double until);

  /// The admission controller (null unless Config::tenants is non-empty).
  const tenant::AdmissionController* admission() const {
    return admission_.get();
  }
  /// The tenant registry (null unless Config::tenants is non-empty).
  const tenant::TenantRegistry* tenant_registry() const {
    return tenant_registry_.get();
  }
  /// Pending (queued) submissions awaiting capacity, ascending query id.
  std::vector<common::QueryId> QueuedAdmissions() const;
  /// Retries queued submissions in weighted-fair order (lightest
  /// normalized standing load first, FIFO within a tenant); runs
  /// automatically whenever capacity is released (query withdrawal,
  /// entity re-admission, elastic growth, maintenance rounds). Returns
  /// how many landed.
  int DrainAdmissionQueue();

  /// Per-tenant result-latency accounting (only populated while the
  /// admission controller is active).
  int64_t TenantResults(tenant::TenantId tenant) const;
  /// Latency distribution over all of the tenant's results so far (null
  /// if none yet).
  const telemetry::Sketch* TenantLatency(tenant::TenantId tenant) const;
  /// p95 latency over the trailing admission.slo_window_s window (0 when
  /// no recent results).
  double TenantRecentP95(tenant::TenantId tenant) const;
  /// Fraction of the tenant's results within its latency SLO (1 when the
  /// tenant has no SLO or no results yet).
  double TenantSloAttainment(tenant::TenantId tenant) const;

  /// Elastic per-entity capacity: every `period_s` the ElasticityManager
  /// observes each alive entity (committed load vs capacity, result-PR
  /// p95 — the Section 4.1 PR_k accounting) and the System executes its
  /// grow/shrink decisions by adding/retiring intra-entity processors.
  /// Entity-level structures (placement-map standbys included) key on
  /// entity ids, so they stay valid across capacity changes. Runs until
  /// `until` (simulated).
  void EnableElasticity(const tenant::ElasticityManager::Config& config,
                        double period_s, double until);
  struct ElasticityStats {
    int grow_events = 0;
    int shrink_events = 0;
    int processors_added = 0;
    int processors_removed = 0;
  };
  const ElasticityStats& elasticity_stats() const {
    return elasticity_stats_;
  }
  /// One immediate elasticity evaluation round (also used internally by
  /// the periodic tick). Returns grow+shrink actions taken.
  int ElasticityRound();

 private:
  friend class Auditor;
  common::Status InstallOn(common::EntityId entity, const engine::Query& query);
  /// The pre-tenant submission path: client assignment, allocation, and
  /// InstallOn (with placement-map standby walk). Tenant admission wraps
  /// this for new submissions; internal re-homes call it directly.
  common::Status SubmitDirect(const engine::Query& query);
  /// True while `query` is placed, unplaced or queued for admission.
  bool IsLive(common::QueryId query) const;
  /// Weighted-fair arbitration of a brand-new submission (controller
  /// active, query not yet on the ledger).
  common::Status SubmitTenantQuery(const engine::Query& query);
  void EnqueueAdmission(const engine::Query& query);
  /// Bounded-wait expiry of a queued submission: one last install try
  /// (full fidelity, then degraded), else eviction from the queue.
  void OnAdmissionDeadline(common::QueryId query);
  /// Per-tenant result-latency accounting (admission controller active).
  void RecordTenantResult(common::QueryId query, double latency);
  bool GrowEntity(common::EntityId entity);
  bool ShrinkEntity(common::EntityId entity);
  common::EntityId AllocateOne(const engine::Query& query);
  /// Binds a query to the next client, round-robin, on its first
  /// submission (no-op without clients or when already bound).
  void AssignClient(common::QueryId query);
  /// Drops the query's client binding once it is neither admitted nor
  /// queued: a binding lives exactly as long as its query.
  void ReleaseClientIfGone(common::QueryId query);
  /// Alive entity ids, ascending (the part -> entity map of joint
  /// placement and repartitioning).
  std::vector<common::EntityId> AliveEntityIds() const;
  /// Network handler of a processor node: intra-entity messages first,
  /// then dissemination.
  sim::Network::Handler ProcessorDispatcher(entity::Entity* ent);
  /// Crash window shared by ScheduleCrash and ScheduleDomainCrash: every
  /// node of `members` goes down at `crash_at` and back up at
  /// `recover_at`. `correlated` makes the crash one correlated event
  /// (FaultInjector::CrashGroup).
  void ScheduleCrashWindow(std::vector<common::EntityId> members,
                           bool correlated, double crash_at,
                           double recover_at);
  /// Draws stream `stream`'s next inter-arrival gap and schedules its
  /// emission if it lands inside traffic window `window`. The event
  /// captures {this, stream, window}, which fits std::function's inline
  /// buffer, so a generated tuple costs no allocation to schedule.
  void ScheduleEmission(uint32_t stream, uint32_t window);
  entity::Entity::EngineFactory MakeEngineFactory(int entity_index) const;
  /// Installs the combined gateway dispatcher (system acks -> entity ->
  /// dissemination) on the entity's gateway node.
  void InstallGatewayDispatcher(common::EntityId entity);
  /// Consumes system-level messages (client-result acks). True if eaten.
  bool HandleSystemMessage(const sim::Message& msg);
  /// Shared eviction path of FailEntity and sweep detection: leaves the
  /// federation structures, purges the entity, re-homes its queries
  /// (failures go to unplaced_). Returns the number re-homed.
  int EvictEntity(common::EntityId entity);
  /// Re-admits a recovered or falsely-suspected entity (empty).
  void ReadmitEntity(common::EntityId entity);
  /// A heartbeat from `entity` reached the monitor node.
  void OnHeartbeat(common::EntityId entity);
  /// Sweep-detected suspect: record detection, evict, re-home.
  void HandleSuspect(common::EntityId entity);
  /// Link bytes so far, split by the topology: a link is LAN iff both
  /// endpoints sit inside one entity's processor set.
  struct LinkByteTotals {
    int64_t lan_bytes = 0;
    int64_t wan_bytes = 0;
  };
  LinkByteTotals LinkBytes() const;
  /// Declustered recovery pipeline (placement-map mode). Orphans are
  /// already in unplaced_ when these run; DispatchDeclusteredRehomes
  /// groups them by first alive standby target and either fans batches
  /// out to survivor gateways in parallel over rehome_channel_, or
  /// schedules one global serial install chain.
  void DispatchDeclusteredRehomes(std::vector<common::QueryId> orphans);
  void SendRehomeBatch(common::EntityId target,
                       std::vector<common::QueryId> queries);
  /// Installs one unplaced query on `target` if both still qualify (the
  /// query may have been removed or re-homed, the target evicted, while
  /// the batch was in flight). Returns true if it landed.
  bool InstallFromUnplaced(common::EntityId target, common::QueryId query);

  Config config_;
  common::Rng rng_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<sim::Network> network_;
  sim::Topology topology_;
  interest::StreamCatalog catalog_;
  std::vector<std::unique_ptr<workload::StreamGen>> streams_;
  /// End time of each GenerateTraffic call's window; every call keeps its
  /// own, so overlapping windows run independent emission chains.
  std::vector<double> traffic_window_end_;
  std::vector<std::unique_ptr<entity::Entity>> entities_;
  std::unique_ptr<placement::PrAwarePlacement> placement_policy_;
  std::unique_ptr<dissemination::Disseminator> disseminator_;
  std::unique_ptr<coordinator::CoordinatorTree> coordinator_;
  /// Per-entity aggregated interest (union over its queries).
  std::vector<interest::InterestSet> entity_interest_;
  /// Installed queries and their hot runtime state (home, load, tenant)
  /// in one SoA table — replaces the old query_home_ / queries_ map pair.
  QueryStateTable query_state_;
  /// Incrementally maintained query graph. Null until the first
  /// RepartitionQueries call (non-repartitioning runs never pay for it);
  /// afterwards kept in sync by install/remove deltas, so later rounds
  /// materialize the graph instead of re-measuring every query pair.
  /// Dropped when the stream catalog changes (AddStreams).
  std::unique_ptr<partition::QueryGraphIndex> graph_index_;
  std::vector<bool> alive_;
  /// Oracle-failed / gracefully-departed entities (their process is gone,
  /// so they stop heartbeating — unlike sweep-evicted ones, which may
  /// still be alive and earn re-admission).
  std::vector<bool> departed_;
  /// Queries whose (re-)placement failed; kept queued for retry.
  std::map<common::QueryId, engine::Query> unplaced_;
  /// Every query id ever admitted and not yet withdrawn — the auditor's
  /// conservation ground truth: accepted_ == keys(query_state_) ⊎
  /// keys(unplaced_) at all times (eviction and migration move queries
  /// between the two sides, never off the ledger). Hashed: only counted,
  /// probed, and scanned order-insensitively by the auditor.
  std::unordered_set<common::QueryId> accepted_;
  /// Invariant auditor (null until EnableAudit).
  std::unique_ptr<Auditor> auditor_;
  /// Anomaly watchdog (null until EnableWatchdog).
  std::unique_ptr<telemetry::Watchdog> watchdog_;
  /// Cumulative control-plane event counters the watchdog probes.
  int64_t repartition_rounds_ = 0;
  int64_t evictions_total_ = 0;
  /// Fault layer (null unless config_.inject_faults).
  std::unique_ptr<sim::FaultInjector> faults_;
  /// Crash instant of each entity's current window (for detection
  /// latency), NaN when none.
  std::vector<double> crash_time_;
  /// Failure detection; empty until EnableFailureDetection runs.
  std::optional<coordinator::HeartbeatMonitor> monitor_;
  common::SimNodeId monitor_node_ = common::kInvalidSimNode;
  mutable FailureStats failure_stats_;
  /// Entity -> client results (unused unless reliable_results).
  sim::ReliableChannel result_channel_;
  /// Control plane -> survivor re-home batches (unused outside
  /// placement-map mode).
  sim::ReliableChannel rehome_channel_;
  /// Declustered placement state (null / untouched unless allocation ==
  /// kPlacementMap). The map mirrors the System's alive set; rehome_node_
  /// is the control-plane node batches originate from.
  std::unique_ptr<placement::PlacementMap> placement_map_;
  common::SimNodeId rehome_node_ = common::kInvalidSimNode;
  /// When one global serial chain is used (recovery.parallel == false),
  /// installs queue behind this simulated-time watermark.
  double serial_rehome_free_at_ = 0.0;
  /// Queries deliberately moved off their map targets (explicit
  /// MigrateQuery / repartitioning). The auditor's replica-placement
  /// check excuses these; eviction re-homes them back through the map.
  std::unordered_set<common::QueryId> off_map_;
  /// Client modeling (when config_.num_clients > 0).
  std::vector<common::SimNodeId> client_nodes_;
  std::vector<sim::Point> client_positions_;
  std::unordered_map<common::QueryId, int> client_of_query_;
  int next_client_ = 0;
  int round_robin_next_ = 0;
  /// Multi-tenant state (all null/empty unless Config::tenants is set).
  std::unique_ptr<tenant::TenantRegistry> tenant_registry_;
  std::unique_ptr<tenant::AdmissionController> admission_;
  struct QueuedAdmission {
    engine::Query query;
    double enqueued_at = 0.0;
    /// FIFO order within a tenant during weighted-fair drains.
    int64_t seq = 0;
  };
  std::map<common::QueryId, QueuedAdmission> admission_queue_;
  int64_t next_admission_seq_ = 1;
  /// Re-entrancy guard: DrainAdmissionQueue runs from capacity-release
  /// sites that its own installs can reach again.
  bool draining_admissions_ = false;
  struct TenantRuntime {
    telemetry::Sketch latency;
    int64_t results = 0;
    int64_t within_slo = 0;
    /// (completion time, latency) of recent results, trimmed to the
    /// admission.slo_window_s window — the recent-p95 probe's input.
    std::deque<std::pair<double, double>> recent;
    telemetry::Counter* results_counter = nullptr;
    telemetry::HistogramMetric* latency_hist = nullptr;
  };
  std::map<tenant::TenantId, TenantRuntime> tenant_runtime_;
  /// Elasticity (null unless EnableElasticity ran).
  std::unique_ptr<tenant::ElasticityManager> elasticity_;
  ElasticityStats elasticity_stats_;
  SystemMetrics metrics_;
  MaintenanceStats maintenance_stats_;
  /// Cached telemetry series (null when config_.metrics is null).
  telemetry::Counter* results_counter_ = nullptr;
  telemetry::Counter* query_migrations_counter_ = nullptr;
  telemetry::HistogramMetric* latency_hist_ = nullptr;
  telemetry::HistogramMetric* pr_hist_ = nullptr;
  telemetry::HistogramMetric* graph_build_us_ = nullptr;
  telemetry::HistogramMetric* incremental_delta_us_ = nullptr;
  /// Applies a timed add/remove delta to graph_index_ (no-op while null).
  void GraphIndexAdd(const engine::Query& query);
  void GraphIndexRemove(common::QueryId query);
  /// Classifies one submission status into the batch tally.
  static void TallySubmit(const common::Status& st, BatchSubmitResult* out);
  /// Graph-partition routing of a batch: partitions the batch's query
  /// graph over the alive entities and writes each query's home into
  /// `target` (sized like `queries`).
  common::Status PartitionBatch(std::span<const engine::Query> queries,
                                std::vector<common::EntityId>* target);
  InstallProfile install_profile_;
  /// InstallOn scratch (per-install changed-stream list, reused).
  std::vector<common::StreamId> changed_streams_;
  void RecomputeEntityInterest(common::EntityId entity);
  void MaintenanceRound();
  void ShipResultToClient(common::EntityId entity, common::QueryId query,
                          const engine::Tuple& tuple);
};

}  // namespace dsps::system

#endif  // DSPS_SYSTEM_SYSTEM_H_
