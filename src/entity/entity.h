#ifndef DSPS_ENTITY_ENTITY_H_
#define DSPS_ENTITY_ENTITY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "engine/engine.h"
#include "interest/box_index.h"
#include "interest/measure.h"
#include "engine/plan.h"
#include "entity/processor.h"
#include "placement/placement.h"
#include "placement/rebalancer.h"
#include "sim/network.h"
#include "telemetry/sketch.h"

namespace dsps::entity {

/// Message types of the intra-entity runtime.
inline constexpr int kMsgStreamTuple = 201;    // gateway -> stream delegate
inline constexpr int kMsgFragmentTuple = 202;  // pipeline hop between procs
inline constexpr int kMsgMigration = 203;      // fragment state transfer

/// Payload of kMsgStreamTuple.
struct StreamTupleEnvelope {
  std::shared_ptr<const engine::Tuple> tuple;
  /// The tuple's projection (engine::ProjectPoint); the delegate stabs
  /// its stream index with it.
  std::shared_ptr<const std::vector<double>> point;
};

/// Payload of kMsgFragmentTuple.
struct FragmentTupleEnvelope {
  common::FragmentId fragment = -1;
  common::OperatorId op = -1;
  int port = 0;
  std::shared_ptr<const engine::Tuple> tuple;
};

/// One business entity (Section 4): a cluster of processors on a fast LAN
/// under central administration. Implements the paper's intra-entity
/// machinery:
///  * stream delegation — each incoming stream is owned by one delegate
///    processor that routes it to the others (Figure 3);
///  * dynamic operator placement — queries are cut into fragments
///    (bounded by the distribution limit) and placed by a pluggable
///    PlacementPolicy (Section 4.1);
///  * Performance Ratio accounting — every query result records
///    PR = delay / inherent evaluation time.
/// The runtime is platform independent: processors host any
/// ExecutionEngine produced by the factory.
class Entity {
 public:
  using EngineFactory =
      std::function<std::unique_ptr<engine::ExecutionEngine>()>;

  struct Config {
    /// Max processors one query may touch (Section 4.1's heuristic 2).
    int distribution_limit = 2;
    /// Baseline knob (Figure 3 ablation): route every stream through
    /// processor 0 instead of per-stream delegates.
    bool single_receiver = false;
    /// Fault domain (rack/site) this entity's processors share — set
    /// from TopologyConfig::num_fault_domains by the System so placement
    /// can straddle domains; the auditor cross-checks the placement
    /// map's domain view against this ground truth.
    int fault_domain = 0;
    /// When set, delegates use a per-stream BoxIndex over the queries'
    /// interests to fan tuples out only to queries whose filter can
    /// match — the delegate's hot loop goes from O(queries) to the boxes
    /// of one spline bucket.
    /// Queries without interest boxes on a stream still get everything.
    const interest::StreamCatalog* catalog = nullptr;
    /// Optional telemetry (null = disabled, zero overhead). Processors
    /// export per-processor metrics labeled {entity, processor}; sampled
    /// tuples keep their trace across intra-entity hops; fragment
    /// migrations count into entity.fragment_migrations.
    telemetry::MetricsRegistry* metrics = nullptr;
    telemetry::TraceLog* trace = nullptr;
  };

  /// `network`, `policy` must outlive the entity. One processor is created
  /// per node in `processor_nodes`; the first node doubles as the entity's
  /// gateway (wrapper) for inter-entity traffic.
  Entity(common::EntityId id, sim::Network* network,
         std::vector<common::SimNodeId> processor_nodes,
         EngineFactory engine_factory, placement::PlacementPolicy* policy,
         const Config& config);
  // Handlers capture `this`; the object must stay put.
  Entity(const Entity&) = delete;
  Entity& operator=(const Entity&) = delete;

  common::EntityId id() const { return id_; }
  int fault_domain() const { return config_.fault_domain; }
  common::SimNodeId gateway_node() const;
  int num_processors() const { return static_cast<int>(processors_.size()); }
  Processor* processor(common::ProcessorId id);

  /// Installs this entity's network handlers on its processor nodes
  /// (standalone use; a full-system runtime dispatches HandleMessage from
  /// its own handlers instead).
  void InstallHandlers();

  /// Dispatches an intra-entity message addressed to one of this entity's
  /// processor nodes. Returns true if consumed.
  bool HandleMessage(const sim::Message& msg);

  /// The delegate processor of `stream`, assigned round-robin on first
  /// use (Figure 3's delegation scheme).
  common::ProcessorId DelegateFor(common::StreamId stream);

  /// Admits a continuous query: fragments it, places the fragments, and
  /// installs them on the processors. `expected_input_tps` is the
  /// estimated per-stream arrival rate used for load/traffic estimates.
  common::Status InstallQuery(const engine::Query& query,
                              double expected_input_tps);

  /// Removes a query and uninstalls its fragments.
  common::Status RemoveQuery(common::QueryId query);

  size_t query_count() const { return queries_.size(); }

  /// Installed query ids, ascending (for conservation audits: the
  /// system-level home map and the entity-level installs must agree).
  std::vector<common::QueryId> InstalledQueries() const {
    std::vector<common::QueryId> out;
    out.reserve(queries_.size());
    for (const auto& [id, state] : queries_) out.push_back(id);
    return out;
  }

  /// Entry point: a stream tuple reached this entity (delivered by the
  /// dissemination layer at the gateway, at the current simulated time).
  /// `point` is its projection (engine::ProjectPoint); the delegate hop
  /// shares both instead of copying them.
  void OnStreamTuple(std::shared_ptr<const engine::Tuple> tuple,
                     std::shared_ptr<const std::vector<double>> point);
  /// The same for a tuple that is not shared yet: copies and projects it.
  void OnStreamTuple(const engine::Tuple& tuple);

  /// A produced query result with its delay accounting.
  struct ResultRecord {
    common::QueryId query = common::kInvalidQuery;
    /// completion time - result timestamp (the paper's d_k).
    double latency = 0.0;
    /// latency / p_k (the paper's Performance Ratio).
    double pr = 0.0;
  };
  using ResultHandler =
      std::function<void(const ResultRecord&, const engine::Tuple&)>;
  void SetResultHandler(ResultHandler handler);

  int64_t results_count() const { return results_; }
  /// Distribution of Performance Ratios over all results so far.
  const telemetry::Sketch& pr() const { return pr_; }
  /// Max/mean processor utilization (busy seconds / elapsed).
  double MaxUtilization() const;
  double MeanUtilization() const;

  /// Where a fragment lives (NotFound if unknown).
  common::Result<common::ProcessorId> FragmentLocation(
      common::FragmentId fragment) const;

  /// Migrates a live fragment (with its window state) to another
  /// processor. Buffered work is flushed first; the state transfer is
  /// charged to the LAN as a kMsgMigration message; all routing tables
  /// are updated. Dynamic placement (Section 4.1) is built on this.
  common::Status MoveFragment(common::FragmentId fragment,
                              common::ProcessorId to);

  /// One round of dynamic re-placement: plans migrations with
  /// `rebalancer` from the current committed loads and applies them.
  /// Returns the number of fragments moved.
  int Rebalance(const placement::Rebalancer& rebalancer);

  /// Load (CPU s/s) this entity believes it has committed.
  double TotalCommittedLoad() const;

  /// Accumulates the per-stream tuple-matching indexes' statistics into
  /// `stats` (boxes, memory, spline health).
  void CollectIndexStats(interest::IndexStats* stats) const;

  /// Elastic capacity: adds one processor hosted on `node` (a member of
  /// this entity's LAN), wired like the constructor-built ones (engine
  /// from the factory, emission handler, telemetry labels). New fragments
  /// may land on it immediately; the caller owns routing the node's
  /// messages to HandleMessage.
  common::ProcessorId AddProcessor(common::SimNodeId node);

  /// Elastic capacity: drains and retires the last processor. Its
  /// fragments migrate to the least-loaded remaining processors via the
  /// MoveFragment machinery and its stream delegations are reassigned;
  /// the freed sim node is returned so the caller can retire it. The
  /// Processor object itself is kept (unrouted) until the entity dies —
  /// in-flight completion callbacks hold a pointer to it. Fails if only
  /// the gateway remains.
  common::Result<common::SimNodeId> RemoveLastProcessor();

 private:
  /// Where one tuple goes: (fragment, op, port) on processor `proc`.
  /// `instance` is the fragment itself, which a local submit feeds
  /// without a lookup; it stays valid while the query is installed, since
  /// MoveFragment moves only the owning pointer between engines.
  struct RouteTarget {
    common::FragmentId fragment = -1;
    common::OperatorId op = -1;
    int port = 0;
    common::ProcessorId proc = common::kInvalidProcessor;
    engine::FragmentInstance* instance = nullptr;
  };
  struct QueryState {
    engine::Query query;
    double p_k = 1e-9;
    std::vector<placement::FragmentSpec> fragments;
    placement::Placement placement;
    /// The routing record slot of each fragment (parallel to fragments).
    std::vector<uint32_t> fragment_slots;
    /// (stream, binding slot in that stream's route table), one per bound
    /// stream.
    std::vector<std::pair<common::StreamId, uint32_t>> bindings;
  };
  /// One installed fragment's routing record, at the slot its instance
  /// carries as its tag. Slots of removed fragments are recycled, so an
  /// emission checks `fragment` against its own fragment id.
  struct FragmentRecord {
    common::FragmentId fragment = -1;  // -1 = free slot
    QueryState* query = nullptr;
    /// By producing plan operator id: the targets of its edges that leave
    /// the fragment (sized to the last operator that has any).
    std::vector<std::vector<RouteTarget>> remote;
  };
  /// One query bound to a stream: its entry targets, in binding order.
  struct Binding {
    common::QueryId query = common::kInvalidQuery;  // invalid = free slot
    std::vector<RouteTarget> targets;
  };
  /// A stream's route table, read by its delegate for every tuple.
  struct StreamRoutes {
    common::ProcessorId delegate = common::kInvalidProcessor;
    /// Interest index over the bindings with boxes (subscriber = binding
    /// slot); null until the first one (and always without a catalog).
    std::unique_ptr<interest::BoxIndex> index;
    /// Binding slots; free ones are recycled.
    std::vector<Binding> bindings;
    std::vector<uint32_t> free_bindings;
    /// Slots of the bindings without index coverage, ascending query id:
    /// they get every tuple. Without an index that is every binding.
    std::vector<uint32_t> always;
  };

  void OnEmission(Processor* from, const Processor::Emission& em);
  /// Hands a tuple to each target: submitted on `at` when the target lives
  /// there, sent over the LAN from `at` otherwise.
  void Deliver(Processor* at, const std::vector<RouteTarget>& targets,
               const std::shared_ptr<const engine::Tuple>& tuple);
  void SendFragmentTuple(common::SimNodeId from_node, const RouteTarget& to,
                         std::shared_ptr<const engine::Tuple> tuple);
  int ProcIndexOf(common::ProcessorId id) const;
  /// The live processor on `node`, or null.
  Processor* ProcessorAt(common::SimNodeId node) const;
  /// `stream`'s route table, created empty on first use.
  StreamRoutes& RoutesOf(common::StreamId stream);
  /// The routing record slot of `fragment`, or -1 (a scan: control plane
  /// only).
  int SlotOf(common::FragmentId fragment) const;
  /// Points every route of `state` that targets `fragment` at `to`.
  void Retarget(QueryState& state, common::FragmentId fragment,
                common::ProcessorId to);

  common::EntityId id_;
  sim::Network* network_;
  Config config_;
  EngineFactory engine_factory_;
  placement::PlacementPolicy* policy_;
  std::vector<std::unique_ptr<Processor>> processors_;
  /// Processors removed by RemoveLastProcessor: kept alive (their pending
  /// simulator callbacks capture the raw pointer) but never routed to.
  std::vector<std::unique_ptr<Processor>> retired_;
  int next_delegate_ = 0;
  std::map<common::QueryId, QueryState> queries_;
  /// Route tables by stream id.
  std::vector<StreamRoutes> streams_;
  /// Routing records by slot (FragmentInstance::tag); free ones recycled.
  std::vector<FragmentRecord> records_;
  std::vector<uint32_t> free_records_;
  mutable std::vector<int64_t> match_scratch_;
  common::FragmentId next_fragment_id_ = 1;
  ResultHandler result_handler_;
  telemetry::Sketch pr_;
  int64_t results_ = 0;
  double start_time_ = 0.0;
  telemetry::Counter* migrations_counter_ = nullptr;
};

}  // namespace dsps::entity

#endif  // DSPS_ENTITY_ENTITY_H_
