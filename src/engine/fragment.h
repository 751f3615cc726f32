#ifndef DSPS_ENGINE_FRAGMENT_H_
#define DSPS_ENGINE_FRAGMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "engine/plan.h"

namespace dsps::engine {

class ExecutionEngine;

/// A runnable instance of one query fragment: a connected subset of a
/// plan's operators, cloned with fresh state, plus the routing metadata
/// needed at the fragment boundary (which of an exit operator's edges stay
/// internal, which leave the fragment, and which produce query results).
///
/// Fragments are the unit of intra-entity operator placement (Section 4.1):
/// the placement policy decides which processor hosts each fragment, and
/// the entity runtime moves tuples across fragment boundaries.
class FragmentInstance {
 public:
  /// One tuple leaving the fragment.
  struct Output {
    /// The operator that produced the tuple.
    common::OperatorId from_op = -1;
    /// True if from_op is a plan sink (the tuple is a query result);
    /// otherwise the tuple must be routed along the plan's remote edges
    /// from from_op.
    bool is_result = false;
    Tuple tuple;
  };

  /// Builds a fragment executing `ops` of `plan`. Fails if `ops` is empty
  /// or contains an id out of range. Operators are cloned (fresh state);
  /// plan edges with both endpoints in `ops` become internal.
  static common::Result<std::unique_ptr<FragmentInstance>> Create(
      const QueryPlan& plan, common::QueryId query, common::FragmentId id,
      const std::vector<common::OperatorId>& ops);

  common::FragmentId id() const { return id_; }
  common::QueryId query() const { return query_; }

  /// An opaque tag the runtime hosting this fragment sets (the entity keeps
  /// its routing record at this index); engines copy it into every
  /// TaggedOutput, so outputs find their record without a lookup. 0 until
  /// set.
  uint32_t tag() const { return tag_; }
  void set_tag(uint32_t tag) { tag_ = tag; }

  /// The engine this fragment is deployed on, or null between a Remove
  /// and the next Install. Engines check it, so a handle fed to an engine
  /// that does not host the fragment fails loudly instead of running it
  /// there.
  const ExecutionEngine* host() const { return host_; }

  /// Operator ids (plan-scoped) hosted by this fragment, ascending.
  std::vector<common::OperatorId> op_ids() const;

  /// False for any id this fragment does not host, negative and
  /// past-the-end ids included.
  bool Contains(common::OperatorId op) const {
    return op >= 0 && static_cast<size_t>(op) < slots_.size() &&
           slots_[op].op != nullptr;
  }

  /// The plan edges leaving `from_op` whose target operator is NOT in this
  /// fragment; the entity runtime ships non-result outputs along these.
  /// Empty for an operator this fragment does not host.
  const std::vector<PlanEdge>& RemoteEdges(common::OperatorId from_op) const;

  /// Feeds one tuple to (op, port). Runs the operator cascade through all
  /// internal edges; appends boundary outputs to `out`. Accumulates CPU
  /// cost (see DrainCpuCost). NotFound if `op` is not hosted here.
  common::Status Inject(common::OperatorId op, int port, const Tuple& tuple,
                        std::vector<Output>* out);

  /// CPU-seconds consumed by Process calls since the last drain, per the
  /// operators' cost models. The simulated processor charges this time.
  double DrainCpuCost();

  /// Total operator state (window contents) — migration cost proxy.
  int64_t StateBytes() const;

  /// Access to a hosted operator (for statistics inspection).
  const Operator& op(common::OperatorId id) const;

 private:
  /// Everything the cascade reads about one plan operator. `op` is null
  /// for operators another fragment hosts.
  struct OpSlot {
    std::unique_ptr<Operator> op;
    /// A plan sink: its outputs are query results.
    bool sink = false;
    /// Edges from this operator to operators inside the fragment.
    std::vector<PlanEdge> internal;
    /// Edges from this operator leaving the fragment.
    std::vector<PlanEdge> remote;
  };

  FragmentInstance(common::QueryId query, common::FragmentId id);

  friend class ExecutionEngine;  // sets host_ on Install and Remove

  common::QueryId query_;
  common::FragmentId id_;
  uint32_t tag_ = 0;
  const ExecutionEngine* host_ = nullptr;
  /// One slot per plan operator id, up to the largest hosted one.
  std::vector<OpSlot> slots_;
  double pending_cpu_cost_ = 0.0;
  std::vector<PlanEdge> empty_edges_;
};

}  // namespace dsps::engine

#endif  // DSPS_ENGINE_FRAGMENT_H_
