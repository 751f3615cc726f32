#ifndef DSPS_ORDERING_DISTRIBUTED_CHAIN_H_
#define DSPS_ORDERING_DISTRIBUTED_CHAIN_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "engine/tuple.h"
#include "ordering/adaptation_module.h"
#include "sim/network.h"

namespace dsps::ordering {

/// Message type for chain-routed tuples on the simulated network.
inline constexpr int kMsgChainTuple = 301;

/// Section 4.2's architecture, running live on the discrete-event
/// network: the commutable operators of one query (a conjunction of
/// filters) are spread over processors; an Adaptation Module instance at
/// every hop intercepts the output stream and picks the next (processor,
/// operator) per tuple from the candidate downstream set, using its
/// continuously collected statistics (selectivities, processor backlog).
///
/// Each site charges simulated CPU per evaluated tuple, so backlog —
/// and hence the AM's load-balancing term — is real queueing, not a
/// synthetic counter.
class DistributedChain {
 public:
  /// One commutable filter hosted somewhere in the cluster.
  struct FilterSite {
    common::OperatorId op = -1;
    common::ProcessorId proc = common::kInvalidProcessor;
    common::SimNodeId node = common::kInvalidSimNode;
    /// CPU seconds per evaluated tuple.
    double cost = 1e-6;
    /// The actual predicate (may change behavior over time — drift).
    std::function<bool(const engine::Tuple&)> predicate;
  };

  struct Config {
    /// false = fix the visit order once from the AM's initial estimates
    /// (static baseline); true = per-tuple adaptive routing.
    bool adaptive = true;
  };

  /// `network` must outlive the chain. Sites may share nodes.
  DistributedChain(sim::Network* network, common::QueryId query,
                   std::vector<FilterSite> sites, const Config& config);
  DistributedChain(const DistributedChain&) = delete;
  DistributedChain& operator=(const DistributedChain&) = delete;

  /// Installs this chain's handlers on its sites' nodes (standalone use).
  void InstallHandlers();

  /// Dispatches a chain message addressed to one of this chain's nodes.
  bool HandleMessage(const sim::Message& msg);

  /// Injects a tuple: the AM (or the static order) picks the first hop.
  common::Status Submit(const engine::Tuple& tuple);

  /// Called for every tuple that passed all filters, with its end-to-end
  /// latency (seconds).
  using SurvivorHandler =
      std::function<void(const engine::Tuple&, double latency)>;
  void SetSurvivorHandler(SurvivorHandler handler);

  int64_t evaluations() const { return evaluations_; }
  int64_t survivors() const { return survivors_; }
  double total_cpu_seconds() const { return total_cpu_; }
  /// Busiest site's CPU seconds.
  double max_site_cpu_seconds() const;

  const AdaptationModule& am() const { return am_; }

 private:
  struct Envelope {
    std::shared_ptr<const engine::Tuple> tuple;
    std::vector<common::OperatorId> done;
    /// The operator the sender's AM chose for this hop.
    common::OperatorId next_op = -1;
    double injected_at = 0.0;
  };
  struct SiteState {
    FilterSite site;
    double busy_until = 0.0;
    double cpu_seconds = 0.0;
  };

  /// Picks the next hop for a tuple with `done` visited; nullptr if all
  /// operators were visited.
  const SiteState* NextSite(const std::vector<common::OperatorId>& done);
  void SendTo(const SiteState& to, Envelope env, common::SimNodeId from);
  void Evaluate(SiteState* state, Envelope env);

  sim::Network* network_;
  common::QueryId query_;
  Config config_;
  AdaptationModule am_;
  std::vector<SiteState> sites_;
  std::map<common::SimNodeId, std::vector<size_t>> sites_by_node_;
  std::vector<common::OperatorId> static_order_;
  SurvivorHandler survivor_;
  int64_t evaluations_ = 0;
  int64_t survivors_ = 0;
  double total_cpu_ = 0.0;
};

}  // namespace dsps::ordering

#endif  // DSPS_ORDERING_DISTRIBUTED_CHAIN_H_
