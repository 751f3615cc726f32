#ifndef DSPS_DISSEMINATION_DISSEMINATOR_H_
#define DSPS_DISSEMINATION_DISSEMINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "dissemination/tree.h"
#include "engine/tuple.h"
#include "sim/network.h"
#include "sim/reliable_channel.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace dsps::dissemination {

/// Message type used on the simulated network for tuple forwarding.
inline constexpr int kMsgTupleForward = 101;
/// Hop-level acknowledgment (a sim::AckEnvelope) of a reliable
/// kMsgTupleForward.
inline constexpr int kMsgTupleAck = 102;

/// Payload of a kMsgTupleForward message.
struct TupleEnvelope {
  std::shared_ptr<const engine::Tuple> tuple;
  /// The tuple's projection (engine::ProjectPoint), computed once at the
  /// source and shared by every hop and the entities it reaches.
  std::shared_ptr<const std::vector<double>> point;
  /// Reliable-mode sequence number (0 = fire-and-forget). Unique per
  /// Disseminator; the receiver acks it and suppresses re-deliveries.
  int64_t seq = 0;
};

/// Runs the dissemination trees of all streams over the simulated network:
/// sources publish tuples, each entity's wrapper/gateway node forwards them
/// down its per-stream tree (optionally early-filtered by subtree
/// interest), and locally-matching tuples are handed to the entity.
class Disseminator {
 public:
  struct Config {
    DisseminationTree::Config tree;
    /// Apply subtree-interest early filtering (Section 3.1); false =
    /// forward-everything-to-children baseline.
    bool early_filter = true;
    /// Reliable forwarding for lossy networks (fault-injection runs):
    /// every tuple-forward hop goes over a sim::ReliableChannel, so each
    /// hop is exactly-once under loss and duplication, and a hop out of
    /// retries is counted in dissemination.delivery_failed — never
    /// silent. Off by default — when false no acks, sequence numbers, or
    /// timers exist and the wire traffic is bit-identical to the
    /// fire-and-forget build.
    bool reliable = false;
    /// First retransmission fires this long after an unacked send.
    double retry_timeout_s = sim::ReliableChannel::kDefaultTimeoutS;
    /// Optional telemetry (null = disabled, zero overhead). With metrics,
    /// each tree node exports dissemination.forwarded / .filtered /
    /// .delivered counters labeled {stream, node}. With a trace log,
    /// sampled publications start traces (source_emit anchor spans) that
    /// then follow the tuple through the whole system.
    telemetry::MetricsRegistry* metrics = nullptr;
    telemetry::TraceLog* trace = nullptr;
  };

  /// `network` must outlive this object.
  Disseminator(sim::Network* network, const Config& config);

  /// Registers a stream source at `source_node`. Must precede AddEntity
  /// calls for trees of this stream.
  common::Status AddSource(common::StreamId stream,
                           common::SimNodeId source_node);

  /// Registers an entity's gateway node and attaches it to every stream's
  /// tree. Installs a network handler on the gateway.
  common::Status AddEntity(common::EntityId id, common::SimNodeId gateway);

  /// Detaches an entity from every tree (children re-attach) and stops
  /// delivering to it. Used for failures and departures.
  common::Status RemoveEntity(common::EntityId id);

  /// Sets the entity's local interest in `stream` (union of its queries'
  /// boxes on that stream).
  common::Status SetEntityInterest(common::EntityId id,
                                   common::StreamId stream,
                                   const std::vector<interest::Box>& boxes);

  /// Called whenever a tuple matching the entity's local interest arrives
  /// at its gateway, with the envelope it arrived in: the shared tuple and
  /// its projection can be handed on without a copy.
  using DeliveryHandler =
      std::function<void(common::EntityId, const TupleEnvelope&)>;
  void SetDeliveryHandler(DeliveryHandler handler);

  /// Publishes a tuple at its stream's source: sends it to the (filtered)
  /// first-level children. Delivery and further forwarding happen inside
  /// the simulation as messages arrive.
  common::Status Publish(const engine::Tuple& tuple);

  /// Handles a network message addressed to a registered gateway. Exposed
  /// so an outer runtime that owns the node handlers can dispatch by
  /// message type. Returns true if the message was consumed; false for
  /// other message types and for nodes that are no registered gateway.
  bool HandleMessage(const sim::Message& msg);

  const DisseminationTree* tree(common::StreamId stream) const;
  DisseminationTree* mutable_tree(common::StreamId stream);

  /// Tuples delivered to entities (local-interest matches).
  int64_t delivered_count() const { return delivered_; }
  /// Tuple-forward messages sent (source + entity hops).
  int64_t forward_count() const { return forwards_; }

  /// Reliable-mode statistics (all zero when Config::reliable is false).
  int64_t retries_count() const { return hops_.retries(); }
  int64_t delivery_failures_count() const { return hops_.failed(); }
  int64_t duplicates_suppressed_count() const { return hops_.duplicates(); }
  /// Pending sends abandoned because their *sender* gateway was removed
  /// (RemoveEntity): a dead process cannot retransmit, so its ack/retry
  /// timers are cancelled instead of running out of retries.
  int64_t retries_cancelled_count() const { return hops_.cancelled(); }
  /// Sends awaiting an ack right now.
  size_t pending_reliable_count() const { return hops_.pending(); }

  /// Aggregated statistics of the spline-backed match tables across
  /// every stream tree (boxes, memory, spline health); feeds bench JSON
  /// and dsps_doctor.
  interest::IndexStats RouteIndexStats() const;

 private:
  /// Sends `env` to the targets of `at`, `from`'s resolved position in
  /// `tree` (kInvalidEntity = the source).
  void Forward(const DisseminationTree& tree,
               DisseminationTree::Position at, common::EntityId from,
               common::SimNodeId from_node, const TupleEnvelope& env);
  /// The tree of `stream`, or null.
  DisseminationTree* TreeOf(common::StreamId stream) const;
  /// The gateway of entity `id`, or kInvalidSimNode if not registered.
  common::SimNodeId GatewayOf(common::EntityId id) const;

  /// Cached per-(stream, tree-node) counters; node = kInvalidEntity is
  /// the source. Interned lazily on first traffic through the node.
  struct NodeCounters {
    telemetry::Counter* forwarded = nullptr;
    telemetry::Counter* filtered = nullptr;
    telemetry::Counter* delivered = nullptr;
  };
  NodeCounters& CountersFor(common::StreamId stream, common::EntityId node);

  sim::Network* network_;
  Config config_;
  std::map<std::pair<common::StreamId, common::EntityId>, NodeCounters>
      node_counters_;
  /// A stream's tree and source node; the tree is null for ids without a
  /// source.
  struct StreamTree {
    std::unique_ptr<DisseminationTree> tree;
    common::SimNodeId source = common::kInvalidSimNode;
  };
  /// By stream id.
  std::vector<StreamTree> streams_;
  /// Gateway node by entity id (kInvalidSimNode = not registered).
  std::vector<common::SimNodeId> gateways_;
  /// Entity by gateway node id (kInvalidEntity = no gateway).
  std::vector<common::EntityId> by_node_;
  DeliveryHandler delivery_;
  int64_t delivered_ = 0;
  int64_t forwards_ = 0;
  /// Wall-clock cost of each ForwardTargets routing lookup (interned once
  /// when metrics are configured; null = no timing overhead).
  telemetry::HistogramMetric* route_lookup_us_ = nullptr;
  /// Per-hop scratch for Forward's target list. Safe to reuse: message
  /// delivery is always scheduled, never synchronous, so Forward cannot
  /// re-enter while the list is being walked.
  std::vector<common::EntityId> targets_scratch_;
  /// Reliable-mode tuple hops (unused when Config::reliable is false).
  sim::ReliableChannel hops_;
};

}  // namespace dsps::dissemination

#endif  // DSPS_DISSEMINATION_DISSEMINATOR_H_
