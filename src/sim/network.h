#ifndef DSPS_SIM_NETWORK_H_
#define DSPS_SIM_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "sim/fault_injector.h"
#include "sim/payload.h"
#include "sim/simulator.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace dsps::sim {

/// 2D position used for "geographic" distances between nodes. The paper's
/// inter-entity WAN latencies are modeled as proportional to Euclidean
/// distance in this plane.
struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// Euclidean distance.
double Distance(const Point& a, const Point& b);

/// A message in flight between two simulated nodes.
struct Message {
  common::SimNodeId from = common::kInvalidSimNode;
  common::SimNodeId to = common::kInvalidSimNode;
  /// Application-defined message kind (each subsystem defines its own enum).
  int type = 0;
  /// Size on the wire in bytes; drives bandwidth/serialization delay.
  int64_t size_bytes = 0;
  /// Telemetry trace of the tuple this message carries; 0 = untraced.
  /// The network records an in-flight span per traced message.
  int64_t trace_id = 0;
  /// Application payload; envelopes up to Payload::kInlineBytes ride
  /// inline, so sending one allocates nothing.
  Payload payload;
};

/// Link parameters. Delivery time of a message of size S on link (a,b):
///   start = max(now, link.busy_until); tx = S / bandwidth;
///   deliver at start + tx + latency; busy_until = start + tx.
struct LinkParams {
  double latency_s = 0.001;
  double bandwidth_bps = 1e9;  // bytes per second
};

/// Cumulative per-link transfer statistics.
struct LinkStats {
  int64_t messages = 0;
  int64_t bytes = 0;
};

/// Point-to-point message-passing network on top of the Simulator.
///
/// Nodes are registered with a position and a receive handler. Links are
/// created explicitly, or lazily from a default model (a function of the two
/// endpoints' positions) the first time a pair communicates. Every link
/// tracks bytes and serialization (one transfer at a time per direction).
class Network {
 public:
  using Handler = std::function<void(const Message&)>;
  using LinkModel =
      std::function<LinkParams(const Point& from, const Point& to)>;

  /// Creates a network driven by `simulator` (not owned; must outlive).
  explicit Network(Simulator* simulator);

  /// Registers a node at `position`; returns its id.
  common::SimNodeId AddNode(const Point& position);

  /// Installs (replaces) the receive handler for `node`.
  void SetHandler(common::SimNodeId node, Handler handler);

  /// Sets the model used to derive parameters for lazily-created links.
  void SetDefaultLinkModel(LinkModel model);

  /// Creates or replaces a directed link with explicit parameters.
  void SetLink(common::SimNodeId from, common::SimNodeId to,
               const LinkParams& params);

  /// Sends `msg` (msg.from/msg.to must be valid node ids). Local sends
  /// (from == to) are delivered after a fixed small epsilon with no
  /// bandwidth cost. Returns InvalidArgument for unknown nodes.
  ///
  /// With a fault injector attached, the message may be silently dropped
  /// (crashed endpoint, partitioned pair, or Bernoulli loss — counted in
  /// dropped_messages() and in the injector), duplicated, or delayed.
  /// Like a real datagram network, Send still returns OK: senders that
  /// need delivery use an ack/retry protocol on top.
  common::Status Send(Message msg);

  /// Attaches a fault injector (nullptr detaches — the default). With no
  /// injector the network takes no RNG draws and is bit-identical to a
  /// fault-free build. Must outlive the network.
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }
  FaultInjector* fault_injector() { return faults_; }

  /// Messages that were sent but never reached a handler, by cause:
  /// injected faults (send- or delivery-time) and deliveries to nodes with
  /// no handler installed. Mirrored as net.dropped_messages{reason=...}
  /// counters when metrics are attached.
  int64_t dropped_messages() const {
    return dropped_faults_ + dropped_no_handler_;
  }
  int64_t dropped_no_handler() const { return dropped_no_handler_; }

  /// When set, delivering a message to a node with no handler is a fatal
  /// error instead of a counted drop — the debug check that makes silent
  /// query loss impossible to miss in tests. Defaults to on in debug
  /// (!NDEBUG) builds, off in release builds.
  void set_fail_on_unhandled(bool fail) { fail_on_unhandled_ = fail; }

  /// The node's registered position.
  const Point& position(common::SimNodeId node) const;

  size_t node_count() const { return nodes_.size(); }

  /// The unloaded round trip of a `bytes` message from `from` to `to` and a
  /// `reply_bytes` answer back: each direction's latency and serialization
  /// delay, plus the attached fault injector's jitter bound once per
  /// direction. Links that never carried traffic are read from the default
  /// model. Queueing behind earlier sends is left out. Creates no link
  /// state and takes no RNG draw. Local pairs (from == to) cost the local
  /// delivery delay each way.
  double RoundTripS(common::SimNodeId from, common::SimNodeId to,
                    int64_t bytes, int64_t reply_bytes) const;

  /// Cumulative stats for the directed link (from, to); zeros if the pair
  /// never communicated.
  LinkStats link_stats(common::SimNodeId from, common::SimNodeId to) const;

  /// Total bytes ever sent on non-local links.
  int64_t total_bytes() const { return total_bytes_; }

  /// Total messages ever sent on non-local links.
  int64_t total_messages() const { return total_messages_; }

  /// Total bytes sent from `node` on non-local links.
  int64_t egress_bytes(common::SimNodeId node) const;

  /// Attaches a metrics registry (nullptr detaches — the default; all
  /// instrumentation is skipped). Registers aggregate counters
  /// (net.messages, net.bytes, net.local_messages) and the link queueing
  /// histogram net.link_queue_wait_s. Per-link totals are AllLinkStats().
  void SetMetrics(telemetry::MetricsRegistry* metrics);

  /// Attaches a trace log (nullptr detaches). Every message with a
  /// nonzero trace_id records one span from send to delivery, staged via
  /// TraceLog::StageForMessageType.
  void SetTraceLog(telemetry::TraceLog* trace) { trace_ = trace; }

  /// Attaches a flight recorder (nullptr detaches): every dropped
  /// message — injected fault or delivery to a handler-less node — lands
  /// in the post-mortem ring as a "net.drop.*" event.
  void SetFlightRecorder(telemetry::FlightRecorder* flight) {
    flight_ = flight;
  }

  /// Every directed link that ever carried traffic, with its stats,
  /// ascending by (from, to).
  struct LinkRecord {
    common::SimNodeId from;
    common::SimNodeId to;
    LinkStats stats;
  };
  std::vector<LinkRecord> AllLinkStats() const;

  Simulator* simulator() { return sim_; }

 private:
  struct NodeState {
    Point position;
    Handler handler;
    int64_t egress_bytes = 0;
  };
  struct LinkState {
    LinkParams params;
    LinkStats stats;
    double busy_until = 0.0;
  };

  /// A directed link's key: (from, to) packed into 64 bits.
  static uint64_t LinkKey(common::SimNodeId from, common::SimNodeId to) {
    return static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32 |
           static_cast<uint32_t>(to);
  }
  /// One bucket of the link index: a LinkKey and the link's position in
  /// links_. No real key equals kNoLink (node ids are non-negative).
  struct LinkSlot {
    uint64_t key;
    uint32_t link;
  };
  static constexpr uint64_t kNoLink = ~uint64_t{0};
  /// The bucket holding `key`, or the empty bucket where it would go.
  /// The index must be non-empty.
  size_t ProbeLink(uint64_t key) const;
  /// The link (from, to), or nullptr if the pair never communicated.
  const LinkState* FindLink(common::SimNodeId from,
                            common::SimNodeId to) const;
  /// The link (from, to); a new one is default-constructed and flagged
  /// through `created`.
  LinkState& FindOrAddLink(common::SimNodeId from, common::SimNodeId to,
                           bool* created);
  LinkState& GetOrCreateLink(common::SimNodeId from, common::SimNodeId to);
  /// Latency plus serialization delay of `bytes` on (from, to), unloaded.
  double OneWayS(common::SimNodeId from, common::SimNodeId to,
                 int64_t bytes) const;
  void ScheduleDelivery(double deliver_at, Message msg);
  void DeliverSlot(uint32_t slot);
  void ReleaseSlot(uint32_t slot);
  void CountFaultDrop();

  Simulator* sim_;
  std::vector<NodeState> nodes_;
  /// Every link, in creation order. A deque never relocates its elements,
  /// so a LinkState& stays valid while later sends create other links.
  std::deque<LinkState> links_;
  /// Open-addressing index LinkKey -> links_ position, probed linearly on
  /// each non-local Send; power-of-two capacity, at most half full.
  std::vector<LinkSlot> link_index_;
  /// In-flight message arena. Each scheduled delivery parks its Message in
  /// a slot here instead of capturing it by value in the delivery lambda:
  /// the `[this, slot]` capture fits std::function's small-buffer storage,
  /// so a Send costs zero heap allocations on the hot path. A deque keeps
  /// slots pointer-stable across growth; drained slots are recycled LIFO.
  std::deque<Message> arena_;
  std::vector<uint32_t> free_slots_;
  LinkModel default_model_;
  FaultInjector* faults_ = nullptr;
  int64_t total_bytes_ = 0;
  int64_t total_messages_ = 0;
  int64_t dropped_faults_ = 0;
  int64_t dropped_no_handler_ = 0;
#ifdef NDEBUG
  bool fail_on_unhandled_ = false;
#else
  bool fail_on_unhandled_ = true;
#endif
  /// Telemetry (all optional; null = zero-cost disabled state).
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::TraceLog* trace_ = nullptr;
  telemetry::Counter* messages_counter_ = nullptr;
  telemetry::Counter* bytes_counter_ = nullptr;
  telemetry::Counter* local_messages_counter_ = nullptr;
  telemetry::HistogramMetric* queue_wait_hist_ = nullptr;
  telemetry::Counter* dropped_fault_counter_ = nullptr;
  telemetry::Counter* dropped_no_handler_counter_ = nullptr;
  telemetry::FlightRecorder* flight_ = nullptr;
};

}  // namespace dsps::sim

#endif  // DSPS_SIM_NETWORK_H_
