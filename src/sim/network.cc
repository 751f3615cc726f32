#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "telemetry/flight_recorder.h"

namespace dsps::sim {

namespace {
/// Delivery delay for node-local sends (scheduler hop, no wire).
constexpr double kLocalDeliveryDelay = 1e-6;
}  // namespace

double Distance(const Point& a, const Point& b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Network::Network(Simulator* simulator) : sim_(simulator) {
  DSPS_CHECK(simulator != nullptr);
  default_model_ = [](const Point& from, const Point& to) {
    LinkParams p;
    // 1 ms base + 50 us per distance unit; 100 MB/s default WAN pipe.
    p.latency_s = 0.001 + 5e-5 * Distance(from, to);
    p.bandwidth_bps = 1e8;
    return p;
  };
}

common::SimNodeId Network::AddNode(const Point& position) {
  nodes_.push_back(NodeState{position, nullptr, 0});
  return static_cast<common::SimNodeId>(nodes_.size() - 1);
}

void Network::SetHandler(common::SimNodeId node, Handler handler) {
  DSPS_CHECK(node >= 0 && static_cast<size_t>(node) < nodes_.size());
  nodes_[node].handler = std::move(handler);
}

void Network::SetDefaultLinkModel(LinkModel model) {
  DSPS_CHECK(model != nullptr);
  default_model_ = std::move(model);
}

void Network::SetLink(common::SimNodeId from, common::SimNodeId to,
                      const LinkParams& params) {
  bool created;
  FindOrAddLink(from, to, &created).params = params;
}

size_t Network::ProbeLink(uint64_t key) const {
  // Fibonacci hashing folded to the low bits, then linear probing.
  uint64_t h = key * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  const size_t mask = link_index_.size() - 1;
  size_t i = static_cast<size_t>(h) & mask;
  while (link_index_[i].key != key && link_index_[i].key != kNoLink) {
    i = (i + 1) & mask;
  }
  return i;
}

const Network::LinkState* Network::FindLink(common::SimNodeId from,
                                            common::SimNodeId to) const {
  if (link_index_.empty()) return nullptr;
  const LinkSlot& bucket = link_index_[ProbeLink(LinkKey(from, to))];
  return bucket.key == kNoLink ? nullptr : &links_[bucket.link];
}

Network::LinkState& Network::FindOrAddLink(common::SimNodeId from,
                                           common::SimNodeId to,
                                           bool* created) {
  const uint64_t key = LinkKey(from, to);
  *created = false;
  if (!link_index_.empty()) {
    const LinkSlot& bucket = link_index_[ProbeLink(key)];
    if (bucket.key == key) return links_[bucket.link];
  }
  if (2 * (links_.size() + 1) > link_index_.size()) {
    // Keep the index at most half full: double it and re-insert.
    std::vector<LinkSlot> old = std::move(link_index_);
    link_index_.assign(old.empty() ? 64 : 2 * old.size(),
                       LinkSlot{kNoLink, 0});
    for (const LinkSlot& bucket : old) {
      if (bucket.key != kNoLink) link_index_[ProbeLink(bucket.key)] = bucket;
    }
  }
  link_index_[ProbeLink(key)] =
      LinkSlot{key, static_cast<uint32_t>(links_.size())};
  *created = true;
  return links_.emplace_back();
}

Network::LinkState& Network::GetOrCreateLink(common::SimNodeId from,
                                             common::SimNodeId to) {
  bool created;
  LinkState& link = FindOrAddLink(from, to, &created);
  if (created) {
    link.params = default_model_(nodes_[from].position, nodes_[to].position);
  }
  return link;
}

double Network::OneWayS(common::SimNodeId from, common::SimNodeId to,
                        int64_t bytes) const {
  const LinkState* link = FindLink(from, to);
  const LinkParams params = link != nullptr
                                ? link->params
                                : default_model_(position(from), position(to));
  return params.latency_s +
         static_cast<double>(bytes) / params.bandwidth_bps;
}

double Network::RoundTripS(common::SimNodeId from, common::SimNodeId to,
                           int64_t bytes, int64_t reply_bytes) const {
  if (from == to) return 2 * kLocalDeliveryDelay;
  const double jitter =
      faults_ != nullptr ? faults_->latency_jitter_bound_s() : 0.0;
  return OneWayS(from, to, bytes) + OneWayS(to, from, reply_bytes) +
         2 * jitter;
}

void Network::CountFaultDrop() {
  dropped_faults_ += 1;
  // Interned on first drop (not at SetMetrics time) so fault-free runs
  // export exactly the same series as a build without fault injection.
  if (metrics_ != nullptr) {
    if (dropped_fault_counter_ == nullptr) {
      dropped_fault_counter_ = metrics_->counter(
          "net.dropped_messages", telemetry::MakeLabels({{"reason", "fault"}}));
    }
    dropped_fault_counter_->Increment();
  }
  if (flight_ != nullptr) {
    flight_->RecordInstant("net.drop.fault", sim_->now(), /*node=*/-1,
                           /*value=*/1.0,
                           telemetry::FlightRecorder::EventKind::kNetDrop);
  }
}

void Network::ScheduleDelivery(double deliver_at, Message msg) {
  // Park the message in an arena slot; the delivery lambda captures only
  // {this, slot} — small enough for std::function's inline storage, so
  // scheduling a delivery performs no heap allocation.
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    arena_[slot] = std::move(msg);
  } else {
    slot = static_cast<uint32_t>(arena_.size());
    arena_.push_back(std::move(msg));
  }
  sim_->ScheduleAt(deliver_at, [this, slot]() { DeliverSlot(slot); });
}

void Network::DeliverSlot(uint32_t slot) {
  // The reference stays valid while the handler sends more messages: the
  // arena is a deque, so growth never relocates existing slots.
  const Message& m = arena_[slot];
  common::SimNodeId to = m.to;
  // In-flight messages to a node that crashed before delivery are lost
  // (the injector's delivery-time crash check).
  if (faults_ != nullptr && !faults_->IsNodeUp(to)) {
    faults_->CountDrop(FaultInjector::DropReason::kNodeDown);
    CountFaultDrop();
    ReleaseSlot(slot);
    return;
  }
  const Handler& h = nodes_[to].handler;
  if (!h) {
    // A message addressed to a node nobody listens on is data loss;
    // count it so it can never be silent, and abort in debug mode.
    DSPS_CHECK_MSG(!fail_on_unhandled_,
                   "message type %d delivered to node %d with no handler",
                   m.type, to);
    dropped_no_handler_ += 1;
    if (metrics_ != nullptr) {
      if (dropped_no_handler_counter_ == nullptr) {
        dropped_no_handler_counter_ = metrics_->counter(
            "net.dropped_messages",
            telemetry::MakeLabels({{"reason", "no_handler"}}));
      }
      dropped_no_handler_counter_->Increment();
    }
    if (flight_ != nullptr) {
      flight_->RecordInstant("net.drop.no_handler", sim_->now(), to,
                             static_cast<double>(m.type),
                             telemetry::FlightRecorder::EventKind::kNetDrop);
    }
    ReleaseSlot(slot);
    return;
  }
  h(m);
  ReleaseSlot(slot);
}

void Network::ReleaseSlot(uint32_t slot) {
  // Drop the payload now (it may own arbitrary application state); the
  // slot shell is recycled for the next Send.
  arena_[slot] = Message{};
  free_slots_.push_back(slot);
}

common::Status Network::Send(Message msg) {
  if (msg.from < 0 || static_cast<size_t>(msg.from) >= nodes_.size() ||
      msg.to < 0 || static_cast<size_t>(msg.to) >= nodes_.size()) {
    return common::Status::InvalidArgument("unknown node in Send");
  }
  if (msg.size_bytes < 0) {
    return common::Status::InvalidArgument("negative message size");
  }
  FaultInjector::Verdict verdict;
  if (faults_ != nullptr) {
    verdict = faults_->Judge(msg.from, msg.to);
    if (verdict.drop != FaultInjector::DropReason::kNone) {
      CountFaultDrop();
      return common::Status::OK();
    }
  }
  double deliver_at;
  if (msg.from == msg.to) {
    deliver_at = sim_->now() + kLocalDeliveryDelay;
    if (local_messages_counter_ != nullptr) {
      local_messages_counter_->Increment();
    }
  } else {
    LinkState& link = GetOrCreateLink(msg.from, msg.to);
    double start = std::max(sim_->now(), link.busy_until);
    double tx = static_cast<double>(msg.size_bytes) / link.params.bandwidth_bps;
    link.busy_until = start + tx;
    deliver_at = start + tx + link.params.latency_s + verdict.extra_latency_s;
    link.stats.messages += 1;
    link.stats.bytes += msg.size_bytes;
    nodes_[msg.from].egress_bytes += msg.size_bytes;
    total_bytes_ += msg.size_bytes;
    total_messages_ += 1;
    if (metrics_ != nullptr) {
      messages_counter_->Increment();
      bytes_counter_->Increment(msg.size_bytes);
      queue_wait_hist_->Observe(start - sim_->now());
      if (per_link_metrics_) {
        if (link.bytes_counter == nullptr) {
          telemetry::Labels labels = telemetry::MakeLabels(
              {{"from", std::to_string(msg.from)},
               {"to", std::to_string(msg.to)}});
          link.bytes_counter = metrics_->counter("net.link.bytes", labels);
          link.messages_counter =
              metrics_->counter("net.link.messages", std::move(labels));
        }
        link.bytes_counter->Increment(msg.size_bytes);
        link.messages_counter->Increment();
      }
    }
  }
  if (trace_ != nullptr && msg.trace_id != 0) {
    trace_->RecordMessage(msg.trace_id, msg.type, sim_->now(), deliver_at,
                          msg.from, msg.to);
  }
  if (verdict.duplicate && msg.from != msg.to) {
    // The duplicate gets its own arena slot (a copy); the original moves.
    ScheduleDelivery(deliver_at + verdict.duplicate_extra_latency_s, msg);
  }
  ScheduleDelivery(deliver_at, std::move(msg));
  return common::Status::OK();
}

const Point& Network::position(common::SimNodeId node) const {
  DSPS_CHECK(node >= 0 && static_cast<size_t>(node) < nodes_.size());
  return nodes_[node].position;
}

LinkStats Network::link_stats(common::SimNodeId from,
                              common::SimNodeId to) const {
  const LinkState* link = FindLink(from, to);
  return link != nullptr ? link->stats : LinkStats{};
}

int64_t Network::egress_bytes(common::SimNodeId node) const {
  DSPS_CHECK(node >= 0 && static_cast<size_t>(node) < nodes_.size());
  return nodes_[node].egress_bytes;
}

std::vector<Network::LinkRecord> Network::AllLinkStats() const {
  std::vector<LinkRecord> out;
  out.reserve(links_.size());
  for (const LinkSlot& bucket : link_index_) {
    if (bucket.key == kNoLink) continue;
    const LinkState& link = links_[bucket.link];
    if (link.stats.messages == 0) continue;
    const auto from = static_cast<common::SimNodeId>(bucket.key >> 32);
    const auto to =
        static_cast<common::SimNodeId>(static_cast<uint32_t>(bucket.key));
    out.push_back(LinkRecord{from, to, link.stats});
  }
  std::sort(out.begin(), out.end(),
            [](const LinkRecord& a, const LinkRecord& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });
  return out;
}

void Network::SetMetrics(telemetry::MetricsRegistry* metrics, bool per_link) {
  metrics_ = metrics;
  per_link_metrics_ = per_link && metrics != nullptr;
  for (LinkState& link : links_) {
    link.bytes_counter = nullptr;
    link.messages_counter = nullptr;
  }
  if (metrics == nullptr) {
    messages_counter_ = nullptr;
    bytes_counter_ = nullptr;
    local_messages_counter_ = nullptr;
    queue_wait_hist_ = nullptr;
    dropped_fault_counter_ = nullptr;
    dropped_no_handler_counter_ = nullptr;
    return;
  }
  messages_counter_ = metrics->counter("net.messages");
  bytes_counter_ = metrics->counter("net.bytes");
  local_messages_counter_ = metrics->counter("net.local_messages");
  queue_wait_hist_ = metrics->histogram("net.link_queue_wait_s");
  // net.dropped_messages counters are interned lazily on first drop so
  // fault-free snapshots stay byte-identical to the pre-fault-layer ones.
  dropped_fault_counter_ = nullptr;
  dropped_no_handler_counter_ = nullptr;
}

void Network::ResetStats() {
  total_bytes_ = 0;
  total_messages_ = 0;
  for (auto& node : nodes_) node.egress_bytes = 0;
  for (LinkState& link : links_) link.stats = LinkStats{};
}

}  // namespace dsps::sim
