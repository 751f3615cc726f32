#include "dissemination/disseminator.h"

#include <chrono>
#include <utility>

#include "common/check.h"

namespace dsps::dissemination {

Disseminator::Disseminator(sim::Network* network, const Config& config)
    : network_(network), config_(config) {
  DSPS_CHECK(network != nullptr);
  if (config_.metrics != nullptr) {
    route_lookup_us_ = config_.metrics->histogram("dissem.route_lookup_us");
  }
  if (config_.reliable) {
    DSPS_CHECK(config_.retry_timeout_s > 0);
    DSPS_CHECK(config_.retry_backoff >= 1.0);
    DSPS_CHECK(config_.max_retries >= 0);
    if (config_.metrics != nullptr) {
      retries_counter_ = config_.metrics->counter("dissemination.retries");
      delivery_failed_counter_ =
          config_.metrics->counter("dissemination.delivery_failed");
      duplicates_counter_ =
          config_.metrics->counter("dissemination.duplicates_suppressed");
      retries_cancelled_counter_ =
          config_.metrics->counter("dissemination.retries_cancelled");
    }
  }
}

common::Status Disseminator::AddSource(common::StreamId stream,
                                       common::SimNodeId source_node) {
  if (trees_.count(stream) > 0) {
    return common::Status::AlreadyExists("stream already has a source");
  }
  trees_[stream] = std::make_unique<DisseminationTree>(
      stream, network_->position(source_node), config_.tree);
  source_nodes_[stream] = source_node;
  // The source must hear hop acks in reliable mode; the handler is inert
  // otherwise (nothing ever addresses a source in fire-and-forget mode).
  network_->SetHandler(source_node, [this](const sim::Message& msg) {
    HandleMessage(msg);
  });
  return common::Status::OK();
}

common::Status Disseminator::AddEntity(common::EntityId id,
                                       common::SimNodeId gateway) {
  if (gateways_.count(id) > 0) {
    return common::Status::AlreadyExists("entity already registered");
  }
  gateways_[id] = gateway;
  by_node_[gateway] = id;
  for (auto& [stream, tree] : trees_) {
    DSPS_RETURN_IF_ERROR(tree->AddEntity(id, network_->position(gateway)));
  }
  network_->SetHandler(gateway, [this](const sim::Message& msg) {
    HandleMessage(msg);
  });
  return common::Status::OK();
}

common::Status Disseminator::RemoveEntity(common::EntityId id) {
  auto it = gateways_.find(id);
  if (it == gateways_.end()) {
    return common::Status::NotFound("entity not registered");
  }
  for (auto& [stream, tree] : trees_) {
    if (tree->Contains(id)) {
      DSPS_RETURN_IF_ERROR(tree->RemoveEntity(id));
    }
  }
  // Abandon reliable sends addressed to the removed entity (it will never
  // ack — counted as delivery failures) and cancel sends *from* its
  // gateway (the sender process is gone; its retransmissions would only
  // burn simulated bandwidth on a peer known dead, running to max_retries
  // for nothing — counted as cancelled). Each settled send's retry timer
  // is cancelled too, reclaiming its event-heap slot immediately.
  if (config_.reliable) {
    common::SimNodeId gone = it->second;
    for (auto p = pending_.begin(); p != pending_.end();) {
      if (p->second.msg.to == gone) {
        delivery_failures_ += 1;
        if (delivery_failed_counter_ != nullptr) {
          delivery_failed_counter_->Increment();
        }
        network_->simulator()->Cancel(p->second.timer);
        p = pending_.erase(p);
      } else if (p->second.msg.from == gone) {
        retries_cancelled_ += 1;
        if (retries_cancelled_counter_ != nullptr) {
          retries_cancelled_counter_->Increment();
        }
        network_->simulator()->Cancel(p->second.timer);
        p = pending_.erase(p);
      } else {
        ++p;
      }
    }
  }
  by_node_.erase(it->second);
  gateways_.erase(it);
  return common::Status::OK();
}

common::Status Disseminator::SetEntityInterest(
    common::EntityId id, common::StreamId stream,
    const std::vector<interest::Box>& boxes) {
  auto it = trees_.find(stream);
  if (it == trees_.end()) return common::Status::NotFound("unknown stream");
  if (gateways_.count(id) == 0) {
    return common::Status::NotFound("unknown entity");
  }
  it->second->SetLocalInterest(id, boxes);
  return common::Status::OK();
}

interest::IndexStats Disseminator::RouteIndexStats() const {
  interest::IndexStats stats;
  for (const auto& [stream, tree] : trees_) {
    tree->CollectIndexStats(&stats);
  }
  return stats;
}

void Disseminator::SetDeliveryHandler(DeliveryHandler handler) {
  delivery_ = std::move(handler);
}

Disseminator::NodeCounters& Disseminator::CountersFor(common::StreamId stream,
                                                      common::EntityId node) {
  auto it = node_counters_.find({stream, node});
  if (it != node_counters_.end()) return it->second;
  telemetry::Labels labels = telemetry::MakeLabels(
      {{"stream", std::to_string(stream)},
       {"node", node == common::kInvalidEntity ? std::string("source")
                                               : std::to_string(node)}});
  NodeCounters counters;
  counters.forwarded =
      config_.metrics->counter("dissemination.forwarded", labels);
  counters.filtered = config_.metrics->counter("dissemination.filtered", labels);
  counters.delivered =
      config_.metrics->counter("dissemination.delivered", std::move(labels));
  return node_counters_.emplace(std::make_pair(stream, node), counters)
      .first->second;
}

void Disseminator::Forward(const DisseminationTree& tree,
                           common::EntityId from, common::SimNodeId from_node,
                           const TupleEnvelope& env) {
  std::vector<common::EntityId>& targets = targets_scratch_;
  if (route_lookup_us_ != nullptr) {
    auto start = std::chrono::steady_clock::now();
    tree.ForwardTargets(from, env.point->data(), config_.early_filter,
                        &targets);
    route_lookup_us_->Observe(std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
  } else {
    tree.ForwardTargets(from, env.point->data(), config_.early_filter,
                        &targets);
  }
  if (config_.metrics != nullptr) {
    NodeCounters& counters = CountersFor(env.tuple->stream, from);
    counters.forwarded->Increment(static_cast<int64_t>(targets.size()));
    counters.filtered->Increment(tree.ChildCount(from) -
                                 static_cast<int64_t>(targets.size()));
  }
  if (targets.empty()) return;
  // One hop is a batch: every outgoing message shares the same source,
  // size, and trace id, so hoist them and only the destination varies.
  const int64_t size_bytes = env.tuple->SizeBytes();
  const int64_t trace_id = env.tuple->trace_id;
  for (common::EntityId target : targets) {
    sim::Message msg;
    msg.from = from_node;
    msg.to = gateways_.at(target);
    msg.type = kMsgTupleForward;
    msg.size_bytes = size_bytes;
    msg.trace_id = trace_id;
    if (config_.reliable) {
      TupleEnvelope reliable_env = env;
      reliable_env.seq = next_seq_++;
      msg.payload = std::move(reliable_env);
      SendReliable(std::move(msg));
    } else {
      msg.payload = env;
      common::Status s = network_->Send(std::move(msg));
      DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    }
    ++forwards_;
  }
}

void Disseminator::SendReliable(sim::Message msg) {
  int64_t seq = std::any_cast<const TupleEnvelope&>(msg.payload).seq;
  PendingSend pending;
  pending.msg = msg;
  pending.retries_left = config_.max_retries;
  pending.timeout_s = config_.retry_timeout_s;
  pending_[seq] = std::move(pending);
  common::Status s = network_->Send(std::move(msg));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  ScheduleRetry(seq, config_.retry_timeout_s);
}

void Disseminator::ScheduleRetry(int64_t seq, double timeout_s) {
  sim::TimerId timer =
      network_->simulator()->ScheduleCancellable(timeout_s, [this, seq]() {
    auto it = pending_.find(seq);
    if (it == pending_.end()) return;  // settled in the meantime
    PendingSend& p = it->second;
    if (p.retries_left <= 0) {
      // Bounded retries exhausted: the hop failed for good. Counted so
      // the loss is observable; the tuple is gone for this subtree.
      delivery_failures_ += 1;
      if (delivery_failed_counter_ != nullptr) {
        delivery_failed_counter_->Increment();
      }
      pending_.erase(it);
      return;
    }
    p.retries_left -= 1;
    p.timeout_s *= config_.retry_backoff;
    retries_ += 1;
    if (retries_counter_ != nullptr) retries_counter_->Increment();
    common::Status s = network_->Send(p.msg);
    DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    ScheduleRetry(seq, p.timeout_s);
  });
  auto it = pending_.find(seq);
  if (it != pending_.end()) it->second.timer = timer;
}

void Disseminator::SendAck(common::SimNodeId from_node,
                           common::SimNodeId to_node, int64_t seq) {
  sim::Message ack;
  ack.from = from_node;
  ack.to = to_node;
  ack.type = kMsgTupleAck;
  ack.size_bytes = config_.ack_bytes;
  ack.payload = TupleAckEnvelope{seq};
  common::Status s = network_->Send(std::move(ack));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
}

common::Status Disseminator::Publish(const engine::Tuple& tuple) {
  auto it = trees_.find(tuple.stream);
  if (it == trees_.end()) return common::Status::NotFound("unknown stream");
  TupleEnvelope env;
  if (config_.trace != nullptr && config_.trace->enabled()) {
    engine::Tuple traced = tuple;
    traced.trace_id = config_.trace->MaybeStartTrace();
    if (traced.trace_id != 0) {
      // Anchor span: covers source-side dwell from the tuple's logical
      // timestamp to the moment it enters the dissemination layer.
      config_.trace->Record(traced.trace_id, telemetry::Stage::kSourceEmit,
                            tuple.timestamp,
                            network_->simulator()->now());
    }
    env.tuple = std::make_shared<const engine::Tuple>(std::move(traced));
  } else {
    env.tuple = std::make_shared<const engine::Tuple>(tuple);
  }
  auto point = std::make_shared<std::vector<double>>();
  point->reserve(tuple.values.size());
  for (const engine::Value& v : tuple.values) {
    point->push_back(engine::AsDouble(v));
  }
  env.point = std::move(point);
  Forward(*it->second, common::kInvalidEntity, source_nodes_.at(tuple.stream),
          env);
  return common::Status::OK();
}

bool Disseminator::HandleMessage(const sim::Message& msg) {
  if (msg.type == kMsgTupleAck) {
    const auto* ack = std::any_cast<TupleAckEnvelope>(&msg.payload);
    DSPS_CHECK(ack != nullptr);
    auto it = pending_.find(ack->seq);
    if (it != pending_.end()) {
      network_->simulator()->Cancel(it->second.timer);
      pending_.erase(it);
    }
    return true;
  }
  if (msg.type != kMsgTupleForward) return false;
  auto node_it = by_node_.find(msg.to);
  if (node_it == by_node_.end()) return false;
  common::EntityId entity = node_it->second;
  const auto* env = std::any_cast<TupleEnvelope>(&msg.payload);
  DSPS_CHECK(env != nullptr);
  if (env->seq != 0) {
    // Reliable hop: always ack (the sender may be retrying because our
    // previous ack was lost), then suppress re-deliveries so retries and
    // network duplicates never double-process or double-forward.
    SendAck(msg.to, msg.from, env->seq);
    if (!seen_seqs_.insert(env->seq).second) {
      duplicates_suppressed_ += 1;
      if (duplicates_counter_ != nullptr) duplicates_counter_->Increment();
      return true;
    }
  }
  const DisseminationTree* tree = trees_.at(env->tuple->stream).get();
  if (tree->LocalMatch(entity, env->point->data())) {
    ++delivered_;
    if (config_.metrics != nullptr) {
      CountersFor(env->tuple->stream, entity).delivered->Increment();
    }
    if (delivery_) delivery_(entity, *env->tuple);
  }
  // Forward down the tree.
  Forward(*tree, entity, msg.to, *env);
  return true;
}

const DisseminationTree* Disseminator::tree(common::StreamId stream) const {
  auto it = trees_.find(stream);
  return it == trees_.end() ? nullptr : it->second.get();
}

DisseminationTree* Disseminator::mutable_tree(common::StreamId stream) {
  auto it = trees_.find(stream);
  return it == trees_.end() ? nullptr : it->second.get();
}

}  // namespace dsps::dissemination
