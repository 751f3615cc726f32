#include "dissemination/disseminator.h"

#include <chrono>
#include <utility>

#include "common/check.h"

namespace dsps::dissemination {

Disseminator::Disseminator(sim::Network* network, const Config& config)
    : network_(network),
      config_(config),
      hops_(network, kMsgTupleAck, config.retry_timeout_s) {
  if (config_.metrics != nullptr) {
    route_lookup_us_ = config_.metrics->histogram("dissem.route_lookup_us");
  }
  if (config_.reliable && config_.metrics != nullptr) {
    sim::ReliableChannel::Counters counters;
    counters.retries = config_.metrics->counter("dissemination.retries");
    counters.failed = config_.metrics->counter("dissemination.delivery_failed");
    counters.cancelled =
        config_.metrics->counter("dissemination.retries_cancelled");
    counters.duplicates =
        config_.metrics->counter("dissemination.duplicates_suppressed");
    hops_.SetCounters(counters);
  }
}

namespace {

/// Grows `v` with `fill` so that index `i` exists.
template <typename T>
void GrowTo(std::vector<T>* v, size_t i, const T& fill) {
  if (i >= v->size()) v->resize(i + 1, fill);
}

}  // namespace

DisseminationTree* Disseminator::TreeOf(common::StreamId stream) const {
  if (stream < 0 || static_cast<size_t>(stream) >= streams_.size()) {
    return nullptr;
  }
  return streams_[stream].tree.get();
}

common::SimNodeId Disseminator::GatewayOf(common::EntityId id) const {
  if (id < 0 || static_cast<size_t>(id) >= gateways_.size()) {
    return common::kInvalidSimNode;
  }
  return gateways_[id];
}

common::Status Disseminator::AddSource(common::StreamId stream,
                                       common::SimNodeId source_node) {
  if (stream < 0) return common::Status::InvalidArgument("invalid stream");
  if (TreeOf(stream) != nullptr) {
    return common::Status::AlreadyExists("stream already has a source");
  }
  if (static_cast<size_t>(stream) >= streams_.size()) {
    streams_.resize(static_cast<size_t>(stream) + 1);
  }
  streams_[stream].tree = std::make_unique<DisseminationTree>(
      stream, network_->position(source_node), config_.tree);
  streams_[stream].source = source_node;
  // The source must hear hop acks in reliable mode; the handler is inert
  // otherwise (nothing ever addresses a source in fire-and-forget mode).
  network_->SetHandler(source_node, [this](const sim::Message& msg) {
    HandleMessage(msg);
  });
  return common::Status::OK();
}

common::Status Disseminator::AddEntity(common::EntityId id,
                                       common::SimNodeId gateway) {
  if (id < 0 || gateway < 0) {
    return common::Status::InvalidArgument("invalid entity or gateway");
  }
  if (GatewayOf(id) != common::kInvalidSimNode) {
    return common::Status::AlreadyExists("entity already registered");
  }
  GrowTo(&gateways_, static_cast<size_t>(id), common::kInvalidSimNode);
  gateways_[id] = gateway;
  GrowTo(&by_node_, static_cast<size_t>(gateway), common::kInvalidEntity);
  by_node_[gateway] = id;
  for (const StreamTree& s : streams_) {
    if (s.tree == nullptr) continue;
    DSPS_RETURN_IF_ERROR(s.tree->AddEntity(id, network_->position(gateway)));
  }
  network_->SetHandler(gateway, [this](const sim::Message& msg) {
    HandleMessage(msg);
  });
  return common::Status::OK();
}

common::Status Disseminator::RemoveEntity(common::EntityId id) {
  const common::SimNodeId gateway = GatewayOf(id);
  if (gateway == common::kInvalidSimNode) {
    return common::Status::NotFound("entity not registered");
  }
  for (const StreamTree& s : streams_) {
    if (s.tree != nullptr && s.tree->Contains(id)) {
      DSPS_RETURN_IF_ERROR(s.tree->RemoveEntity(id));
    }
  }
  // The removed entity will never ack hops sent to it (delivery
  // failures), and its gateway's own sends must not be retransmitted by a
  // process that is gone (cancelled).
  (void)hops_.Abandon(gateway);
  by_node_[gateway] = common::kInvalidEntity;
  gateways_[id] = common::kInvalidSimNode;
  return common::Status::OK();
}

common::Status Disseminator::SetEntityInterest(
    common::EntityId id, common::StreamId stream,
    const std::vector<interest::Box>& boxes) {
  DisseminationTree* tree = TreeOf(stream);
  if (tree == nullptr) return common::Status::NotFound("unknown stream");
  if (GatewayOf(id) == common::kInvalidSimNode) {
    return common::Status::NotFound("unknown entity");
  }
  tree->SetLocalInterest(id, boxes);
  return common::Status::OK();
}

interest::IndexStats Disseminator::RouteIndexStats() const {
  interest::IndexStats stats;
  for (const StreamTree& s : streams_) {
    if (s.tree != nullptr) s.tree->CollectIndexStats(&stats);
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
                           DisseminationTree::Position at,
                           common::EntityId from, common::SimNodeId from_node,
                           const TupleEnvelope& env) {
  std::vector<common::EntityId>& targets = targets_scratch_;
  if (route_lookup_us_ != nullptr) {
    auto start = std::chrono::steady_clock::now();
    tree.ForwardTargets(at, env.point->data(), config_.early_filter, &targets);
    route_lookup_us_->Observe(std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
  } else {
    tree.ForwardTargets(at, env.point->data(), config_.early_filter, &targets);
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
    msg.to = gateways_[target];
    msg.type = kMsgTupleForward;
    msg.size_bytes = size_bytes;
    msg.trace_id = trace_id;
    if (config_.reliable) {
      const int64_t seq = hops_.NextSeq();
      TupleEnvelope reliable_env = env;
      reliable_env.seq = seq;
      msg.payload = std::move(reliable_env);
      hops_.Send(std::move(msg), seq);
    } else {
      msg.payload = env;
      common::Status s = network_->Send(std::move(msg));
      DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    }
    ++forwards_;
  }
}

common::Status Disseminator::Publish(const engine::Tuple& tuple) {
  const DisseminationTree* tree = TreeOf(tuple.stream);
  if (tree == nullptr) return common::Status::NotFound("unknown stream");
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
  env.point = engine::ProjectPoint(tuple);
  Forward(*tree, tree->Locate(common::kInvalidEntity), common::kInvalidEntity,
          streams_[tuple.stream].source, env);
  return common::Status::OK();
}

bool Disseminator::HandleMessage(const sim::Message& msg) {
  if (hops_.HandleAck(msg)) return true;
  if (msg.type != kMsgTupleForward) return false;
  if (msg.to < 0 || static_cast<size_t>(msg.to) >= by_node_.size()) {
    return false;
  }
  const common::EntityId entity = by_node_[msg.to];
  if (entity == common::kInvalidEntity) return false;
  const auto* env = std::any_cast<TupleEnvelope>(&msg.payload);
  DSPS_CHECK(env != nullptr);
  // Reliable hop: retries and network duplicates must never
  // double-process or double-forward.
  if (env->seq != 0 && !hops_.Accept(msg, env->seq)) return true;
  const DisseminationTree* tree = TreeOf(env->tuple->stream);
  DSPS_CHECK_MSG(tree != nullptr, "tuple of unknown stream %d",
                 env->tuple->stream);
  // One resolution serves both the local match and the forwarding.
  const DisseminationTree::Position at = tree->Locate(entity);
  if (tree->LocalMatch(at, env->point->data())) {
    ++delivered_;
    if (config_.metrics != nullptr) {
      CountersFor(env->tuple->stream, entity).delivered->Increment();
    }
    if (delivery_) delivery_(entity, *env);
  }
  // Forward down the tree.
  Forward(*tree, at, entity, msg.to, *env);
  return true;
}

const DisseminationTree* Disseminator::tree(common::StreamId stream) const {
  return TreeOf(stream);
}

DisseminationTree* Disseminator::mutable_tree(common::StreamId stream) {
  return TreeOf(stream);
}

}  // namespace dsps::dissemination
