#include "sim/reliable_channel.h"

#include <utility>

#include "common/check.h"

namespace dsps::sim {

namespace {

void Count(int64_t* stat, telemetry::Counter* mirror) {
  *stat += 1;
  if (mirror != nullptr) mirror->Increment();
}

}  // namespace

ReliableChannel::ReliableChannel(Network* network, int ack_type,
                                 double timeout_s, int max_retries)
    : network_(network),
      ack_type_(ack_type),
      timeout_s_(timeout_s),
      max_retries_(max_retries) {
  DSPS_CHECK(network != nullptr);
  DSPS_CHECK(timeout_s > 0);
  DSPS_CHECK(max_retries >= 0);
}

void ReliableChannel::Transmit(Message msg) {
  common::Status s = network_->Send(std::move(msg));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
}

void ReliableChannel::Send(Message msg, int64_t seq) {
  auto [it, inserted] = pending_.try_emplace(seq);
  DSPS_CHECK(inserted);
  InFlight& send = it->second;
  send.msg = msg;
  send.retries_left = max_retries_;
  send.timeout_s = timeout_s_;
  Transmit(std::move(msg));
  Arm(seq, &send);
}

void ReliableChannel::Arm(int64_t seq, InFlight* send) {
  // Cancellable: acks and Abandon reclaim the timer's heap slot instead of
  // leaving a dud event behind.
  send->timer = network_->simulator()->ScheduleCancellable(
      send->timeout_s, [this, seq]() { OnTimeout(seq); });
}

void ReliableChannel::OnTimeout(int64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // settled in the meantime
  InFlight& send = it->second;
  if (send.retries_left <= 0) {
    Count(&failed_, counters_.failed);
    pending_.erase(it);
    return;
  }
  send.retries_left -= 1;
  send.timeout_s *= kBackoff;
  Count(&retries_, counters_.retries);
  Transmit(send.msg);
  Arm(seq, &send);
}

bool ReliableChannel::Accept(const Message& msg, int64_t seq) {
  Message ack;
  ack.from = msg.to;
  ack.to = msg.from;
  ack.type = ack_type_;
  ack.size_bytes = kAckBytes;
  ack.payload = AckEnvelope{seq};
  Transmit(std::move(ack));
  if (accepted_.insert(seq).second) return true;
  Count(&duplicates_, counters_.duplicates);
  return false;
}

bool ReliableChannel::HandleAck(const Message& msg) {
  if (msg.type != ack_type_) return false;
  const auto* ack = std::any_cast<AckEnvelope>(&msg.payload);
  DSPS_CHECK(ack != nullptr);
  auto it = pending_.find(ack->seq);
  if (it != pending_.end()) {
    network_->simulator()->Cancel(it->second.timer);
    pending_.erase(it);
  }
  return true;
}

std::vector<Message> ReliableChannel::Abandon(common::SimNodeId node) {
  std::vector<Message> stranded;
  for (auto it = pending_.begin(); it != pending_.end();) {
    Message& msg = it->second.msg;
    if (msg.to == node) {
      Count(&failed_, counters_.failed);
      stranded.push_back(std::move(msg));
    } else if (msg.from == node) {
      Count(&cancelled_, counters_.cancelled);
    } else {
      ++it;
      continue;
    }
    network_->simulator()->Cancel(it->second.timer);
    it = pending_.erase(it);
  }
  return stranded;
}

}  // namespace dsps::sim
