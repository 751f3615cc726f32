#include "sim/reliable_channel.h"

#include <algorithm>
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
                                 int max_retries)
    : network_(network), ack_type_(ack_type), max_retries_(max_retries) {
  DSPS_CHECK(network != nullptr);
  DSPS_CHECK(max_retries >= 0);
}

void ReliableChannel::Transmit(Message msg) {
  common::Status s = network_->Send(std::move(msg));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
}

void ReliableChannel::Send(Message msg, int64_t seq) {
  // A number below the window would be refused on its first arrival.
  DSPS_CHECK_MSG(seq >= window_base_, "seq %lld sent after the channel moved on",
                 static_cast<long long>(seq));
  auto [it, inserted] = pending_.try_emplace(seq);
  DSPS_CHECK(inserted);
  InFlight& send = it->second;
  send.msg = msg;
  send.retries_left = max_retries_;
  send.timeout_s = kTimeoutRoundTrips * network_->RoundTripS(
                                            msg.from, msg.to, msg.size_bytes,
                                            kAckBytes);
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
    Close(seq);
    pending_.erase(it);
    Trim();
    return;
  }
  send.retries_left -= 1;
  send.timeout_s *= kBackoff;
  Count(&retries_, counters_.retries);
  Transmit(send.msg);
  Arm(seq, &send);
}

bool ReliableChannel::Close(int64_t seq) {
  const size_t at = static_cast<size_t>(seq - window_base_);
  if (at >= closed_.size()) closed_.resize(at + 1, false);
  if (closed_[at]) return false;
  closed_[at] = true;
  return true;
}

void ReliableChannel::Trim() {
  const int64_t floor =
      pending_.empty() ? next_seq_ : pending_.begin()->first;
  const auto drop = static_cast<std::deque<bool>::difference_type>(
      std::min<int64_t>(floor - window_base_,
                        static_cast<int64_t>(closed_.size())));
  closed_.erase(closed_.begin(), closed_.begin() + drop);
  window_base_ = floor;
}

bool ReliableChannel::Accept(const Message& msg, int64_t seq) {
  Message ack;
  ack.from = msg.to;
  ack.to = msg.from;
  ack.type = ack_type_;
  ack.size_bytes = kAckBytes;
  ack.payload = AckEnvelope{seq};
  Transmit(std::move(ack));
  DSPS_CHECK_MSG(seq < next_seq_, "seq %lld was never sent",
                 static_cast<long long>(seq));
  if (seq >= window_base_ && Close(seq)) return true;
  Count(&duplicates_, counters_.duplicates);
  return false;
}

bool ReliableChannel::HandleAck(const Message& msg) {
  if (msg.type != ack_type_) return false;
  const auto* ack = msg.payload.get<AckEnvelope>();
  DSPS_CHECK(ack != nullptr);
  auto it = pending_.find(ack->seq);
  if (it != pending_.end()) {
    network_->simulator()->Cancel(it->second.timer);
    Close(it->first);
    pending_.erase(it);
    Trim();
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
    Close(it->first);
    it = pending_.erase(it);
  }
  Trim();
  return stranded;
}

}  // namespace dsps::sim
