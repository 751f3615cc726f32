#ifndef DSPS_SIM_RELIABLE_CHANNEL_H_
#define DSPS_SIM_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "telemetry/registry.h"

namespace dsps::sim {

/// Payload of every ReliableChannel ack; the ack's Message::type names the
/// channel it belongs to.
struct AckEnvelope {
  int64_t seq = 0;
};

/// Exactly-once delivery over the lossy, duplicating datagram Network: the
/// one implementation of the ack / retry / dedup protocol that dissemination
/// hops, entity->client results and re-home batches share.
///
/// The sender numbers each message (NextSeq) and writes the number into its
/// own envelope; Send keeps a copy and arms a cancellable timer that, until
/// an ack settles the send, retransmits with ×kBackoff growing timeouts and
/// after max_retries retransmissions counts the send as failed. The receiver
/// passes every arrival through Accept, which always acks — the sender may
/// be retrying because the previous ack was lost — and admits each sequence
/// number once. Every outcome is counted; nothing is dropped silently.
///
/// Sequence numbers start at 1 per channel. Sends are kept in sequence
/// order, so Abandon reports stranded sends in the order they were made.
class ReliableChannel {
 public:
  /// Each retransmission waits this many times longer than the previous.
  static constexpr double kBackoff = 2.0;
  /// Wire size of an ack.
  static constexpr int64_t kAckBytes = 16;
  static constexpr double kDefaultTimeoutS = 0.05;
  static constexpr int kDefaultMaxRetries = 4;

  /// Registry counters that mirror the stats (each may be null).
  struct Counters {
    telemetry::Counter* retries = nullptr;
    telemetry::Counter* failed = nullptr;
    telemetry::Counter* cancelled = nullptr;
    telemetry::Counter* duplicates = nullptr;
  };

  /// Acks travel as `ack_type` messages. The first retransmission fires
  /// `timeout_s` after a send. `network` must outlive the channel.
  ReliableChannel(Network* network, int ack_type,
                  double timeout_s = kDefaultTimeoutS,
                  int max_retries = kDefaultMaxRetries);
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  void SetCounters(const Counters& counters) { counters_ = counters; }

  /// The sequence number of the next send.
  int64_t NextSeq() { return next_seq_++; }

  /// Sends `msg`, whose payload carries `seq`, and keeps retrying it until
  /// it is acked, abandoned, or out of retries.
  void Send(Message msg, int64_t seq);

  /// Receiver side: acks `seq` from msg.to back to msg.from. True the first
  /// time `seq` arrives; later copies are counted as duplicates.
  bool Accept(const Message& msg, int64_t seq);

  /// Sender side: settles the send `msg` acks. False when `msg` is not this
  /// channel's ack; acks of settled or unknown sends are consumed silently.
  bool HandleAck(const Message& msg);

  /// Settles every pending send to or from `node` (its process is gone).
  /// Sends to it count as failed, sends from it as cancelled. Returns the
  /// sends addressed to `node`, in sequence order.
  std::vector<Message> Abandon(common::SimNodeId node);

  /// Retransmissions made.
  int64_t retries() const { return retries_; }
  /// Sends given up: out of retries, or addressed to an abandoned node.
  int64_t failed() const { return failed_; }
  /// Sends from an abandoned node.
  int64_t cancelled() const { return cancelled_; }
  /// Arrivals of an already accepted sequence number.
  int64_t duplicates() const { return duplicates_; }
  /// Sends awaiting an ack right now.
  size_t pending() const { return pending_.size(); }

 private:
  struct InFlight {
    Message msg;
    int retries_left = 0;
    double timeout_s = 0.0;
    TimerId timer = kInvalidTimer;
  };

  void Arm(int64_t seq, InFlight* send);
  void OnTimeout(int64_t seq);
  void Transmit(Message msg);

  Network* network_;
  int ack_type_;
  double timeout_s_;
  int max_retries_;
  Counters counters_;
  std::map<int64_t, InFlight> pending_;
  std::unordered_set<int64_t> accepted_;
  int64_t next_seq_ = 1;
  int64_t retries_ = 0;
  int64_t failed_ = 0;
  int64_t cancelled_ = 0;
  int64_t duplicates_ = 0;
};

}  // namespace dsps::sim

#endif  // DSPS_SIM_RELIABLE_CHANNEL_H_
