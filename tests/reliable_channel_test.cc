#include "sim/reliable_channel.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace dsps::sim {
namespace {

constexpr int kMsgData = 1;
constexpr int kMsgAck = 2;

struct DataEnvelope {
  int64_t seq = 0;
};

/// CI runs this binary under a seed matrix (DSPS_FAULT_SEED=1,2,3).
uint64_t FaultSeed() {
  const char* s = std::getenv("DSPS_FAULT_SEED");
  return s == nullptr ? 1 : std::strtoull(s, nullptr, 10);
}

/// Three nodes on a bare network, plus a fourth 1,400 units out whose round
/// trip exceeds 0.1 s. Every node hands acks to the channel and passes data
/// through Accept, counting what it admits.
class ReliableChannelTest : public ::testing::Test {
 protected:
  static constexpr common::SimNodeId kFar = 3;

  void SetUp() override { Build(FaultInjector::Config{}); }

  void Build(const FaultInjector::Config& faults_config) {
    sim_ = std::make_unique<Simulator>();
    network_ = std::make_unique<Network>(sim_.get());
    faults_ = std::make_unique<FaultInjector>(faults_config);
    network_->SetFaultInjector(faults_.get());
    channel_ = std::make_unique<ReliableChannel>(network_.get(), kMsgAck);
    for (double x : {0.0, 100.0, 200.0, 1400.0}) {
      common::SimNodeId node = network_->AddNode({x, 0.0});
      network_->SetHandler(node, [this](const Message& msg) { Receive(msg); });
    }
    arrivals_ = 0;
    accepted_.clear();
  }

  /// A copy of the data message `seq` from `from` to `to`, as a late
  /// retransmission or network duplicate would deliver it.
  Message DataCopy(common::SimNodeId from, common::SimNodeId to,
                   int64_t seq) const {
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.type = kMsgData;
    msg.size_bytes = 100;
    msg.payload = DataEnvelope{seq};
    return msg;
  }

  void Receive(const Message& msg) {
    if (channel_->HandleAck(msg)) return;
    ASSERT_EQ(msg.type, kMsgData);
    ++arrivals_;
    int64_t seq = msg.payload.get<DataEnvelope>()->seq;
    if (channel_->Accept(msg, seq)) ++accepted_[seq];
  }

  int64_t SendData(common::SimNodeId from, common::SimNodeId to) {
    const int64_t seq = channel_->NextSeq();
    channel_->Send(DataCopy(from, to, seq), seq);
    return seq;
  }

  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<ReliableChannel> channel_;
  int64_t arrivals_ = 0;
  std::map<int64_t, int> accepted_;
};

TEST_F(ReliableChannelTest, SequenceNumbersStartAtOne) {
  EXPECT_EQ(channel_->NextSeq(), 1);
  EXPECT_EQ(channel_->NextSeq(), 2);
}

TEST_F(ReliableChannelTest, ExactlyOnceUnderLossAndDuplication) {
  FaultInjector::Config cfg;
  cfg.seed = FaultSeed();
  cfg.loss_probability = 0.2;
  cfg.duplication_probability = 0.1;
  Build(cfg);
  const int kSends = 400;
  for (int i = 0; i < kSends; ++i) {
    sim_->Schedule(0.001 * i, [this, i] { SendData(i % 3, (i + 1) % 3); });
  }
  sim_->Run();  // the tail: every retry chain runs out

  // Every send ended acked or counted as failed.
  EXPECT_EQ(channel_->pending(), 0u);
  // No sequence number was admitted twice. A send that was never admitted
  // lost every copy, so it ran out of retries and was counted as failed.
  for (auto [seq, n] : accepted_) EXPECT_EQ(n, 1) << "seq " << seq;
  int64_t never_admitted = kSends - static_cast<int64_t>(accepted_.size());
  EXPECT_LE(never_admitted, channel_->failed());
  // Retransmissions and network duplicates reached the receiver and were
  // suppressed, each one counted.
  EXPECT_GT(channel_->retries(), 0);
  EXPECT_GT(channel_->duplicates(), 0);
  EXPECT_EQ(arrivals_ - static_cast<int64_t>(accepted_.size()),
            channel_->duplicates());
  EXPECT_EQ(channel_->cancelled(), 0);
  // With nothing pending, the dedup state is empty.
  EXPECT_EQ(channel_->dedup_window(), 0u);
}

TEST_F(ReliableChannelTest, NoRetransmissionOnLossFreeLinks) {
  // The first timeout follows each link's round trip, so no loss-free
  // send is retransmitted: not on a short link, not on one whose round
  // trip exceeds 0.1 s, and not under latency jitter of up to 0.1 s per
  // message.
  for (double jitter : {0.0, 0.1}) {
    FaultInjector::Config cfg;
    cfg.latency_jitter_s = jitter;
    Build(cfg);
    for (int i = 0; i < 50; ++i) {
      sim_->Schedule(0.002 * i, [this, i] {
        SendData(0, 1 + i % 2);
        SendData(kFar, 0);
      });
    }
    sim_->Run();
    EXPECT_EQ(accepted_.size(), 100u) << jitter;
    EXPECT_EQ(arrivals_, 100) << jitter;
    EXPECT_EQ(channel_->retries(), 0) << jitter;
    EXPECT_EQ(channel_->duplicates(), 0) << jitter;
    EXPECT_EQ(channel_->pending(), 0u) << jitter;
    EXPECT_EQ(channel_->dedup_window(), 0u) << jitter;
  }
}

TEST_F(ReliableChannelTest, LateCopiesOfSettledSendsAreRefused) {
  faults_->Partition(0, kFar);
  faults_->Partition(0, 1);
  const int64_t slow = SendData(0, kFar);  // fails last: the window's floor
  const int64_t failed = SendData(0, 1);
  while (channel_->failed() == 0 && sim_->Step()) {
  }
  ASSERT_EQ(channel_->failed(), 1);
  ASSERT_EQ(channel_->pending(), 1u);  // `slow` keeps retrying
  faults_->Heal(0, 1);
  // A copy of the failed send, above the floor, is refused: a failed send
  // stays failed.
  Receive(DataCopy(0, 1, failed));
  EXPECT_EQ(accepted_.count(failed), 0u);
  EXPECT_EQ(channel_->duplicates(), 1);

  const int64_t acked = SendData(0, 1);
  while (channel_->pending() > 1 && sim_->Step()) {
  }
  ASSERT_EQ(accepted_[acked], 1);
  sim_->Run();  // `slow` runs out of retries
  EXPECT_EQ(channel_->failed(), 2);
  EXPECT_EQ(channel_->dedup_window(), 0u);
  // Every number is below the floor now: late copies of the acked and of
  // both failed sends are acked again, counted, and not admitted.
  Receive(DataCopy(0, 1, acked));
  Receive(DataCopy(0, 1, failed));
  Receive(DataCopy(0, kFar, slow));
  EXPECT_EQ(accepted_[acked], 1);
  EXPECT_EQ(accepted_.count(failed), 0u);
  EXPECT_EQ(accepted_.count(slow), 0u);
  EXPECT_EQ(channel_->duplicates(), 4);
  EXPECT_EQ(channel_->dedup_window(), 0u);
  sim_->Run();  // the acks of the copies settle nothing
  EXPECT_EQ(channel_->pending(), 0u);
  EXPECT_EQ(channel_->retries(), 2 * ReliableChannel::kDefaultMaxRetries);
}

TEST_F(ReliableChannelTest, RetransmitsWithDoublingTimeoutThenFailsOnce) {
  // The first timeout is twice the unloaded round trip: the 100-byte
  // message out on 0->1 and the 16-byte ack back on 1->0.
  const LinkParams out{0.004, 1e6};
  const LinkParams back{0.007, 2e6};
  network_->SetLink(0, 1, out);
  network_->SetLink(1, 0, back);
  const double t = 2 * ((out.latency_s + 100 / out.bandwidth_bps) +
                        (back.latency_s + 16 / back.bandwidth_bps));
  faults_->Partition(0, 1);
  SendData(0, 1);
  std::vector<double> retry_times;
  std::vector<double> failure_times;
  while (sim_->Step()) {
    if (channel_->retries() > static_cast<int64_t>(retry_times.size())) {
      retry_times.push_back(sim_->now());
    }
    if (channel_->failed() > static_cast<int64_t>(failure_times.size())) {
      failure_times.push_back(sim_->now());
    }
  }
  ASSERT_EQ(retry_times.size(), 4u);
  EXPECT_NEAR(retry_times[0], t, 1e-12);
  EXPECT_NEAR(retry_times[1], 3 * t, 1e-12);
  EXPECT_NEAR(retry_times[2], 7 * t, 1e-12);
  EXPECT_NEAR(retry_times[3], 15 * t, 1e-12);
  ASSERT_EQ(failure_times.size(), 1u);
  EXPECT_NEAR(failure_times[0], 31 * t, 1e-12);
  EXPECT_EQ(channel_->pending(), 0u);
  EXPECT_EQ(arrivals_, 0);
}

TEST_F(ReliableChannelTest, LostAckIsAckedAgainButNotAcceptedAgain) {
  // Only the first ack from node 1 back to node 0 is lost.
  faults_->SetLinkLossProbability(1, 0, 1.0);
  network_->SetHandler(1, [this](const Message& msg) {
    Receive(msg);
    faults_->SetLinkLossProbability(1, 0, -1.0);
  });
  int64_t seq = SendData(0, 1);
  sim_->Run();
  EXPECT_EQ(arrivals_, 2);  // the original and one retransmission
  EXPECT_EQ(accepted_[seq], 1);
  EXPECT_EQ(channel_->retries(), 1);
  EXPECT_EQ(channel_->duplicates(), 1);
  EXPECT_EQ(channel_->failed(), 0);
  EXPECT_EQ(channel_->pending(), 0u);
}

TEST_F(ReliableChannelTest, AbandonSplitsFailedAndCancelled) {
  FaultInjector::Config cfg;
  cfg.loss_probability = 1.0;  // nothing is ever acked
  Build(cfg);
  std::vector<int64_t> to_1;
  to_1.push_back(SendData(0, 1));
  SendData(1, 2);
  SendData(0, 2);  // a bystander: neither to nor from node 1
  to_1.push_back(SendData(2, 1));
  SendData(1, 0);
  ASSERT_EQ(channel_->pending(), 5u);
  const size_t events_before = sim_->pending_events();

  std::vector<Message> stranded = channel_->Abandon(1);
  EXPECT_EQ(channel_->failed(), 2);     // addressed to node 1
  EXPECT_EQ(channel_->cancelled(), 2);  // sent by node 1
  ASSERT_EQ(stranded.size(), to_1.size());
  for (size_t i = 0; i < stranded.size(); ++i) {
    EXPECT_EQ(stranded[i].to, 1);
    EXPECT_EQ(stranded[i].payload.get<DataEnvelope>()->seq, to_1[i]);
  }
  // Each abandoned send's timer left the event heap.
  EXPECT_EQ(sim_->pending_events(), events_before - 4);
  EXPECT_EQ(channel_->pending(), 1u);

  // The bystander alone keeps retrying, then fails.
  sim_->Run();
  EXPECT_EQ(channel_->retries(), ReliableChannel::kDefaultMaxRetries);
  EXPECT_EQ(channel_->failed(), 3);
  EXPECT_EQ(channel_->cancelled(), 2);
  EXPECT_EQ(channel_->pending(), 0u);
}

TEST_F(ReliableChannelTest, HandleAckIgnoresOtherTypesAndUnknownSeqs) {
  faults_->Partition(0, 1);  // keep the send pending
  const int64_t seq = SendData(0, 1);
  const size_t events = sim_->pending_events();

  Message other;
  other.from = 1;
  other.to = 0;
  other.type = kMsgData;
  other.payload = AckEnvelope{seq};
  EXPECT_FALSE(channel_->HandleAck(other));
  EXPECT_EQ(channel_->pending(), 1u);

  Message unknown = other;
  unknown.type = kMsgAck;
  unknown.payload = AckEnvelope{seq + 7};
  EXPECT_TRUE(channel_->HandleAck(unknown));
  EXPECT_EQ(channel_->pending(), 1u);
  EXPECT_EQ(sim_->pending_events(), events);

  Message ack = unknown;
  ack.payload = AckEnvelope{seq};
  EXPECT_TRUE(channel_->HandleAck(ack));
  EXPECT_EQ(channel_->pending(), 0u);
  EXPECT_EQ(sim_->pending_events(), events - 1);  // the timer is gone
  sim_->Run();
  EXPECT_EQ(channel_->retries(), 0);
  EXPECT_EQ(channel_->failed(), 0);
}

}  // namespace
}  // namespace dsps::sim
