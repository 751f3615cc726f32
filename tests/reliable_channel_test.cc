#include "sim/reliable_channel.h"

#include <gtest/gtest.h>

#include <any>
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

/// Three nodes on a bare network. Every node hands acks to the channel and
/// passes data through Accept, counting what it admits.
class ReliableChannelTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(FaultInjector::Config{}); }

  void Build(const FaultInjector::Config& faults_config,
             double timeout_s = ReliableChannel::kDefaultTimeoutS) {
    sim_ = std::make_unique<Simulator>();
    network_ = std::make_unique<Network>(sim_.get());
    faults_ = std::make_unique<FaultInjector>(faults_config);
    network_->SetFaultInjector(faults_.get());
    channel_ =
        std::make_unique<ReliableChannel>(network_.get(), kMsgAck, timeout_s);
    for (double x : {0.0, 100.0, 200.0}) {
      common::SimNodeId node = network_->AddNode({x, 0.0});
      network_->SetHandler(node, [this](const Message& msg) { Receive(msg); });
    }
    arrivals_ = 0;
    accepted_.clear();
  }

  void Receive(const Message& msg) {
    if (channel_->HandleAck(msg)) return;
    ASSERT_EQ(msg.type, kMsgData);
    ++arrivals_;
    int64_t seq = std::any_cast<const DataEnvelope&>(msg.payload).seq;
    if (channel_->Accept(msg, seq)) ++accepted_[seq];
  }

  int64_t SendData(common::SimNodeId from, common::SimNodeId to) {
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.type = kMsgData;
    msg.size_bytes = 100;
    const int64_t seq = channel_->NextSeq();
    msg.payload = DataEnvelope{seq};
    channel_->Send(std::move(msg), seq);
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
}

TEST_F(ReliableChannelTest, RetransmitsWithDoublingTimeoutThenFailsOnce) {
  const double t = 0.03;
  Build(FaultInjector::Config{}, t);
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
    EXPECT_EQ(std::any_cast<const DataEnvelope&>(stranded[i].payload).seq,
              to_1[i]);
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
