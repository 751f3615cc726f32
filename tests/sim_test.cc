#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/fault_injector.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace dsps::sim {
namespace {

// --------------------------------------------------------------- Simulator

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, SameTimeFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] {
    sim.Schedule(1.0, [&] { fired = 1; });
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(static_cast<double>(i), [&] { ++count; });
  }
  sim.RunUntil(5.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.RunUntil(20.0);
  EXPECT_EQ(count, 10);
  // Clock advances to the requested horizon even with no events there.
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
}

TEST(SimulatorTest, StopAbortsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(static_cast<double>(i), [&] {
      ++count;
      if (count == 3) sim.Stop();
    });
  }
  sim.Run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.pending_events(), 7u);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  double t = -1;
  sim.Schedule(5.0, [&] {
    sim.Schedule(-3.0, [&] { t = sim.now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(t, 5.0);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.Schedule(1.0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

// Regression: Schedule/ScheduleAt used to accept NaN/Inf silently, which
// poisons the heap's strict-weak order (every comparison with NaN is
// false) and can starve or misorder the queue forever after.
TEST(SimulatorTest, NonFiniteTimesAreRejected) {
#ifdef NDEBUG
  // Release builds clamp: NaN/-Inf mean "now", +Inf means "after every
  // finite event" — the heap invariant survives either way.
  Simulator sim;
  double nan_ran_at = -1.0;
  bool inf_ran = false;
  sim.Schedule(std::numeric_limits<double>::quiet_NaN(),
               [&] { nan_ran_at = sim.now(); });
  sim.ScheduleAt(std::numeric_limits<double>::infinity(),
                 [&] { inf_ran = true; });
  sim.Schedule(1.0, [] {});
  sim.RunUntil(2.0);
  EXPECT_DOUBLE_EQ(nan_ran_at, 0.0);
  EXPECT_FALSE(inf_ran);
  EXPECT_EQ(sim.pending_events(), 1u);  // the +Inf event, parked at max
  Simulator sim2;
  double neg_inf_ran_at = -1.0;
  sim2.Schedule(3.0, [&] {
    sim2.ScheduleAt(-std::numeric_limits<double>::infinity(),
                    [&] { neg_inf_ran_at = sim2.now(); });
  });
  sim2.Run();
  EXPECT_DOUBLE_EQ(neg_inf_ran_at, 3.0);
#else
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.Schedule(std::numeric_limits<double>::quiet_NaN(), [] {});
      },
      "isfinite");
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.ScheduleAt(std::numeric_limits<double>::infinity(), [] {});
      },
      "isfinite");
#endif
}

// Regression: RunUntil(t) used to leave now() at the last event's time
// when Stop() fired during the final event at-or-before t, so a caller's
// "time is now t" assumption broke. The clock must advance to t whenever
// every event <= t has executed — Stop() only freezes the clock when it
// leaves such events pending.
TEST(SimulatorTest, RunUntilAdvancesClockWhenStopFiresDuringFinalEvent) {
  Simulator sim;
  sim.Schedule(1.0, [&] { sim.Stop(); });
  sim.Schedule(7.0, [] {});  // beyond the horizon; must not gate the clock
  sim.RunUntil(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilKeepsStopTimeWhenEventsBeforeHorizonPend) {
  Simulator sim;
  sim.Schedule(1.0, [&] { sim.Stop(); });
  sim.Schedule(2.0, [] {});  // within the horizon and still pending
  sim.RunUntil(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

// Property test for the indexed 4-ary heap: one million events at the
// same timestamp must run in exact insertion order — the (time, seq)
// total order is what makes every simulation bit-reproducible.
TEST(SimulatorTest, MillionSameTimestampEventsRunInInsertionOrder) {
  Simulator sim;
  constexpr int kEvents = 1000000;
  int expected = 0;
  bool in_order = true;
  for (int i = 0; i < kEvents; ++i) {
    sim.Schedule(1.0, [&, i] {
      if (i != expected) in_order = false;
      ++expected;
    });
  }
  sim.Run();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(expected, kEvents);
  EXPECT_EQ(sim.events_executed(), static_cast<uint64_t>(kEvents));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(SimulatorTest, CancelledTimersNeverFire) {
  Simulator sim;
  int fired = 0;
  std::vector<TimerId> timers;
  // Interleave cancellable timers with plain events so cancellation has
  // to repair the heap around untracked entries.
  for (int i = 0; i < 1000; ++i) {
    timers.push_back(
        sim.ScheduleCancellable(i * 0.001, [&] { ++fired; }));
    sim.Schedule(i * 0.001, [] {});
  }
  for (size_t i = 0; i < timers.size(); i += 2) {
    EXPECT_TRUE(sim.Cancel(timers[i]));
  }
  EXPECT_FALSE(sim.Cancel(timers[0]));  // double-cancel reports false
  EXPECT_FALSE(sim.Cancel(kInvalidTimer));
  sim.Run();
  EXPECT_EQ(fired, 500);
  EXPECT_FALSE(sim.Cancel(timers[1]));  // already fired
}

TEST(SimulatorTest, CancelFromEventDisarmsSameTimeLaterTimer) {
  Simulator sim;
  bool fired = false;
  TimerId timer = kInvalidTimer;
  sim.Schedule(1.0, [&] { EXPECT_TRUE(sim.Cancel(timer)); });
  timer = sim.ScheduleCancellable(1.0, [&] { fired = true; });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, EveryRunsThroughUntilAfterSameInstantEvents) {
  Simulator sim;
  sim.RunUntil(1.0);
  std::vector<std::pair<char, double>> log;
  sim.Every(0.5, 3.0, [&] {
    log.emplace_back('t', sim.now());
    // Scheduled for the next tick's instant: the next tick is scheduled
    // only after this callback returns, so this event runs first.
    sim.Schedule(0.5, [&] { log.emplace_back('f', sim.now()); });
  });
  sim.Run();
  std::vector<std::pair<char, double>> want;
  for (double t : {1.5, 2.0, 2.5, 3.0}) {
    if (t > 1.5) want.emplace_back('f', t);
    want.emplace_back('t', t);
  }
  want.emplace_back('f', 3.5);
  EXPECT_EQ(log, want);

  // A first run past `until` schedules nothing, including until == now().
  sim.Every(1.0, sim.now() + 0.5, [] { ADD_FAILURE(); });
  sim.Every(1.0, sim.now(), [] { ADD_FAILURE(); });
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
}

// ----------------------------------------------------------------- Network

TEST(NetworkTest, DeliversMessageWithLatency) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({0, 0});
  net.SetLink(a, b, LinkParams{0.5, 1e9});
  double arrival = -1;
  int got_type = 0;
  net.SetHandler(b, [&](const Message& m) {
    arrival = sim.now();
    got_type = m.type;
  });
  Message m;
  m.from = a;
  m.to = b;
  m.type = 7;
  m.size_bytes = 0;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  EXPECT_DOUBLE_EQ(arrival, 0.5);
  EXPECT_EQ(got_type, 7);
}

TEST(NetworkTest, BandwidthAddsTransferTime) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({0, 0});
  net.SetLink(a, b, LinkParams{0.1, 1000.0});  // 1000 B/s
  double arrival = -1;
  net.SetHandler(b, [&](const Message&) { arrival = sim.now(); });
  Message m;
  m.from = a;
  m.to = b;
  m.size_bytes = 500;  // 0.5 s of transfer
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  EXPECT_NEAR(arrival, 0.6, 1e-9);
}

TEST(NetworkTest, LinkSerializesBackToBackSends) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({0, 0});
  net.SetLink(a, b, LinkParams{0.0, 1000.0});
  std::vector<double> arrivals;
  net.SetHandler(b, [&](const Message&) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.from = a;
    m.to = b;
    m.size_bytes = 1000;  // 1 s each
    ASSERT_TRUE(net.Send(m).ok());
  }
  sim.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[0], 1.0, 1e-9);
  EXPECT_NEAR(arrivals[1], 2.0, 1e-9);
  EXPECT_NEAR(arrivals[2], 3.0, 1e-9);
}

TEST(NetworkTest, TracksLinkAndEgressStats) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({3, 4});
  net.SetHandler(b, [](const Message&) {});
  Message m;
  m.from = a;
  m.to = b;
  m.size_bytes = 100;
  ASSERT_TRUE(net.Send(m).ok());
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  EXPECT_EQ(net.link_stats(a, b).messages, 2);
  EXPECT_EQ(net.link_stats(a, b).bytes, 200);
  EXPECT_EQ(net.link_stats(b, a).messages, 0);
  EXPECT_EQ(net.total_bytes(), 200);
  EXPECT_EQ(net.total_messages(), 2);
  EXPECT_EQ(net.egress_bytes(a), 200);
  EXPECT_EQ(net.egress_bytes(b), 0);
  net.ResetStats();
  EXPECT_EQ(net.total_bytes(), 0);
  EXPECT_EQ(net.link_stats(a, b).bytes, 0);
}

/// AllLinkStats lists every link that carried traffic in (from, to)
/// order, whatever the send order and whether the link was created lazily
/// or by SetLink; links that carried nothing are left out.
TEST(NetworkTest, AllLinkStatsAscendByEndpoints) {
  Simulator sim;
  Network net(&sim);
  std::vector<common::SimNodeId> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(net.AddNode({10.0 * i, 0}));
    net.SetHandler(nodes.back(), [](const Message&) {});
  }
  net.SetLink(nodes[2], nodes[0], LinkParams{0.01, 1e6});
  net.SetLink(nodes[0], nodes[3], LinkParams{0.01, 1e6});
  net.SetLink(nodes[1], nodes[2], LinkParams{0.01, 1e6});  // stays idle
  const std::vector<std::pair<int, int>> sends = {
      {3, 1}, {2, 0}, {0, 3}, {1, 0}, {3, 1}, {0, 2}, {2, 0}, {2, 0}};
  for (size_t i = 0; i < sends.size(); ++i) {
    Message m;
    m.from = nodes[sends[i].first];
    m.to = nodes[sends[i].second];
    m.size_bytes = static_cast<int64_t>(10 * (i + 1));
    ASSERT_TRUE(net.Send(m).ok());
  }
  sim.Run();
  std::vector<std::pair<common::SimNodeId, common::SimNodeId>> order;
  for (const Network::LinkRecord& link : net.AllLinkStats()) {
    order.emplace_back(link.from, link.to);
    const LinkStats stats = net.link_stats(link.from, link.to);
    EXPECT_EQ(link.stats.messages, stats.messages);
    EXPECT_EQ(link.stats.bytes, stats.bytes);
  }
  const std::vector<std::pair<common::SimNodeId, common::SimNodeId>> want = {
      {nodes[0], nodes[2]}, {nodes[0], nodes[3]}, {nodes[1], nodes[0]},
      {nodes[2], nodes[0]}, {nodes[3], nodes[1]}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(net.link_stats(nodes[2], nodes[0]).messages, 3);  // SetLink
  EXPECT_EQ(net.link_stats(nodes[2], nodes[0]).bytes, 20 + 70 + 80);
  EXPECT_EQ(net.link_stats(nodes[3], nodes[1]).messages, 2);  // lazy
  EXPECT_EQ(net.link_stats(nodes[3], nodes[1]).bytes, 10 + 50);
  EXPECT_EQ(net.link_stats(nodes[0], nodes[3]).bytes, 30);   // SetLink
  EXPECT_EQ(net.link_stats(nodes[0], nodes[2]).bytes, 60);   // lazy
  EXPECT_EQ(net.link_stats(nodes[1], nodes[2]).messages, 0);  // idle
  EXPECT_EQ(net.link_stats(nodes[0], nodes[1]).messages, 0);  // never made
}

TEST(NetworkTest, LocalSendIsFreeAndFast) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  bool got = false;
  net.SetHandler(a, [&](const Message&) { got = true; });
  Message m;
  m.from = a;
  m.to = a;
  m.size_bytes = 1 << 20;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  EXPECT_TRUE(got);
  EXPECT_EQ(net.total_bytes(), 0);
  EXPECT_LT(sim.now(), 0.001);
}

TEST(NetworkTest, UnknownNodeRejected) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  Message m;
  m.from = a;
  m.to = 99;
  EXPECT_FALSE(net.Send(m).ok());
  m.to = a;
  m.from = -5;
  EXPECT_FALSE(net.Send(m).ok());
}

TEST(NetworkTest, DefaultLinkModelUsesDistance) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto near = net.AddNode({0, 10});
  auto far = net.AddNode({0, 1000});
  double t_near = -1, t_far = -1;
  net.SetHandler(near, [&](const Message&) { t_near = sim.now(); });
  net.SetHandler(far, [&](const Message&) { t_far = sim.now(); });
  Message m;
  m.from = a;
  m.to = near;
  ASSERT_TRUE(net.Send(m).ok());
  m.to = far;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  EXPECT_GT(t_far, t_near);
}

TEST(NetworkTest, DroppedWhenNoHandler) {
  Simulator sim;
  Network net(&sim);
  net.set_fail_on_unhandled(false);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({1, 1});
  Message m;
  m.from = a;
  m.to = b;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();  // must not crash
  EXPECT_EQ(net.total_messages(), 1);
  EXPECT_EQ(net.dropped_no_handler(), 1);
  EXPECT_EQ(net.dropped_messages(), 1);
}

TEST(NetworkDeathTest, UnhandledDeliveryIsFatalWhenAsked) {
  EXPECT_DEATH(
      {
        Simulator sim;
        Network net(&sim);
        net.set_fail_on_unhandled(true);
        Message m;
        m.from = net.AddNode({0, 0});
        m.to = net.AddNode({1, 1});
        m.type = 42;
        (void)net.Send(m);
        sim.Run();
      },
      "message type 42 delivered to node 1 with no handler");
}

TEST(NetworkTest, RoundTripReadsLinksWithoutCreatingThem) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({300, 400});  // 500 units apart
  net.SetLink(a, b, LinkParams{0.01, 1000.0});
  // a->b is explicit; b->a comes from the default model (1 ms + 50 us per
  // unit, 1e8 B/s).
  const double back = 0.001 + 5e-5 * 500 + 16 / 1e8;
  EXPECT_NEAR(net.RoundTripS(a, b, 500, 16), 0.01 + 0.5 + back, 1e-12);
  EXPECT_NEAR(net.RoundTripS(a, a, 500, 16), 2e-6, 1e-15);
  // The query created no b->a link: a model set afterwards still applies.
  net.SetDefaultLinkModel(
      [](const Point&, const Point&) { return LinkParams{0.2, 1e9}; });
  EXPECT_NEAR(net.RoundTripS(a, b, 500, 16), 0.01 + 0.5 + 0.2 + 16 / 1e9,
              1e-12);
  EXPECT_EQ(net.link_stats(b, a).messages, 0);
  // An attached injector's jitter bound counts once per direction, and
  // reading it takes no RNG draw: the next verdict equals a fresh
  // injector's.
  FaultInjector::Config cfg;
  cfg.latency_jitter_s = 0.03;
  FaultInjector faults(cfg);
  FaultInjector fresh(cfg);
  net.SetFaultInjector(&faults);
  EXPECT_NEAR(net.RoundTripS(a, b, 500, 16),
              0.01 + 0.5 + 0.2 + 16 / 1e9 + 2 * 0.03, 1e-12);
  EXPECT_DOUBLE_EQ(faults.Judge(a, b).extra_latency_s,
                   fresh.Judge(a, b).extra_latency_s);
}

// ---------------------------------------------------------------- Topology

TEST(TopologyTest, BuildsRequestedShape) {
  Simulator sim;
  Network net(&sim);
  common::Rng rng(1);
  TopologyConfig cfg;
  cfg.num_entities = 5;
  cfg.processors_per_entity = 3;
  cfg.num_sources = 2;
  Topology topo = BuildTopology(&net, cfg, &rng);
  EXPECT_EQ(topo.entities.size(), 5u);
  EXPECT_EQ(topo.sources.size(), 2u);
  for (const auto& e : topo.entities) {
    EXPECT_EQ(e.processors.size(), 3u);
  }
  EXPECT_EQ(net.node_count(), 5u * 3u + 2u);
}

TEST(TopologyTest, FaultDomainsAssignedInContiguousBlocks) {
  Simulator sim;
  Network net(&sim);
  common::Rng rng(1);
  TopologyConfig cfg;
  cfg.num_entities = 8;
  cfg.num_fault_domains = 4;
  Topology topo = BuildTopology(&net, cfg, &rng);
  std::vector<int> domains;
  for (const auto& e : topo.entities) domains.push_back(e.fault_domain);
  EXPECT_EQ(domains, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
}

TEST(TopologyTest, ZeroFaultDomainsMeansEveryEntityIsItsOwn) {
  Simulator sim;
  Network net(&sim);
  common::Rng rng(1);
  TopologyConfig cfg;
  cfg.num_entities = 4;  // num_fault_domains left at the default 0
  Topology topo = BuildTopology(&net, cfg, &rng);
  for (int e = 0; e < 4; ++e) {
    EXPECT_EQ(topo.entities[e].fault_domain, e);
  }
  // More domains than entities clamps to one entity per domain.
  common::Rng rng2(1);
  cfg.num_fault_domains = 99;
  Topology topo2 = BuildTopology(&net, cfg, &rng2);
  for (int e = 0; e < 4; ++e) {
    EXPECT_EQ(topo2.entities[e].fault_domain, e);
  }
}

TEST(TopologyTest, FaultDomainAssignmentConsumesNoRng) {
  // The domain labels must not shift positions or node ids: a labeled
  // topology is bit-identical to an unlabeled one apart from the labels.
  auto build = [](int domains) {
    Simulator sim;
    Network net(&sim);
    common::Rng rng(42);
    TopologyConfig cfg;
    cfg.num_entities = 4;
    cfg.num_fault_domains = domains;
    Topology topo = BuildTopology(&net, cfg, &rng);
    std::vector<double> xs;
    for (const auto& e : topo.entities) {
      xs.push_back(e.center.x);
      for (auto p : e.processors) xs.push_back(net.position(p).x);
    }
    return xs;
  };
  EXPECT_EQ(build(0), build(2));
}

TEST(TopologyTest, ProcessorsNearTheirCenter) {
  Simulator sim;
  Network net(&sim);
  common::Rng rng(2);
  TopologyConfig cfg;
  cfg.num_entities = 4;
  cfg.processors_per_entity = 8;
  Topology topo = BuildTopology(&net, cfg, &rng);
  for (const auto& e : topo.entities) {
    for (auto p : e.processors) {
      EXPECT_LE(Distance(net.position(p), e.center), kLanRadius + 1e-9);
    }
  }
}

TEST(TopologyTest, IntraEntityLatencyMuchLowerThanWan) {
  Simulator sim;
  Network net(&sim);
  common::Rng rng(3);
  TopologyConfig cfg;
  cfg.num_entities = 2;
  cfg.processors_per_entity = 2;
  cfg.num_sources = 0;
  Topology topo = BuildTopology(&net, cfg, &rng);
  auto p0 = topo.entities[0].processors[0];
  auto p1 = topo.entities[0].processors[1];
  auto q0 = topo.entities[1].processors[0];
  double t_lan = -1, t_wan = -1;
  net.SetHandler(p1, [&](const Message&) { t_lan = sim.now(); });
  net.SetHandler(q0, [&](const Message&) { t_wan = sim.now(); });
  Message m;
  m.from = p0;
  m.to = p1;
  ASSERT_TRUE(net.Send(m).ok());
  m.to = q0;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  ASSERT_GT(t_lan, 0);
  ASSERT_GT(t_wan, 0);
  EXPECT_LT(t_lan * 5, t_wan);  // LAN at least 5x faster here
}

TEST(TopologyTest, DeterministicForSeed) {
  for (int trial = 0; trial < 2; ++trial) {
    static std::vector<double> first_xs;
    Simulator sim;
    Network net(&sim);
    common::Rng rng(42);
    TopologyConfig cfg;
    cfg.num_entities = 3;
    Topology topo = BuildTopology(&net, cfg, &rng);
    std::vector<double> xs;
    for (const auto& e : topo.entities) xs.push_back(e.center.x);
    if (trial == 0) {
      first_xs = xs;
    } else {
      EXPECT_EQ(xs, first_xs);
    }
  }
}

}  // namespace
}  // namespace dsps::sim
