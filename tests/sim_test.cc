#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/fault_injector.h"
#include "sim/network.h"
#include "sim/payload.h"
#include "sim/simulator.h"
#include "sim/topology.h"

// Every global allocation of this test binary is counted, so the
// zero-allocation tests below can hold the event core's hot paths to it.
// The helpers stay out of line: inlined, the compiler would pair an
// operator new call with the free() below and warn about the mismatch.
namespace {
std::atomic<int64_t> g_allocations{0};

[[gnu::noinline]] void* CountedAlloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

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

// Property test for the 4-ary key heap: one million events at the
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

TEST(SimulatorTest, StaleHandlesAreRefused) {
  Simulator sim;
  int fired = 0;
  // After the event fired.
  TimerId done = sim.ScheduleCancellable(1.0, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(done));
  // After it was already cancelled.
  TimerId twice = sim.ScheduleCancellable(1.0, [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(twice));
  EXPECT_FALSE(sim.Cancel(twice));
  // After its slot was reused by a new event, which still runs: freed
  // slots are recycled LIFO, so the next event takes the cancelled one's.
  TimerId old = sim.ScheduleCancellable(1.0, [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(old));
  TimerId reuser = sim.ScheduleCancellable(1.0, [&] { ++fired; });
  EXPECT_EQ(old & 0xffffffffu, reuser & 0xffffffffu);  // same slot
  EXPECT_NE(old, reuser);
  EXPECT_FALSE(sim.Cancel(old));
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Cancel(reuser));
  // On its own handle, from inside its own callback.
  TimerId self = kInvalidTimer;
  bool ran = false;
  self = sim.ScheduleCancellable(1.0, [&] {
    ran = true;
    EXPECT_FALSE(sim.Cancel(self));
  });
  sim.Run();
  EXPECT_TRUE(ran);
  // kInvalidTimer, and handles that were never issued — with a plain
  // event pending in slot 0, which no handle may reach.
  sim.Schedule(1.0, [&] { ++fired; });
  EXPECT_FALSE(sim.Cancel(kInvalidTimer));
  EXPECT_FALSE(sim.Cancel(TimerId{1}));
  EXPECT_FALSE(sim.Cancel(TimerId{0xfffffff0u} << 32 | 1));
  EXPECT_FALSE(sim.Cancel(~TimerId{0}));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

/// Drives a Simulator and a reference ordered set of (time, seq) through
/// the same random calls: every schedule form, Cancel on live, stale,
/// invalid and never-issued handles, and Step — with callbacks that
/// schedule and cancel in turn.
class EventCoreDifferential {
 public:
  explicit EventCoreDifferential(uint64_t seed) : rng_(seed) {}

  void RandomCall() {
    switch (rng_.NextUint64(6)) {
      case 0:
      case 1:
        ScheduleRandom();
        break;
      case 2:
        CancelRandom();
        break;
      default: {
        const bool any = !ref_.empty();
        EXPECT_EQ(sim_.Step(), any);
        break;
      }
    }
    EXPECT_EQ(sim_.pending_events(), ref_.size());
  }

  void Drain() {
    while (sim_.Step()) {
    }
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(sim_.pending_events(), 0u);
  }

  int64_t fired() const { return fired_; }
  int64_t cancelled() const { return cancelled_; }

 private:
  using Key = std::pair<SimTime, uint64_t>;

  void ScheduleRandom() {
    const uint64_t seq = next_seq_++;
    // A coarse grid around now (including the past) makes ties common.
    const double offset = 0.25 * static_cast<double>(rng_.UniformInt(-2, 8));
    const double now = sim_.now();
    auto fn = [this, seq]() { OnFire(seq); };
    TimerId handle = kInvalidTimer;
    SimTime at;
    switch (rng_.NextUint64(4)) {
      case 0:
        sim_.Schedule(offset, fn);
        at = now + std::max(offset, 0.0);
        break;
      case 1:
        sim_.ScheduleAt(now + offset, fn);
        at = std::max(now + offset, now);
        break;
      case 2:
        handle = sim_.ScheduleCancellable(offset, fn);
        at = now + std::max(offset, 0.0);
        break;
      default:
        handle = sim_.ScheduleCancellableAt(now + offset, fn);
        at = std::max(now + offset, now);
        break;
    }
    ref_.insert(Key{at, seq});
    if (handle != kInvalidTimer) {
      EXPECT_TRUE(issued_set_.insert(handle).second);
      issued_.push_back(handle);
      live_[handle] = Key{at, seq};
      handle_of_seq_[seq] = handle;
    }
  }

  void CancelRandom() {
    TimerId handle;
    const uint64_t pick = rng_.NextUint64(8);
    if (pick == 0) {
      handle = kInvalidTimer;
    } else if (pick == 1) {
      do {
        handle = rng_.Next();
      } while (handle == kInvalidTimer || issued_set_.count(handle) > 0);
    } else if (pick < 5 && !live_.empty()) {
      auto live = live_.begin();
      std::advance(live, rng_.NextUint64(live_.size()));
      handle = live->first;
    } else if (!issued_.empty()) {  // live or stale
      handle = issued_[rng_.NextUint64(issued_.size())];
    } else {
      return;
    }
    auto it = live_.find(handle);
    const bool pending = it != live_.end();
    EXPECT_EQ(sim_.Cancel(handle), pending) << handle;
    if (pending) {
      ref_.erase(it->second);
      handle_of_seq_.erase(it->second.second);
      live_.erase(it);
      ++cancelled_;
    }
  }

  void OnFire(uint64_t seq) {
    ASSERT_FALSE(ref_.empty());
    const Key expected = *ref_.begin();
    EXPECT_EQ(seq, expected.second);
    EXPECT_EQ(sim_.now(), expected.first);
    ref_.erase(ref_.begin());
    ++fired_;
    auto own = handle_of_seq_.find(seq);
    if (own != handle_of_seq_.end()) {
      live_.erase(own->second);
      EXPECT_FALSE(sim_.Cancel(own->second));  // its own handle is stale
      handle_of_seq_.erase(own);
    }
    EXPECT_EQ(sim_.pending_events(), ref_.size());
    if (rng_.Bernoulli(0.3)) ScheduleRandom();
    if (rng_.Bernoulli(0.2)) CancelRandom();
  }

  common::Rng rng_;
  Simulator sim_;
  std::set<Key> ref_;
  uint64_t next_seq_ = 0;
  std::map<TimerId, Key> live_;
  std::map<uint64_t, TimerId> handle_of_seq_;
  std::vector<TimerId> issued_;
  std::set<TimerId> issued_set_;
  int64_t fired_ = 0;
  int64_t cancelled_ = 0;
};

TEST(SimulatorTest, MatchesReferenceOrderUnderRandomCalls) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE(seed);
    EventCoreDifferential run(seed);
    for (int i = 0; i < 20000; ++i) run.RandomCall();
    run.Drain();
    EXPECT_GT(run.fired(), 5000);
    EXPECT_GT(run.cancelled(), 500);
  }
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

TEST(NetworkTest, ManyLinksKeepTheirStatsAcrossIndexGrowth) {
  // A full mesh of 20 nodes creates 380 links, so the link index grows
  // several times; every link keeps its own stats.
  Simulator sim;
  Network net(&sim);
  constexpr int kNodes = 20;
  for (int i = 0; i < kNodes; ++i) {
    net.SetHandler(net.AddNode({static_cast<double>(i), 0}),
                   [](const Message&) {});
  }
  for (int round = 1; round <= 2; ++round) {
    for (int from = 0; from < kNodes; ++from) {
      for (int to = 0; to < kNodes; ++to) {
        if (from == to) continue;
        Message m;
        m.from = from;
        m.to = to;
        m.size_bytes = 100 * from + to;
        ASSERT_TRUE(net.Send(std::move(m)).ok());
      }
    }
  }
  sim.Run();
  std::vector<Network::LinkRecord> all = net.AllLinkStats();
  ASSERT_EQ(all.size(), static_cast<size_t>(kNodes * (kNodes - 1)));
  size_t i = 0;
  for (int from = 0; from < kNodes; ++from) {
    for (int to = 0; to < kNodes; ++to) {
      if (from == to) continue;
      const LinkStats stats = net.link_stats(from, to);
      EXPECT_EQ(stats.messages, 2);
      EXPECT_EQ(stats.bytes, 2 * (100 * from + to));
      EXPECT_EQ(all[i].from, from);
      EXPECT_EQ(all[i].to, to);
      EXPECT_EQ(all[i].stats.bytes, stats.bytes);
      ++i;
    }
  }
  EXPECT_EQ(net.link_stats(3, 3).messages, 0);
}

// ------------------------------------------------------------------ Payload

/// The shape of the tuple-path envelopes: two shared pointers and a
/// sequence number, 40 bytes — the largest that rides inline.
struct FortyByteEnvelope {
  std::shared_ptr<const std::string> a;
  std::shared_ptr<const std::string> b;
  int64_t seq = 0;
};
static_assert(sizeof(FortyByteEnvelope) == Payload::kInlineBytes);

TEST(PayloadTest, CopyAndMovePreserveTheValue) {
  auto text = std::make_shared<const std::string>("tuple");
  Payload p = FortyByteEnvelope{text, text, 7};
  Payload copy = p;
  ASSERT_NE(copy.get<FortyByteEnvelope>(), nullptr);
  EXPECT_EQ(*copy.get<FortyByteEnvelope>()->a, "tuple");
  EXPECT_EQ(copy.get<FortyByteEnvelope>()->seq, 7);
  EXPECT_EQ(text.use_count(), 5);  // text + two per held envelope
  Payload moved = std::move(p);
  EXPECT_FALSE(p.has_value());  // NOLINT(bugprone-use-after-move)
  ASSERT_NE(moved.get<FortyByteEnvelope>(), nullptr);
  EXPECT_EQ(moved.get<FortyByteEnvelope>()->seq, 7);
  EXPECT_EQ(text.use_count(), 5);
  // Assignment releases the value it replaces.
  copy = Payload(int64_t{3});
  EXPECT_EQ(text.use_count(), 3);
  ASSERT_NE(copy.get<int64_t>(), nullptr);
  EXPECT_EQ(*copy.get<int64_t>(), 3);
  copy = moved;
  EXPECT_EQ(copy.get<FortyByteEnvelope>()->b, text);
  moved.reset();
  copy = std::move(moved);
  EXPECT_FALSE(copy.has_value());
  EXPECT_EQ(text.use_count(), 1);
}

TEST(PayloadTest, WrongTypeReadsNull) {
  Payload p = int64_t{5};
  EXPECT_EQ(p.get<int>(), nullptr);
  EXPECT_EQ(p.get<double>(), nullptr);
  EXPECT_EQ(p.get<FortyByteEnvelope>(), nullptr);
  ASSERT_NE(p.get<int64_t>(), nullptr);
  EXPECT_EQ(*p.get<int64_t>(), 5);
  const Payload empty;
  EXPECT_EQ(empty.get<int64_t>(), nullptr);
}

TEST(PayloadTest, LargerThanInlineRoundTrips) {
  struct Big {
    std::array<int64_t, 6> header{};
    std::vector<int> body;
  };
  static_assert(sizeof(Big) > Payload::kInlineBytes);
  Big big;
  big.header = {1, 2, 3, 4, 5, 6};
  big.body = {7, 8, 9};
  Payload p = big;
  Payload copy = p;
  Payload moved = std::move(p);
  for (const Payload* held : {&copy, &moved}) {
    ASSERT_NE(held->get<Big>(), nullptr);
    EXPECT_EQ(held->get<Big>()->header, big.header);
    EXPECT_EQ(held->get<Big>()->body, big.body);
  }
  EXPECT_EQ(copy.get<FortyByteEnvelope>(), nullptr);
}

// ---------------------------------------------------- Allocation-free core

TEST(EventCoreAllocationTest, ScheduleAndStepAllocateNothing) {
  // The hot closures' shape: {pointer, slot}, inside std::function's
  // inline buffer. 64 events stay pending, so every cycle sifts.
  Simulator sim;
  std::array<int64_t, 64> hits{};
  int64_t* base = hits.data();
  auto cycles = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto slot = static_cast<uint32_t>(i % hits.size());
      sim.Schedule(1e-3 * static_cast<double>(i % 7),
                   [base, slot]() { ++base[slot]; });
      sim.Step();
    }
  };
  for (size_t i = 0; i < hits.size(); ++i) {
    sim.Schedule(1.0, [base]() { ++base[0]; });
  }
  cycles(100);  // warm-up: the heap and the slot arena reach their size
  const int64_t before = g_allocations.load();
  cycles(10000);
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(sim.pending_events(), hits.size());
}

TEST(EventCoreAllocationTest, NetworkDeliveryOfInlinePayloadAllocatesNothing) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({10, 0});
  int64_t delivered = 0;
  int64_t seq_sum = 0;
  net.SetHandler(b, [&](const Message& m) {
    const auto* env = m.payload.get<FortyByteEnvelope>();
    ASSERT_NE(env, nullptr);
    ++delivered;
    seq_sum += env->seq;
  });
  auto text = std::make_shared<const std::string>("tuple");
  auto sends = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Message m;
      m.from = a;
      m.to = b;
      m.type = 1;
      m.size_bytes = 100;
      m.payload = FortyByteEnvelope{text, text, i};
      ASSERT_TRUE(net.Send(std::move(m)).ok());
      sim.Step();
    }
  };
  sends(100);  // warm-up: creates the link and the arena slot
  const int64_t before = g_allocations.load();
  sends(10000);
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(delivered, 10100);
  EXPECT_EQ(seq_sum, 99 * 100 / 2 + 9999 * 10000 / 2);
  EXPECT_EQ(text.use_count(), 1);
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
