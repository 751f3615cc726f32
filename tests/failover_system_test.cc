#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "system/auditor.h"
#include "system/system.h"
#include "workload/stream_gen.h"

namespace dsps::system {
namespace {

/// CI runs this binary under a seed matrix (DSPS_FAULT_SEED=1,2,3): every
/// assertion below must hold for any fault schedule, not one lucky draw.
uint64_t FaultSeed() {
  const char* s = std::getenv("DSPS_FAULT_SEED");
  return s == nullptr ? 1 : std::strtoull(s, nullptr, 10);
}

/// When CI also sets DSPS_AUDIT_INTERVAL, every fault test runs with the
/// invariant auditor sweeping concurrently: the crash/repair machinery
/// must hold the system's invariants under any fault schedule, not just
/// pass its own assertions. Sweeps are read-only, so enabling them never
/// changes what the tests observe.
void MaybeEnableAudit(System* sys, double until) {
  double period = AuditIntervalFromEnv();
  if (period > 0) sys->EnableAudit(period, until);
}

void ExpectCleanAudit(System* sys) {
  if (sys->auditor() == nullptr) return;
  EXPECT_GT(sys->auditor()->sweeps(), 0);
  EXPECT_EQ(sys->auditor()->violations(), 0);
}

System::Config FaultConfig(int num_entities = 4) {
  System::Config cfg;
  cfg.topology.num_entities = num_entities;
  cfg.topology.processors_per_entity = 2;
  cfg.topology.num_sources = 2;
  cfg.allocation = AllocationMode::kRoundRobin;
  cfg.seed = 7;
  cfg.inject_faults = true;
  cfg.faults.seed = FaultSeed();
  return cfg;
}

std::vector<std::unique_ptr<workload::StreamGen>> SmallStreams(
    int n, double rate = 200.0) {
  workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = rate;
  interest::StreamCatalog scratch;
  common::Rng rng(3);
  return workload::MakeTickerStreams(n, tcfg, &scratch, &rng);
}

engine::Query WideQuery(common::QueryId id, common::StreamId stream,
                        double load = 1.0) {
  engine::Query q;
  q.id = id;
  auto plan = std::make_shared<engine::QueryPlan>();
  interest::Box box{{-1, 1000}, {-1, 1000}, {-1, 1e9}};
  auto f = plan->AddOperator(
      std::make_unique<engine::FilterOp>(std::vector<int>{0, 1, 2}, box));
  EXPECT_TRUE(plan->BindStream(stream, f, 0).ok());
  q.plan = plan;
  q.interest.Add(stream, box);
  q.load = load;
  return q;
}

System::FailureDetectionConfig FastDetection() {
  System::FailureDetectionConfig d;
  d.heartbeat_period_s = 0.1;
  return d;
}

TEST(FailoverSystemTest, CrashDetectedByHeartbeatsAndQueriesRehomed) {
  System sys(FaultConfig());
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  sys.EnableFailureDetection(FastDetection(), /*until=*/10.0);
  MaybeEnableAudit(&sys, /*until=*/5.0);
  sys.GenerateTraffic(4.0);
  // Entity 1 crashes at t=1 and never recovers within the run.
  sys.ScheduleCrash(1, /*crash_at=*/1.0, /*recover_at=*/50.0);
  sys.RunUntil(5.0);

  const System::FailureStats& fs = sys.failure_stats();
  EXPECT_GE(fs.detections, 1);
  EXPECT_FALSE(sys.IsAlive(1));
  // Detection latency: at least the heartbeat timeout, at most timeout
  // plus a couple of periods and in-flight slack.
  ASSERT_GE(fs.detection_latency.count(), 1u);
  EXPECT_GE(fs.detection_latency.max(), 0.2);
  EXPECT_LE(fs.detection_latency.max(), 1.5);
  EXPECT_GT(fs.heartbeat_messages, 0);
  EXPECT_GT(fs.repair_messages, 0);
  // Every query orphaned by the crash was re-homed onto a live survivor
  // (no admission limit here) — none lost, none unplaced.
  EXPECT_EQ(fs.queries_rehomed, 2);
  EXPECT_EQ(sys.unplaced_count(), 0);
  for (int i = 1; i <= 8; ++i) {
    common::EntityId home = sys.EntityOf(i);
    ASSERT_NE(home, common::kInvalidEntity);
    EXPECT_TRUE(sys.IsAlive(home));
  }
  // The crash dropped real traffic (heartbeats and/or tuples), counted.
  EXPECT_GT(sys.Collect().dropped_messages, 0);
  EXPECT_GT(sys.fault_injector()->dropped_node_down(), 0);
  ExpectCleanAudit(&sys);
}

/// The detection rule the heartbeat period implies: the monitor is swept
/// once per period, steady heartbeats never raise a suspicion, and a
/// crashed entity is suspected at the first sweep more than
/// System::kSuspectPeriods periods after its last heartbeat arrived, and
/// not before. Heartbeats are the only traffic (no streams, no queries),
/// so each arrives one link delay after it is sent.
TEST(FailoverSystemTest, SuspicionFollowsFromTheHeartbeatPeriod) {
  System sys(FaultConfig(/*num_entities=*/3));
  System::FailureDetectionConfig det;
  det.heartbeat_period_s = 0.1;
  const double period = det.heartbeat_period_s;
  const double until = 20.0;
  sys.EnableFailureDetection(det, until);
  MaybeEnableAudit(&sys, until);
  // Heartbeat and sweep instants, accumulated as the periodic timer does.
  std::vector<double> ticks;
  for (double t = period; t <= until; t += period) ticks.push_back(t);

  constexpr int kSteadyPeriods = 100;
  const double last_beat = ticks[kSteadyPeriods - 1];
  const double crash_at = last_beat + period / 2;
  sys.ScheduleCrash(1, crash_at, /*recover_at=*/50.0);
  sys.RunUntil(last_beat);
  EXPECT_EQ(sys.failure_stats().detections, 0);
  EXPECT_EQ(sys.num_alive(), 3);
  EXPECT_EQ(sys.failure_stats().heartbeat_messages, 3 * kSteadyPeriods);

  // The last heartbeat of entity 1 left at last_beat. Its one-way delay
  // is half the round trip of two heartbeat-sized messages: the
  // topology's link model is symmetric and there is no jitter.
  const common::SimNodeId gw = sys.entity_at(1)->gateway_node();
  const sim::LinkStats sent =
      sys.network()->link_stats(gw, sys.monitor_node());
  ASSERT_EQ(sent.messages, kSteadyPeriods);
  const int64_t beat_bytes = sent.bytes / sent.messages;
  const double arrived =
      last_beat + sys.network()->RoundTripS(gw, sys.monitor_node(),
                                            beat_bytes, beat_bytes) /
                      2;
  ASSERT_LT(arrived, crash_at);
  size_t suspect = kSteadyPeriods;
  while (!(ticks[suspect] - arrived > System::kSuspectPeriods * period)) {
    ++suspect;
  }
  for (size_t k = kSteadyPeriods; k < suspect; ++k) {
    sys.RunUntil(ticks[k]);
    EXPECT_TRUE(sys.IsAlive(1)) << "suspected early, at t=" << ticks[k];
  }
  sys.RunUntil(ticks[suspect]);
  EXPECT_FALSE(sys.IsAlive(1));
  const System::FailureStats& fs = sys.failure_stats();
  EXPECT_EQ(fs.detections, 1);
  EXPECT_EQ(fs.false_positive_evictions, 0);
  ASSERT_EQ(fs.detection_latency.count(), 1u);
  EXPECT_DOUBLE_EQ(fs.detection_latency.max(), ticks[suspect] - crash_at);
  EXPECT_EQ(sys.num_alive(), 2);
  ExpectCleanAudit(&sys);
}

TEST(FailoverSystemTest, SurvivorAtCapacityKeepsOrphansQueuedNotLost) {
  System::Config cfg = FaultConfig(/*num_entities=*/2);
  cfg.inject_faults = false;  // oracle failure path, no injected faults
  // Each entity: 2 processors x capacity 1.0, factor 1.1 -> admitted load
  // limit 2.2: exactly two load-1.0 queries fit, a third does not.
  cfg.admission.load_factor = 1.1;
  System sys(cfg);
  sys.AddStreams(SmallStreams(1));
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, 0)).ok());
  }
  EXPECT_EQ(sys.unplaced_count(), 0);

  // Entity 0 fails; the survivor is already at its admission limit, so
  // neither orphan can land — both must be queued and reported, not
  // silently dropped (the old FailEntity erased them and returned 0).
  auto rehomed = sys.FailEntity(0);
  ASSERT_TRUE(rehomed.ok());
  EXPECT_EQ(rehomed.value(), 0);
  EXPECT_EQ(sys.unplaced_count(), 2);
  EXPECT_EQ(sys.UnplacedQueries().size(), 2u);
  EXPECT_EQ(sys.Collect().unplaced_queries, 2);

  // Retrying without new capacity changes nothing...
  EXPECT_EQ(sys.TryRehomeUnplaced(), 0);
  EXPECT_EQ(sys.unplaced_count(), 2);
  // ...but once capacity frees up, a queued query lands.
  common::QueryId resident = common::kInvalidQuery;
  for (int i = 1; i <= 4; ++i) {
    if (sys.EntityOf(i) != common::kInvalidEntity) resident = i;
  }
  ASSERT_NE(resident, common::kInvalidQuery);
  ASSERT_TRUE(sys.RemoveQuery(resident).ok());
  EXPECT_EQ(sys.TryRehomeUnplaced(), 1);
  EXPECT_EQ(sys.unplaced_count(), 1);
  // A queued query can still be withdrawn explicitly.
  ASSERT_TRUE(sys.RemoveQuery(sys.UnplacedQueries()[0]).ok());
  EXPECT_EQ(sys.unplaced_count(), 0);
}

TEST(FailoverSystemTest, RepeatedCrashRecoverCyclesReadmitEntity) {
  System sys(FaultConfig(/*num_entities=*/3));
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  sys.EnableFailureDetection(FastDetection(), /*until=*/10.0);
  MaybeEnableAudit(&sys, /*until=*/6.0);
  sys.ScheduleCrash(1, 1.0, 2.0);
  sys.ScheduleCrash(1, 3.0, 4.0);
  sys.RunUntil(6.0);

  const System::FailureStats& fs = sys.failure_stats();
  // Both crash windows detected; both recoveries re-admitted the entity
  // via its resumed heartbeats.
  EXPECT_GE(fs.detections, 2);
  EXPECT_GE(fs.readmissions, 2);
  EXPECT_EQ(fs.detection_latency.count(), static_cast<size_t>(fs.detections) -
                                              fs.false_positive_evictions);
  EXPECT_TRUE(sys.IsAlive(1));
  EXPECT_EQ(sys.num_alive(), 3);
  // No query was lost across the cycles.
  EXPECT_EQ(sys.unplaced_count(), 0);
  for (int i = 1; i <= 6; ++i) {
    ASSERT_NE(sys.EntityOf(i), common::kInvalidEntity);
    EXPECT_TRUE(sys.IsAlive(sys.EntityOf(i)));
  }
  ExpectCleanAudit(&sys);
}

TEST(FailoverSystemTest, FalsePositiveEvictionSelfHealsViaHeartbeat) {
  System sys(FaultConfig(/*num_entities=*/3));
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  sys.EnableFailureDetection(FastDetection(), /*until=*/10.0);
  MaybeEnableAudit(&sys, /*until=*/4.0);
  ASSERT_NE(sys.monitor_node(), common::kInvalidSimNode);
  common::SimNodeId gw = sys.entity_at(1)->gateway_node();

  // Partition only the heartbeat path of entity 1: the entity itself is
  // healthy, but the monitor goes deaf to it.
  sys.fault_injector()->Partition(gw, sys.monitor_node());
  sys.RunUntil(2.0);
  const System::FailureStats& fs = sys.failure_stats();
  EXPECT_GE(fs.false_positive_evictions, 1);
  EXPECT_FALSE(sys.IsAlive(1));
  // Its queries moved to the survivors anyway (safety first).
  for (int i = 1; i <= 6; ++i) {
    if (sys.EntityOf(i) != common::kInvalidEntity) {
      EXPECT_TRUE(sys.IsAlive(sys.EntityOf(i)));
    }
  }

  // Heal the partition: the next heartbeat that gets through re-admits
  // the entity — a false suspicion is never a permanent eviction.
  sys.fault_injector()->Heal(gw, sys.monitor_node());
  sys.RunUntil(4.0);
  EXPECT_GE(fs.readmissions, 1);
  EXPECT_TRUE(sys.IsAlive(1));
  EXPECT_EQ(sys.num_alive(), 3);
  EXPECT_EQ(sys.unplaced_count(), 0);
  ExpectCleanAudit(&sys);
}

TEST(FailoverSystemTest, NeverEvictsLastAliveEntity) {
  System sys(FaultConfig(/*num_entities=*/2));
  sys.AddStreams(SmallStreams(1));
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(2, 0)).ok());
  sys.EnableFailureDetection(FastDetection(), /*until=*/10.0);
  MaybeEnableAudit(&sys, /*until=*/5.0);
  // Both entities go silent: one eviction is allowed, the survivor must
  // be spared no matter how late its heartbeats are.
  sys.ScheduleCrash(0, 1.0, 50.0);
  sys.ScheduleCrash(1, 1.0, 50.0);
  sys.RunUntil(5.0);
  EXPECT_EQ(sys.num_alive(), 1);
  EXPECT_GE(sys.failure_stats().skipped_last_alive, 1);
  ExpectCleanAudit(&sys);
}

TEST(FailoverSystemTest, ReliableDisseminationSurvivesLossAndDuplication) {
  System::Config cfg = FaultConfig(/*num_entities=*/2);
  cfg.faults.loss_probability = 0.2;
  cfg.faults.duplication_probability = 0.1;
  cfg.dissemination.reliable = true;
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(2, 1)).ok());
  MaybeEnableAudit(&sys, /*until=*/5.0);
  sys.GenerateTraffic(1.0);
  sys.RunUntil(5.0);  // generous tail so every retry chain resolves

  SystemMetrics m = sys.Collect();
  EXPECT_GT(m.results, 0);
  EXPECT_GT(m.dropped_messages, 0);
  auto* diss = sys.disseminator();
  // Loss at 20% forced retransmissions, and retries/duplicates were
  // deduplicated instead of double-delivered.
  EXPECT_GT(diss->retries_count(), 0);
  EXPECT_GT(diss->duplicates_suppressed_count(), 0);
  // Every reliable send was resolved: acked or counted as failed.
  EXPECT_EQ(diss->pending_reliable_count(), 0u);
  ExpectCleanAudit(&sys);
}

TEST(FailoverSystemTest, ReliableClientResultsAreExactlyOnceUnderLoss) {
  System::Config cfg = FaultConfig(/*num_entities=*/2);
  cfg.faults.loss_probability = 0.2;
  cfg.num_clients = 2;
  cfg.reliable_results = true;
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(2, 1)).ok());
  MaybeEnableAudit(&sys, /*until=*/5.0);
  sys.GenerateTraffic(1.0);
  sys.RunUntil(5.0);

  SystemMetrics m = sys.Collect();
  ASSERT_GT(m.results, 0);
  // Dedup caps deliveries at one per result; retries guarantee each
  // result is either delivered or counted as failed — never silent.
  EXPECT_LE(m.client_results, m.results);
  EXPECT_GE(m.client_results + sys.result_delivery_failures(), m.results);
  EXPECT_GT(sys.result_retries(), 0);
  // At 20% loss with 4 retries, nearly everything gets through.
  EXPECT_GT(m.client_results, m.results * 9 / 10);
  ExpectCleanAudit(&sys);
}

TEST(FailoverSystemTest, LossFreeReliableSendsNeverRetransmit) {
  // WAN round trips grow with distance; each send's first timeout follows
  // its own link's, so with nothing lost, nothing is retransmitted —
  // including results to clients far across the world.
  System::Config cfg = FaultConfig(/*num_entities=*/6);
  cfg.dissemination.reliable = true;
  cfg.num_clients = 4;
  cfg.reliable_results = true;
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  double longest = 0.0;
  for (int e = 0; e < sys.num_entities(); ++e) {
    for (int c = 0; c < cfg.num_clients; ++c) {
      longest = std::max(longest, sys.network()->RoundTripS(
                                      sys.entity_at(e)->gateway_node(),
                                      sys.client_node(c), 100, 16));
    }
  }
  ASSERT_GT(longest, 0.05);  // beyond a fixed 50 ms timeout
  sys.GenerateTraffic(1.0);
  sys.RunUntil(3.0);

  SystemMetrics m = sys.Collect();
  ASSERT_GT(m.results, 0);
  EXPECT_EQ(m.client_results, m.results);
  EXPECT_EQ(sys.disseminator()->retries_count(), 0);
  EXPECT_EQ(sys.disseminator()->duplicates_suppressed_count(), 0);
  EXPECT_EQ(sys.result_retries(), 0);
  EXPECT_EQ(sys.result_duplicates(), 0);
  EXPECT_EQ(sys.disseminator()->pending_reliable_count(), 0u);
}

// ---------------------------------------------------------------------------
// Declustered placement map + parallel crash recovery (fault domains).

System::Config MapConfig(int num_entities, int num_domains,
                         bool inject = false) {
  System::Config cfg = FaultConfig(num_entities);
  cfg.inject_faults = inject;
  cfg.topology.num_fault_domains = num_domains;
  cfg.allocation = AllocationMode::kPlacementMap;
  return cfg;
}

/// Steps the simulation in small increments until every query is placed;
/// returns the simulated instant recovery completed (or `limit`).
double RecoveryCompletionTime(System* sys, double limit) {
  while (sys->now() < limit && sys->unplaced_count() > 0) {
    sys->RunUntil(sys->now() + 0.005);
  }
  return sys->now();
}

TEST(FailoverSystemTest, PlacementMapFailoverFansOutToStandbysInParallel) {
  System sys(MapConfig(/*num_entities=*/8, /*num_domains=*/4));
  sys.AddStreams(SmallStreams(2));
  const int kQueries = 48;
  for (int i = 1; i <= kQueries; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2, /*load=*/0.1)).ok());
  }
  ASSERT_NE(sys.placement_map(), nullptr);
  // Every home is the map's choice for that query (audited too, below).
  Auditor* auditor = sys.EnableAudit(/*period_s=*/0.01, /*until=*/5.0);
  std::vector<common::QueryId> orphans;
  for (int i = 1; i <= kQueries; ++i) {
    if (sys.EntityOf(i) == 0) orphans.push_back(i);
  }
  ASSERT_GT(orphans.size(), 0u);

  // Declustered eviction is asynchronous: nothing lands in the FailEntity
  // call itself; the orphans are queued (conservation holds throughout)
  // and fan out to their precomputed standbys over the network.
  auto rehomed = sys.FailEntity(0);
  ASSERT_TRUE(rehomed.ok());
  EXPECT_EQ(rehomed.value(), 0);
  EXPECT_EQ(sys.unplaced_count(), static_cast<int>(orphans.size()));

  double done = RecoveryCompletionTime(&sys, /*limit=*/5.0);
  EXPECT_LT(done, 5.0);
  EXPECT_EQ(sys.unplaced_count(), 0);
  const System::FailureStats& fs = sys.failure_stats();
  EXPECT_EQ(fs.queries_rehomed, static_cast<int>(orphans.size()));
  EXPECT_GT(fs.rehome_batches, 1);  // several survivors, several batches
  // Declustering: the orphans scattered across multiple survivors instead
  // of piling onto one neighbor.
  std::set<common::EntityId> new_homes;
  for (common::QueryId q : orphans) {
    common::EntityId home = sys.EntityOf(q);
    ASSERT_NE(home, common::kInvalidEntity);
    EXPECT_TRUE(sys.IsAlive(home));
    new_homes.insert(home);
  }
  EXPECT_GE(new_homes.size(), 2u);
  sys.RunUntil(sys.now() + 0.1);  // at least one more audit sweep
  EXPECT_GT(auditor->sweeps(), 0);
  EXPECT_EQ(auditor->violations(), 0);
}

TEST(FailoverSystemTest, PlacementMapRehomeBatchesSurviveLossAndDuplication) {
  System::Config cfg = MapConfig(/*num_entities=*/8, /*num_domains=*/4,
                                 /*inject=*/true);
  cfg.faults.loss_probability = 0.2;
  cfg.faults.duplication_probability = 0.1;
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  const int kQueries = 48;
  for (int i = 1; i <= kQueries; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2, /*load=*/0.1)).ok());
  }
  Auditor* auditor = sys.EnableAudit(/*period_s=*/0.01, /*until=*/5.0);
  int orphans = 0;
  for (int i = 1; i <= kQueries; ++i) {
    if (sys.EntityOf(i) == 0) ++orphans;
  }
  ASSERT_GT(orphans, 0);

  // The eviction sends every batch at once; the first copies are all lost,
  // so each batch is retransmitted on any fault seed, and later copies and
  // acks face the run's loss and duplication.
  sim::FaultInjector* faults = sys.fault_injector();
  for (int e = 1; e < sys.num_entities(); ++e) {
    faults->SetLinkLossProbability(
        sys.rehome_node(), sys.entity_at(e)->gateway_node(), 1.0);
  }
  ASSERT_TRUE(sys.FailEntity(0).ok());
  for (int e = 1; e < sys.num_entities(); ++e) {
    faults->SetLinkLossProbability(
        sys.rehome_node(), sys.entity_at(e)->gateway_node(), -1.0);
  }
  RecoveryCompletionTime(&sys, /*limit=*/5.0);
  // Lost batches and lost acks were retransmitted, and duplicate batches
  // installed nothing twice: every orphan landed exactly once.
  EXPECT_EQ(sys.unplaced_count(), 0);
  const System::FailureStats& fs = sys.failure_stats();
  EXPECT_GE(fs.rehome_batch_retries, fs.rehome_batches);
  EXPECT_EQ(fs.queries_rehomed, orphans);
  int hosted = 0;
  for (int e = 0; e < sys.num_entities(); ++e) {
    hosted += static_cast<int>(sys.entity_at(e)->query_count());
  }
  EXPECT_EQ(hosted, kQueries);
  // Past the longest retry chain (31 first timeouts), survivors' acks
  // have settled the batches: not every batch ran out of retries.
  sys.RunUntil(sys.now() + 2.0);
  EXPECT_LT(sys.failure_stats().rehome_batches_cancelled, fs.rehome_batches);
  EXPECT_GT(auditor->sweeps(), 0);
  EXPECT_EQ(auditor->violations(), 0);
}

TEST(FailoverSystemTest, PlacementMapParallelRecoveryBeatsSerialChain) {
  auto recover = [](bool parallel) {
    System::Config cfg = MapConfig(/*num_entities=*/8, /*num_domains=*/4);
    cfg.recovery.parallel = parallel;
    System sys(cfg);
    sys.AddStreams(SmallStreams(2));
    for (int i = 1; i <= 64; ++i) {
      EXPECT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2, /*load=*/0.1)).ok());
    }
    sys.RunUntil(0.5);
    EXPECT_TRUE(sys.FailEntity(0).ok());
    double done = RecoveryCompletionTime(&sys, /*limit=*/30.0);
    EXPECT_EQ(sys.unplaced_count(), 0);
    return done - 0.5;
  };
  double parallel_time = recover(true);
  double serial_time = recover(false);
  // Survivors re-install their batches concurrently, so the parallel
  // fan-out finishes well ahead of the single global re-home chain.
  EXPECT_LT(parallel_time, serial_time);
}

TEST(FailoverSystemTest, CorrelatedDomainCrashLosesNoQueries) {
  System sys(MapConfig(/*num_entities=*/8, /*num_domains=*/4,
                       /*inject=*/true));
  sys.AddStreams(SmallStreams(2));
  const int kQueries = 32;
  for (int i = 1; i <= kQueries; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2, /*load=*/0.1)).ok());
  }
  sys.EnableFailureDetection(FastDetection(), /*until=*/10.0);
  sys.EnableAudit(/*period_s=*/0.05, /*until=*/6.0);
  sys.GenerateTraffic(4.0);
  // Fault domain 0 — entities 0 and 1 — dies as one correlated event.
  sys.ScheduleDomainCrash(0, /*crash_at=*/1.0, /*recover_at=*/50.0);
  sys.RunUntil(6.0);

  EXPECT_EQ(sys.fault_injector()->correlated_crash_events(), 1);
  EXPECT_FALSE(sys.IsAlive(0));
  EXPECT_FALSE(sys.IsAlive(1));
  EXPECT_EQ(sys.num_alive(), 6);
  EXPECT_GE(sys.failure_stats().detections, 2);
  // Zero queries lost: everything admitted is placed on a survivor (the
  // conservation + replica audits swept the whole recovery window).
  EXPECT_EQ(sys.unplaced_count(), 0);
  for (int i = 1; i <= kQueries; ++i) {
    common::EntityId home = sys.EntityOf(i);
    ASSERT_NE(home, common::kInvalidEntity) << "query " << i << " lost";
    EXPECT_TRUE(sys.IsAlive(home));
  }
  ExpectCleanAudit(&sys);
}

TEST(FailoverSystemTest, PlacementMapRecoverySurvivesConcurrentChurn) {
  // Queries are added, withdrawn, and migrated while a crash -> re-home
  // pipeline is still in flight; the conservation and replica audits
  // sweep throughout and nothing may be lost or double-placed.
  System sys(MapConfig(/*num_entities=*/8, /*num_domains=*/4));
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 40; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2, /*load=*/0.1)).ok());
  }
  sys.EnableAudit(/*period_s=*/0.005, /*until=*/5.0);
  sys.RunUntil(0.1);
  ASSERT_TRUE(sys.FailEntity(0).ok());
  ASSERT_GT(sys.unplaced_count(), 0);

  // Mid-recovery churn, batch installs still in flight:
  std::vector<common::QueryId> queued = sys.UnplacedQueries();
  ASSERT_TRUE(sys.RemoveQuery(queued[0]).ok());  // withdraw an orphan
  common::QueryId placed = common::kInvalidQuery;
  for (int i = 1; i <= 40; ++i) {
    if (sys.EntityOf(i) != common::kInvalidEntity) {
      placed = i;
      break;
    }
  }
  ASSERT_NE(placed, common::kInvalidQuery);
  ASSERT_TRUE(sys.RemoveQuery(placed).ok());  // withdraw a resident
  for (int i = 100; i < 106; ++i) {  // admit new queries mid-recovery
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2, /*load=*/0.1)).ok());
  }
  // Move one live query off its map target (the off-map ledger excuses
  // explicit migrations from the replica-placement audit).
  common::QueryId mover = common::kInvalidQuery;
  for (int i = 1; i <= 40; ++i) {
    if (i != placed && sys.EntityOf(i) != common::kInvalidEntity) {
      mover = i;
      break;
    }
  }
  ASSERT_NE(mover, common::kInvalidQuery);
  common::EntityId away = sys.EntityOf(mover) == 7 ? 6 : 7;
  ASSERT_TRUE(sys.MigrateQuery(mover, away).ok());

  double done = RecoveryCompletionTime(&sys, /*limit=*/5.0);
  EXPECT_LT(done, 5.0);
  EXPECT_EQ(sys.unplaced_count(), 0);
  // The two withdrawn queries are gone; every other query — original,
  // re-homed, migrated, or admitted mid-recovery — is placed and alive.
  EXPECT_EQ(sys.EntityOf(queued[0]), common::kInvalidEntity);
  EXPECT_EQ(sys.EntityOf(placed), common::kInvalidEntity);
  for (int i = 1; i <= 40; ++i) {
    if (i == placed || i == queued[0]) continue;
    ASSERT_NE(sys.EntityOf(i), common::kInvalidEntity) << "query " << i;
    EXPECT_TRUE(sys.IsAlive(sys.EntityOf(i)));
  }
  for (int i = 100; i < 106; ++i) {
    ASSERT_NE(sys.EntityOf(i), common::kInvalidEntity) << "query " << i;
  }
  EXPECT_EQ(sys.EntityOf(mover), away);
  ExpectCleanAudit(&sys);
}

TEST(FailoverSystemTest, EvictionCancelsResultRetries) {
  // Satellite of the declustered-recovery work: an evicted entity's
  // reliable-result retry timers must be cancelled at eviction instead of
  // retransmitting from a dead process until max_retries.
  System::Config cfg = FaultConfig(/*num_entities=*/3);
  cfg.num_clients = 1;
  cfg.reliable_results = true;
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 3; ++i) {  // round robin: query i -> entity i-1
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  // Sever entity 0's gateway from the only client: its results go
  // unacked and retry while the other entities deliver normally.
  sys.fault_injector()->Partition(sys.entity_at(0)->gateway_node(),
                                  sys.client_node(0));
  sys.GenerateTraffic(1.0);
  sys.RunUntil(1.5);
  EXPECT_GT(sys.result_retries(), 0);
  EXPECT_EQ(sys.result_retries_cancelled(), 0);

  ASSERT_TRUE(sys.FailEntity(0).ok());
  EXPECT_GT(sys.result_retries_cancelled(), 0);
  int64_t retries_at_eviction = sys.result_retries();
  int64_t failures_at_eviction = sys.result_delivery_failures();
  sys.RunUntil(6.0);
  // The cancelled sends never fire again: no late retransmissions or
  // delivery-failure verdicts from entity 0's orphaned timers. Traffic
  // ended before the eviction and healthy acks beat the retry timeout,
  // so any counter movement here could only come from orphaned timers.
  EXPECT_EQ(sys.result_retries(), retries_at_eviction);
  EXPECT_EQ(sys.result_delivery_failures(), failures_at_eviction);
}

TEST(FailoverSystemTest, FaultFreeRunsIdenticalWithAndWithoutFaultLayer) {
  auto run = [](bool inject) {
    System::Config cfg = FaultConfig(/*num_entities=*/2);
    cfg.inject_faults = inject;  // injector attached but all-zero rates
    System sys(cfg);
    sys.AddStreams(SmallStreams(2));
    EXPECT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
    EXPECT_TRUE(sys.SubmitQuery(WideQuery(2, 1)).ok());
    sys.GenerateTraffic(1.0);
    sys.RunUntil(2.0);
    SystemMetrics m = sys.Collect();
    return std::make_tuple(m.results, m.wan_bytes, m.lan_bytes,
                           m.latency.p50(), m.delivered_tuples);
  };
  // An attached injector with zero fault rates changes nothing observable.
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace dsps::system
