#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <tuple>
#include <vector>

#include "system/auditor.h"
#include "system/system.h"
#include "workload/stream_gen.h"

namespace dsps::system {
namespace {

/// CI runs this binary under a seed matrix (DSPS_FAULT_SEED=1,2,3): the
/// fault-driven assertions below must hold for any schedule.
uint64_t FaultSeed() {
  const char* s = std::getenv("DSPS_FAULT_SEED");
  return s == nullptr ? 1 : std::strtoull(s, nullptr, 10);
}

void MaybeEnableAudit(System* sys, double until) {
  double period = AuditIntervalFromEnv();
  if (period > 0) sys->EnableAudit(period, until);
}

tenant::TenantSpec Spec(tenant::TenantId id, const char* name, double weight,
                        double slo = 0.0, int quota = 0) {
  tenant::TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.weight = weight;
  spec.latency_slo_s = slo;
  spec.max_standing_queries = quota;
  return spec;
}

/// Two single-processor entities with unit capacity: with
/// admission.load_factor = 1, each entity holds exactly one unit of
/// declared load (the committed fragment load only tightens the limit).
System::Config TightConfig() {
  System::Config cfg;
  cfg.topology.num_entities = 2;
  cfg.topology.processors_per_entity = 1;
  cfg.topology.num_sources = 1;
  cfg.allocation = AllocationMode::kRoundRobin;
  cfg.seed = 11;
  cfg.tenants = {Spec(1, "gold", 3.0), Spec(2, "bronze", 1.0)};
  cfg.admission.load_factor = 1.0;
  return cfg;
}

std::vector<std::unique_ptr<workload::StreamGen>> SmallStreams(
    int n, double rate = 100.0) {
  workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = rate;
  interest::StreamCatalog scratch;
  common::Rng rng(3);
  return workload::MakeTickerStreams(n, tcfg, &scratch, &rng);
}

engine::Query TaggedQuery(common::QueryId id, tenant::TenantId tenant,
                          common::StreamId stream, double load) {
  engine::Query q;
  q.id = id;
  q.tenant = tenant;
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

TEST(TenantSystemTest, PassthroughWithoutTenantsAllocatesNothing) {
  System::Config cfg = TightConfig();
  cfg.tenants.clear();
  System sys(cfg);
  EXPECT_EQ(sys.admission(), nullptr);
  EXPECT_EQ(sys.tenant_registry(), nullptr);
  EXPECT_TRUE(sys.QueuedAdmissions().empty());
  EXPECT_EQ(sys.DrainAdmissionQueue(), 0);
  EXPECT_EQ(sys.TenantResults(0), 0);
  EXPECT_EQ(sys.TenantLatency(0), nullptr);
  EXPECT_DOUBLE_EQ(sys.TenantRecentP95(0), 0.0);
  EXPECT_DOUBLE_EQ(sys.TenantSloAttainment(0), 1.0);
}

// Satellite regression: an entity exactly at its admission limit must
// reject ANY further positive load — however small — identically in
// debug and release builds. Before the >= guard, a load tiny enough that
// admitted + load rounded back to the limit was admitted or rejected
// depending on rounding mode and optimization level.
TEST(TenantSystemTest, AtCapacityRejectionIsDeterministicScalarPath) {
  System::Config cfg = TightConfig();
  cfg.tenants.clear();  // the capacity gate without tenants
  cfg.topology.num_entities = 1;
  cfg.admission.load_factor = 1.0;
  System sys(cfg);
  sys.AddStreams(SmallStreams(1));
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(1, 0, 0, 1.0)).ok());
  // The entity now carries declared load == limit (plus committed
  // fragment load): epsilon loads must bounce, deterministically.
  for (double load : {1e-15, 1e-9, 0.001, 1.0}) {
    common::Status st = sys.SubmitQuery(TaggedQuery(2, 0, 0, load));
    ASSERT_FALSE(st.ok()) << "load " << load << " admitted over the limit";
    EXPECT_EQ(st.code(), common::StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(sys.EntityOf(2), common::kInvalidEntity);
}

TEST(TenantSystemTest, SubmitQueriesMatchesSerialOnTenantPath) {
  // With an admission controller active the batched path must fall back
  // to strict serial order (arbitration feeds back into the next
  // verdict): tallies, homes, and controller counters all match a twin
  // system submitted one query at a time.
  auto make = [] {
    System::Config cfg = TightConfig();
    cfg.admission.allow_degrade = false;
    cfg.admission.max_queued_per_tenant = 0;
    return cfg;
  };
  System serial(make());
  serial.AddStreams(SmallStreams(1));
  System batch(make());
  batch.AddStreams(SmallStreams(1));
  std::vector<engine::Query> queries;
  for (int i = 1; i <= 8; ++i) {
    queries.push_back(TaggedQuery(i, 1 + i % 2, 0, 1.0));
  }
  int64_t ok = 0, refused = 0;
  for (const engine::Query& q : queries) {
    common::Status st = serial.SubmitQuery(q);
    st.ok() ? ++ok : ++refused;
  }
  ASSERT_GT(refused, 0);
  System::BatchSubmitResult result = batch.SubmitQueries(queries);
  EXPECT_EQ(result.admitted, ok);
  EXPECT_EQ(result.rejected, refused);
  EXPECT_EQ(result.failed, 0);
  for (const engine::Query& q : queries) {
    EXPECT_EQ(serial.EntityOf(q.id), batch.EntityOf(q.id)) << q.id;
  }
  for (tenant::TenantId t : {1, 2}) {
    EXPECT_EQ(serial.admission()->counters(t).admitted,
              batch.admission()->counters(t).admitted);
    EXPECT_EQ(serial.admission()->counters(t).rejected,
              batch.admission()->counters(t).rejected);
  }
  EXPECT_TRUE(batch.admission()->CheckConservation().ok());
}

TEST(TenantSystemTest, AtCapacityRejectionIsDeterministicTenantPath) {
  System::Config cfg = TightConfig();
  cfg.topology.num_entities = 1;
  cfg.admission.allow_degrade = false;
  cfg.admission.max_queued_per_tenant = 0;  // capacity refusals reject
  System sys(cfg);
  sys.AddStreams(SmallStreams(1));
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(1, 1, 0, 1.0)).ok());
  for (double load : {1e-15, 1e-9, 0.001}) {
    common::Status st = sys.SubmitQuery(TaggedQuery(2, 2, 0, load));
    ASSERT_FALSE(st.ok()) << "load " << load << " admitted over the limit";
  }
  EXPECT_EQ(sys.admission()->counters(2).rejected, 3);
  EXPECT_TRUE(sys.admission()->CheckConservation().ok());
}

TEST(TenantSystemTest, CapacityRefusalQueuesThenDrainsOnRelease) {
  System::Config cfg = TightConfig();
  cfg.topology.num_entities = 1;
  cfg.admission.allow_degrade = false;
  System sys(cfg);
  sys.AddStreams(SmallStreams(1));
  // Gold fills the single entity; the bronze refusal queues (bounded
  // wait) rather than rejecting.
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(1, 1, 0, 1.0)).ok());
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(3, 2, 0, 1.0)).ok());
  EXPECT_EQ(sys.QueuedAdmissions(), (std::vector<common::QueryId>{3}));
  EXPECT_EQ(sys.admission()->counters(2).queued_now, 1);
  // Resubmitting a queued id reports it as pending, not as a new query.
  EXPECT_EQ(sys.SubmitQuery(TaggedQuery(3, 2, 0, 1.0)).code(),
            common::StatusCode::kAlreadyExists);
  // Withdrawal releases the entity: the queued submission lands.
  ASSERT_TRUE(sys.RemoveQuery(1).ok());
  EXPECT_TRUE(sys.QueuedAdmissions().empty());
  ASSERT_NE(sys.EntityOf(3), common::kInvalidEntity);
  const tenant::AdmissionController::Counters& c = sys.admission()->counters(2);
  EXPECT_EQ(c.admitted, 1);
  EXPECT_EQ(c.queued_now, 0);
  EXPECT_EQ(c.standing, 1);
  EXPECT_TRUE(sys.admission()->CheckConservation().ok());
}

TEST(TenantSystemTest, QueuedSubmissionEvictedAtDeadline) {
  System::Config cfg = TightConfig();
  cfg.admission.max_queue_wait_s = 0.5;
  cfg.admission.allow_degrade = false;
  System sys(cfg);
  sys.AddStreams(SmallStreams(1));
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(1, 1, 0, 1.0)).ok());
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(2, 1, 0, 1.0)).ok());
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(3, 2, 0, 1.0)).ok());
  EXPECT_EQ(sys.QueuedAdmissions().size(), 1u);
  // Nobody releases capacity: the bounded wait expires and the
  // submission is evicted from the queue — visible, never silently lost.
  sys.RunUntil(1.0);
  EXPECT_TRUE(sys.QueuedAdmissions().empty());
  const tenant::AdmissionController::Counters& c = sys.admission()->counters(2);
  EXPECT_EQ(c.evicted, 1);
  EXPECT_EQ(c.standing, 0);
  EXPECT_EQ(sys.EntityOf(3), common::kInvalidEntity);
  EXPECT_TRUE(sys.admission()->CheckConservation().ok());
}

TEST(TenantSystemTest, OverFairShareTenantDegradesToCoarserBox) {
  System::Config cfg = TightConfig();
  System sys(cfg);
  sys.AddStreams(SmallStreams(1));
  // Bronze hogs both entities at 0.6 load each (remaining room: 0.4).
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(1, 2, 0, 0.6)).ok());
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(2, 2, 0, 0.6)).ok());
  // A third bronze query at 0.6 is refused and bronze is far over its
  // fair share — it sheds to the degraded form (load 0.3), which fits.
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(3, 2, 0, 0.6)).ok());
  const tenant::AdmissionController::Counters& c = sys.admission()->counters(2);
  EXPECT_EQ(c.degraded, 1);
  EXPECT_EQ(c.admitted, 2);
  EXPECT_TRUE(sys.QueuedAdmissions().empty());
  ASSERT_NE(sys.EntityOf(3), common::kInvalidEntity);
  // The installed copy carries the degraded load and a shrunk box.
  EXPECT_NEAR(c.standing_load, 0.6 + 0.6 + 0.3, 1e-9);
  EXPECT_TRUE(sys.admission()->CheckConservation().ok());
}

TEST(TenantSystemTest, StandingQueryQuotaRejects) {
  System::Config cfg = TightConfig();
  cfg.tenants = {Spec(1, "gold", 3.0), Spec(2, "bronze", 1.0, 0.0,
                                            /*quota=*/1)};
  cfg.admission.load_factor = 100.0;  // capacity never the binding limit
  System sys(cfg);
  sys.AddStreams(SmallStreams(1));
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(1, 2, 0, 0.1)).ok());
  common::Status st = sys.SubmitQuery(TaggedQuery(2, 2, 0, 0.1));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), common::StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("bronze"), std::string::npos);
  EXPECT_EQ(sys.admission()->counters(2).rejected, 1);
  // Gold is unaffected by bronze's quota.
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(3, 1, 0, 0.1)).ok());
  // Withdrawing the standing query frees the quota slot.
  ASSERT_TRUE(sys.RemoveQuery(1).ok());
  ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(4, 2, 0, 0.1)).ok());
  EXPECT_TRUE(sys.admission()->CheckConservation().ok());
}

// Satellite regression (extends the PR 3 self-heal tests): a crash,
// detection-driven eviction, re-home, recovery, and re-admission cycle
// must not double-count re-homed queries against tenant quotas — the
// internal re-submissions carry ids already on the conservation ledger
// and bypass the controller.
TEST(TenantSystemTest, ReadmissionUnderQuotasDoesNotDoubleCount) {
  System::Config cfg = TightConfig();
  cfg.topology.num_entities = 4;
  cfg.topology.processors_per_entity = 2;
  cfg.topology.num_sources = 2;
  // Quotas exactly as tight as the workload: any double-count on the
  // re-home path would push a tenant over quota and break conservation.
  cfg.tenants = {Spec(1, "gold", 3.0, 0.0, /*quota=*/4),
                 Spec(2, "bronze", 1.0, 0.0, /*quota=*/4)};
  cfg.admission.load_factor = 100.0;
  cfg.inject_faults = true;
  cfg.faults.seed = FaultSeed();
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(
        sys.SubmitQuery(TaggedQuery(i, 1 + (i % 2), i % 2, 0.05)).ok());
  }
  System::FailureDetectionConfig det;
  det.heartbeat_period_s = 0.1;
  det.timeout_s = 0.35;
  det.sweep_period_s = 0.1;
  sys.EnableFailureDetection(det, /*until=*/6.0);
  // The tenant_conservation audit recounts standing queries from the
  // live maps every sweep; a double-count dies here, not downstream.
  Auditor* auditor = sys.EnableAudit(/*period_s=*/0.25, /*until=*/5.5);
  MaybeEnableAudit(&sys, 5.5);
  sys.GenerateTraffic(4.0);
  sys.ScheduleCrash(1, /*crash_at=*/1.0, /*recover_at=*/2.5);
  sys.RunUntil(6.0);

  EXPECT_GE(sys.failure_stats().detections, 1);
  EXPECT_GE(sys.failure_stats().readmissions, 1);
  EXPECT_TRUE(sys.IsAlive(1));
  EXPECT_EQ(sys.unplaced_count(), 0);
  for (tenant::TenantId t : {1, 2}) {
    const tenant::AdmissionController::Counters& c =
        sys.admission()->counters(t);
    // 4 submissions each, all admitted exactly once — the crash/re-home/
    // readmit cycle changed homes, never the ledger.
    EXPECT_EQ(c.submitted, 4) << "tenant " << t;
    EXPECT_EQ(c.admitted, 4) << "tenant " << t;
    EXPECT_EQ(c.standing, 4) << "tenant " << t;
    EXPECT_EQ(c.rejected, 0) << "tenant " << t;
  }
  EXPECT_TRUE(sys.admission()->CheckConservation().ok());
  EXPECT_GT(auditor->sweeps(), 0);
  EXPECT_EQ(auditor->violations(), 0);
}

TEST(TenantSystemTest, ElasticityGrowsAndShrinksUnderPlacementMapAudit) {
  System::Config cfg = TightConfig();
  cfg.topology.num_entities = 4;
  cfg.topology.num_fault_domains = 2;
  cfg.allocation = AllocationMode::kPlacementMap;
  cfg.admission.load_factor = 100.0;
  System sys(cfg);
  sys.AddStreams(SmallStreams(1, /*rate=*/400.0));
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(TaggedQuery(i, 1 + (i % 2), 0, 0.2)).ok());
  }
  // Pick watermarks relative to the observed committed load so the test
  // is robust to the fragmenter's cost model: current utilization is
  // "hot", half of it is mid-band, near-zero is "cold".
  double committed = 0.0;
  int loaded_entity = -1;
  for (int e = 0; e < sys.num_entities(); ++e) {
    double load = sys.entity_at(e)->TotalCommittedLoad();
    if (load > committed) {
      committed = load;
      loaded_entity = e;
    }
  }
  ASSERT_GT(committed, 0.0);
  ASSERT_GE(loaded_entity, 0);
  int before = sys.entity_at(loaded_entity)->num_processors();
  tenant::ElasticityManager::Config ecfg;
  ecfg.high_watermark = committed / before * 0.5;  // currently hot
  ecfg.low_watermark = ecfg.high_watermark * 0.05;
  ecfg.max_processors = before + 1;
  // until=0: no periodic ticks — rounds are driven manually so the test
  // controls exactly how many observations each entity accumulates.
  sys.EnableElasticity(ecfg, /*period_s=*/1.0, /*until=*/0.0);
  EXPECT_EQ(sys.ElasticityRound(), 0);  // one hot round is a spike
  EXPECT_GE(sys.ElasticityRound(), 1);  // sustained: grow fires
  EXPECT_EQ(sys.entity_at(loaded_entity)->num_processors(), before + 1);
  EXPECT_GE(sys.elasticity_stats().grow_events, 1);
  // The grown entity keeps serving: traffic flows, results arrive, and
  // the placement-map + tenant invariants hold under audit.
  Auditor* auditor = sys.EnableAudit(/*period_s=*/0.5, /*until=*/0.0);
  EXPECT_EQ(auditor->RunOnce(), 0);
  sys.GenerateTraffic(1.0);
  sys.RunUntil(1.5);
  EXPECT_GT(sys.Collect().results, 0);
  EXPECT_EQ(auditor->RunOnce(), 0);
  // Withdraw everything: sustained cold rounds retire the processor.
  for (int i = 1; i <= 12; ++i) ASSERT_TRUE(sys.RemoveQuery(i).ok());
  EXPECT_EQ(sys.ElasticityRound(), 0);
  EXPECT_GE(sys.ElasticityRound(), 1);  // sustained: shrink fires
  EXPECT_EQ(sys.entity_at(loaded_entity)->num_processors(), before);
  EXPECT_GE(sys.elasticity_stats().shrink_events, 1);
  EXPECT_EQ(auditor->RunOnce(), 0);
  // Gateways are never retired: shrink stops at the floor.
  EXPECT_GE(sys.entity_at(loaded_entity)->num_processors(), 1);
}

TEST(TenantSystemTest, TenantRunsAreDeterministic) {
  auto run = [](uint64_t seed) {
    System::Config cfg = TightConfig();
    cfg.seed = seed;
    cfg.admission.max_queue_wait_s = 0.5;
    System sys(cfg);
    sys.AddStreams(SmallStreams(1));
    EXPECT_TRUE(sys.SubmitQuery(TaggedQuery(1, 1, 0, 1.0)).ok());
    EXPECT_TRUE(sys.SubmitQuery(TaggedQuery(2, 1, 0, 1.0)).ok());
    EXPECT_TRUE(sys.SubmitQuery(TaggedQuery(3, 2, 0, 1.0)).ok());
    sys.GenerateTraffic(1.5);
    sys.RunUntil(0.25);
    EXPECT_TRUE(sys.RemoveQuery(2).ok());  // drains query 3 mid-run
    sys.RunUntil(2.0);
    SystemMetrics m = sys.Collect();
    const tenant::AdmissionController::Counters& gold =
        sys.admission()->counters(1);
    const tenant::AdmissionController::Counters& bronze =
        sys.admission()->counters(2);
    return std::tuple(m.results, m.latency.count(), m.wan_bytes,
                      gold.admitted, bronze.admitted, bronze.queued_now,
                      sys.TenantResults(1), sys.TenantResults(2));
  };
  auto a = run(11);
  auto b = run(11);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dsps::system
