#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/operators.h"
#include "engine/plan.h"
#include "tenant/admission.h"
#include "tenant/elasticity.h"
#include "tenant/tenant.h"

namespace dsps::tenant {
namespace {

TEST(TenantRegistryTest, ImplicitTenantAlwaysPresent) {
  TenantRegistry reg;
  EXPECT_TRUE(reg.Contains(kImplicitTenant));
  EXPECT_EQ(reg.NameOf(kImplicitTenant), "t0");
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_DOUBLE_EQ(reg.total_weight(), 1.0);
  // Unknown ids resolve to the implicit defaults rather than failing.
  EXPECT_DOUBLE_EQ(reg.SpecOrDefault(42).weight, 1.0);
  EXPECT_EQ(reg.SpecOrDefault(42).max_standing_queries, 0);
}

TEST(TenantRegistryTest, RegisterNamesWeightsAndOverride) {
  TenantSpec gold;
  gold.id = 1;
  gold.name = "gold";
  gold.weight = 3.0;
  gold.latency_slo_s = 0.25;
  TenantSpec bronze;
  bronze.id = 2;  // no name: defaults to "t2"
  bronze.weight = 1.0;
  bronze.max_standing_queries = 4;
  TenantRegistry reg({gold, bronze});
  EXPECT_EQ(reg.size(), 3u);  // implicit + 2
  EXPECT_EQ(reg.NameOf(1), "gold");
  EXPECT_EQ(reg.NameOf(2), "t2");
  EXPECT_DOUBLE_EQ(reg.total_weight(), 1.0 + 3.0 + 1.0);
  EXPECT_EQ(reg.ids(), (std::vector<TenantId>{0, 1, 2}));
  // Re-registering replaces the spec and re-balances the weight sum.
  gold.weight = 5.0;
  reg.Register(gold);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_DOUBLE_EQ(reg.total_weight(), 1.0 + 5.0 + 1.0);
  // An explicit spec for id 0 overrides the implicit defaults.
  TenantSpec zero;
  zero.id = 0;
  zero.name = "system";
  zero.weight = 0.5;
  reg.Register(zero);
  EXPECT_EQ(reg.NameOf(0), "system");
  EXPECT_DOUBLE_EQ(reg.total_weight(), 0.5 + 5.0 + 1.0);
}

TenantRegistry TwoTenants(int quota_for_2 = 0) {
  TenantSpec gold;
  gold.id = 1;
  gold.weight = 3.0;
  TenantSpec bronze;
  bronze.id = 2;
  bronze.weight = 1.0;
  bronze.max_standing_queries = quota_for_2;
  return TenantRegistry({gold, bronze});
}

TEST(AdmissionControllerTest, QuotaGatesOnStandingNotAdmitted) {
  TenantRegistry reg = TwoTenants(/*quota_for_2=*/2);
  AdmissionController ctl(&reg, {});
  EXPECT_FALSE(ctl.QuotaExceeded(2));
  ctl.OnSubmitted(2);
  ctl.OnAdmitted(2, 1.0);
  EXPECT_FALSE(ctl.QuotaExceeded(2));
  // Queued submissions stand against the quota too: waiting in line is a
  // claim on capacity, not a free retry slot.
  ctl.OnSubmitted(2);
  ctl.OnQueued(2);
  EXPECT_TRUE(ctl.QuotaExceeded(2));
  // Eviction from the queue releases the claim.
  ctl.OnQueueEvicted(2);
  EXPECT_FALSE(ctl.QuotaExceeded(2));
  // Tenant 1 has no quota: never exceeded.
  for (int i = 0; i < 100; ++i) {
    ctl.OnSubmitted(1);
    ctl.OnAdmitted(1, 0.1);
  }
  EXPECT_FALSE(ctl.QuotaExceeded(1));
  EXPECT_TRUE(ctl.CheckConservation().ok());
}

TEST(AdmissionControllerTest, StateMachineConservation) {
  TenantRegistry reg = TwoTenants();
  AdmissionController ctl(&reg, {});
  // admitted, degraded, rejected, queued->admit, queued->evict, withdrawn.
  ctl.OnSubmitted(1);
  ctl.OnAdmitted(1, 2.0);
  ctl.OnSubmitted(1);
  ctl.OnDegraded(1, 1.0);
  ctl.OnSubmitted(1);
  ctl.OnRejected(1);
  ctl.OnSubmitted(1);
  ctl.OnQueued(1);
  ctl.OnDequeuedAdmit(1, 0.5, /*degraded=*/true);
  ctl.OnSubmitted(1);
  ctl.OnQueued(1);
  ctl.OnQueueEvicted(1);
  ctl.OnWithdrawn(1, 2.0);
  const AdmissionController::Counters& c = ctl.counters(1);
  EXPECT_EQ(c.submitted, 5);
  EXPECT_EQ(c.admitted, 1);
  EXPECT_EQ(c.degraded, 2);
  EXPECT_EQ(c.rejected, 1);
  EXPECT_EQ(c.evicted, 1);
  EXPECT_EQ(c.queued_now, 0);
  EXPECT_EQ(c.standing, 2);
  EXPECT_NEAR(c.standing_load, 1.0 + 0.5, 1e-12);
  EXPECT_NEAR(ctl.total_standing_load(), 1.5, 1e-12);
  EXPECT_TRUE(ctl.CheckConservation().ok());
}

TEST(AdmissionControllerTest, WeightedFairShareAndDrainOrder) {
  TenantRegistry reg = TwoTenants();  // weights: t0=1, gold(1)=3, bronze(2)=1
  AdmissionController ctl(&reg, {});
  // Equal absolute loads: bronze is over its (smaller) fair share first.
  ctl.OnSubmitted(1);
  ctl.OnAdmitted(1, 3.0);
  ctl.OnSubmitted(2);
  ctl.OnAdmitted(2, 3.0);
  // mine = (3+1)/1 = 4 > everyone = (6+1)/5 = 1.4 -> bronze over share.
  EXPECT_TRUE(ctl.OverFairShare(2, 1.0));
  // gold: mine = (3+1)/3 = 1.33 < 1.4 -> within share.
  EXPECT_FALSE(ctl.OverFairShare(1, 1.0));
  // Drain order key: standing_load / weight — gold drains first.
  EXPECT_LT(ctl.NormalizedLoad(1), ctl.NormalizedLoad(2));
  // Zero-weight tenants are always over share and drain last.
  TenantSpec freeloader;
  freeloader.id = 3;
  freeloader.weight = 0.0;
  reg.Register(freeloader);
  EXPECT_TRUE(ctl.OverFairShare(3, 0.01));
  EXPECT_GT(ctl.NormalizedLoad(3), ctl.NormalizedLoad(2));
}

TEST(AdmissionControllerTest, QueueBound) {
  TenantRegistry reg = TwoTenants();
  AdmissionController::Config cfg;
  cfg.max_queued_per_tenant = 2;
  AdmissionController ctl(&reg, cfg);
  EXPECT_FALSE(ctl.QueueFull(2));
  ctl.OnSubmitted(2);
  ctl.OnQueued(2);
  ctl.OnSubmitted(2);
  ctl.OnQueued(2);
  EXPECT_TRUE(ctl.QueueFull(2));
  EXPECT_FALSE(ctl.QueueFull(1));
}

engine::Query BoxQuery(double lo0, double hi0, double lo1, double hi1) {
  engine::Query q;
  q.id = 1;
  q.tenant = 2;
  q.load = 2.0;
  auto plan = std::make_shared<engine::QueryPlan>();
  interest::Box box{{lo0, hi0}, {lo1, hi1}};
  auto f = plan->AddOperator(
      std::make_unique<engine::FilterOp>(std::vector<int>{0, 1}, box));
  EXPECT_TRUE(plan->BindStream(7, f, 0).ok());
  q.plan = plan;
  q.interest.Add(7, box);
  return q;
}

TEST(DegradeForAdmissionTest, ShrinksBoxAboutCenterToCoverageVolume) {
  engine::Query q = BoxQuery(0, 100, -50, 50);
  engine::Query coarse = DegradeForAdmission(q);
  EXPECT_EQ(coarse.id, q.id);
  EXPECT_EQ(coarse.tenant, q.tenant);
  EXPECT_DOUBLE_EQ(coarse.load, 1.0);
  // Plan shared, untouched: a coarser filter input, not a different query.
  EXPECT_EQ(coarse.plan.get(), q.plan.get());
  const std::vector<interest::Box>* boxes = coarse.interest.boxes_for(7);
  ASSERT_NE(boxes, nullptr);
  ASSERT_EQ(boxes->size(), 1u);
  const interest::Box& box = (*boxes)[0];
  ASSERT_EQ(box.size(), 2u);
  // 2 dims, coverage 0.25 -> each side scaled by sqrt(0.25) = 0.5,
  // centered: [25,75] and [-25,25].
  EXPECT_NEAR(box[0].lo, 25.0, 1e-9);
  EXPECT_NEAR(box[0].hi, 75.0, 1e-9);
  EXPECT_NEAR(box[1].lo, -25.0, 1e-9);
  EXPECT_NEAR(box[1].hi, 25.0, 1e-9);
  // Retained volume is exactly the coverage fraction of the original.
  double vol = box[0].length() * box[1].length();
  EXPECT_NEAR(vol, 0.25 * (100.0 * 100.0), 1e-6);
  // The degraded region is a subset: results stay correct, just fewer.
  EXPECT_TRUE((interest::Interval{0, 100}.Covers(box[0])));
  EXPECT_TRUE((interest::Interval{-50, 50}.Covers(box[1])));
}

TEST(ElasticityManagerTest, SustainedHighLoadGrows) {
  ElasticityManager::Config cfg;
  ElasticityManager mgr(cfg);
  ElasticityManager::Observation hot{/*entity=*/0, /*committed_load=*/1.8,
                                     /*capacity=*/2.0, /*pr_p95=*/0.0,
                                     /*processors=*/2};
  // One hot round is a spike, not a trend.
  EXPECT_EQ(mgr.Evaluate(hot), ElasticityManager::Action::kNone);
  EXPECT_EQ(mgr.Evaluate(hot), ElasticityManager::Action::kGrow);
  // Acting resets the streak: the next round starts over.
  EXPECT_EQ(mgr.Evaluate(hot), ElasticityManager::Action::kNone);
  EXPECT_EQ(mgr.stats().grow_decisions, 1);
}

TEST(ElasticityManagerTest, HysteresisAndBounds) {
  ElasticityManager::Config cfg;
  cfg.max_processors = 2;
  ElasticityManager mgr(cfg);
  // Mid-band utilization (between watermarks) resets both streaks.
  ElasticityManager::Observation cold{0, 0.1, 2.0, 0.0, 2};
  ElasticityManager::Observation mid{0, 1.0, 2.0, 0.0, 2};
  EXPECT_EQ(mgr.Evaluate(cold), ElasticityManager::Action::kNone);
  EXPECT_EQ(mgr.Evaluate(mid), ElasticityManager::Action::kNone);
  EXPECT_EQ(mgr.Evaluate(cold), ElasticityManager::Action::kNone);
  EXPECT_EQ(mgr.Evaluate(cold), ElasticityManager::Action::kShrink);
  // At the processor-count bounds no action fires regardless of load.
  ElasticityManager::Observation hot_at_max{1, 3.9, 4.0, 0.0, 2};
  ElasticityManager::Observation cold_at_min{2, 0.0, 1.0, 0.0, 1};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(mgr.Evaluate(hot_at_max), ElasticityManager::Action::kNone);
    EXPECT_EQ(mgr.Evaluate(cold_at_min), ElasticityManager::Action::kNone);
  }
  // Forget drops the streaks: entity 0 must re-sustain from scratch.
  EXPECT_EQ(mgr.Evaluate(cold), ElasticityManager::Action::kNone);
  mgr.Forget(0);
  EXPECT_EQ(mgr.Evaluate(cold), ElasticityManager::Action::kNone);
  EXPECT_EQ(mgr.Evaluate(cold), ElasticityManager::Action::kShrink);
}

TEST(ElasticityManagerTest, PrP95TriggerFiresWhenLoadLooksFine) {
  ElasticityManager::Config cfg;
  cfg.pr_p95_limit = 1.5;
  ElasticityManager mgr(cfg);
  // Declared load says 50% — but measured PR p95 says results are taking
  // 2x their isolated cost. The queueing signal wins.
  ElasticityManager::Observation slow{0, 1.0, 2.0, /*pr_p95=*/2.0, 2};
  EXPECT_EQ(mgr.Evaluate(slow), ElasticityManager::Action::kNone);
  EXPECT_EQ(mgr.Evaluate(slow), ElasticityManager::Action::kGrow);
}

}  // namespace
}  // namespace dsps::tenant
