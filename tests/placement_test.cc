#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "engine/fragment.h"
#include "engine/operators.h"
#include "engine/plan.h"
#include "placement/fragmenter.h"
#include "placement/placement.h"

namespace dsps::placement {
namespace {

using engine::FilterOp;
using engine::QueryPlan;
using engine::WindowAggregateOp;
using engine::WindowJoinOp;

/// A stage that passes every tuple on: a filter over the full domain of
/// field 0.
std::unique_ptr<FilterOp> PassAll() {
  return std::make_unique<FilterOp>(
      std::vector<int>{0}, interest::Box{interest::Interval::All()});
}

std::unique_ptr<QueryPlan> ChainPlan(int n_ops) {
  auto plan = std::make_unique<QueryPlan>();
  common::OperatorId prev = -1;
  for (int i = 0; i < n_ops; ++i) {
    auto op = PassAll();
    op->set_cost_per_tuple(1e-6);
    common::OperatorId id = plan->AddOperator(std::move(op));
    if (i == 0) {
      EXPECT_TRUE(plan->BindStream(0, id, 0).ok());
    } else {
      EXPECT_TRUE(plan->Connect(prev, id, 0).ok());
    }
    prev = id;
  }
  return plan;
}

std::unique_ptr<QueryPlan> JoinPlan() {
  auto plan = std::make_unique<QueryPlan>();
  auto f1 = plan->AddOperator(
      std::make_unique<FilterOp>(std::vector<int>{0}, interest::Box{{0, 50}}));
  auto f2 = plan->AddOperator(
      std::make_unique<FilterOp>(std::vector<int>{0}, interest::Box{{0, 50}}));
  auto j = plan->AddOperator(std::make_unique<WindowJoinOp>(10.0, 0, 0));
  EXPECT_TRUE(plan->Connect(f1, j, 0).ok());
  EXPECT_TRUE(plan->Connect(f2, j, 1).ok());
  EXPECT_TRUE(plan->BindStream(0, f1, 0).ok());
  EXPECT_TRUE(plan->BindStream(1, f2, 0).ok());
  return plan;
}

// -------------------------------------------------------------- Fragmenter

TEST(FragmenterTest, SingleFragmentWholePlan) {
  auto plan = ChainPlan(4);
  common::FragmentId next_id = 1;
  auto frags = FragmentQuery(*plan, 7, 1, 100.0, 64.0, &next_id);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0].query, 7);
  EXPECT_EQ(frags[0].ops.size(), 4u);
  EXPECT_GT(frags[0].cpu_load, 0.0);
  EXPECT_EQ(next_id, 2);
}

TEST(FragmenterTest, SplitsChainEvenly) {
  auto plan = ChainPlan(4);
  common::FragmentId next_id = 1;
  auto frags = FragmentQuery(*plan, 7, 2, 100.0, 64.0, &next_id);
  ASSERT_EQ(frags.size(), 2u);
  EXPECT_EQ(frags[0].ops.size() + frags[1].ops.size(), 4u);
  // Every op exactly once.
  std::set<common::OperatorId> all;
  for (const auto& f : frags) all.insert(f.ops.begin(), f.ops.end());
  EXPECT_EQ(all.size(), 4u);
}

TEST(FragmenterTest, NeverMoreFragmentsThanOps) {
  auto plan = ChainPlan(2);
  common::FragmentId next_id = 1;
  auto frags = FragmentQuery(*plan, 7, 8, 100.0, 64.0, &next_id);
  EXPECT_LE(frags.size(), 2u);
}

TEST(FragmenterTest, InputRateAccountsSelectivity) {
  // Filter (sel 0.1) then a second stage: the second fragment's input
  // rate must be the filtered rate.
  auto plan = std::make_unique<QueryPlan>();
  auto f = plan->AddOperator(
      std::make_unique<FilterOp>(std::vector<int>{0}, interest::Box{{0, 10}}));
  plan->mutable_op(f)->set_estimated_selectivity(0.1);
  auto m = plan->AddOperator(PassAll());
  ASSERT_TRUE(plan->Connect(f, m, 0).ok());
  ASSERT_TRUE(plan->BindStream(0, f, 0).ok());
  common::FragmentId next_id = 1;
  auto frags = FragmentQuery(*plan, 7, 2, 100.0, 64.0, &next_id);
  ASSERT_EQ(frags.size(), 2u);
  EXPECT_DOUBLE_EQ(frags[0].input_rate_bytes_s, 100.0 * 64.0);
  EXPECT_NEAR(frags[1].input_rate_bytes_s, 100.0 * 0.1 * 64.0, 1e-9);
}

TEST(FragmenterTest, JoinPlanFragmentsValid) {
  auto plan = JoinPlan();
  common::FragmentId next_id = 1;
  auto frags = FragmentQuery(*plan, 9, 3, 50.0, 64.0, &next_id);
  std::set<common::OperatorId> all;
  for (const auto& f : frags) all.insert(f.ops.begin(), f.ops.end());
  EXPECT_EQ(all.size(), 3u);
  // Fragments must be topologically coherent: runnable via Create.
  for (const auto& f : frags) {
    EXPECT_TRUE(engine::FragmentInstance::Create(*plan, 9, f.id, f.ops).ok());
  }
}

// --------------------------------------------------------------- Policies

PlacementInput MakeInput(int n_procs, int n_queries, int frags_per_query,
                         int limit) {
  PlacementInput input;
  for (int p = 0; p < n_procs; ++p) {
    input.processors.push_back(ProcessorSpec{p, 1.0, 0.0});
  }
  common::FragmentId next_id = 1;
  for (int q = 0; q < n_queries; ++q) {
    for (int f = 0; f < frags_per_query; ++f) {
      FragmentSpec spec;
      spec.id = next_id++;
      spec.query = q;
      spec.cpu_load = 0.01 * (1 + (q % 3));
      spec.input_rate_bytes_s = 1000.0;
      input.fragments.push_back(spec);
      if (f == 0) {
        input.input_home[spec.id] = q % n_procs;  // stream delegate
      }
    }
  }
  input.distribution_limit = limit;
  return input;
}

TEST(PrAwarePlacementTest, RespectsDistributionLimit) {
  PlacementInput input = MakeInput(8, 10, 4, 2);
  PrAwarePlacement policy;
  auto result = policy.Place(input);
  ASSERT_TRUE(result.ok());
  PlacementMetrics m = EvaluatePlacement(input, result.value());
  EXPECT_EQ(m.limit_violations, 0);
  EXPECT_LE(m.max_processors_per_query, 2);
}

TEST(PrAwarePlacementTest, BalancesLoad) {
  PlacementInput input = MakeInput(4, 40, 2, 2);
  PrAwarePlacement policy;
  auto result = policy.Place(input);
  ASSERT_TRUE(result.ok());
  PlacementMetrics m = EvaluatePlacement(input, result.value());
  EXPECT_LT(m.max_utilization, 2.5 * m.mean_utilization);
}

TEST(PrAwarePlacementTest, LowerTrafficThanLoadOnly) {
  PlacementInput input = MakeInput(8, 30, 3, 2);
  PrAwarePlacement pr;
  LoadOnlyPlacement lo;
  auto rp = pr.Place(input);
  auto rl = lo.Place(input);
  ASSERT_TRUE(rp.ok());
  ASSERT_TRUE(rl.ok());
  PlacementMetrics mp = EvaluatePlacement(input, rp.value());
  PlacementMetrics ml = EvaluatePlacement(input, rl.value());
  EXPECT_LT(mp.cross_traffic_bytes_s, ml.cross_traffic_bytes_s);
}

TEST(LoadOnlyPlacementTest, IgnoresLimitButBalances) {
  PlacementInput input = MakeInput(8, 10, 4, 1);
  LoadOnlyPlacement policy;
  auto result = policy.Place(input);
  ASSERT_TRUE(result.ok());
  PlacementMetrics m = EvaluatePlacement(input, result.value());
  // Pure balancing typically scatters queries beyond the limit.
  EXPECT_GT(m.max_processors_per_query, 1);
  EXPECT_LT(m.max_utilization, 2.0 * m.mean_utilization + 1e-9);
}

TEST(RandomPlacementTest, ValidAndDeterministicPerSeed) {
  PlacementInput input = MakeInput(4, 10, 2, 2);
  RandomPlacement a(42), b(42), c(43);
  auto ra = a.Place(input);
  auto rb = b.Place(input);
  auto rc = c.Place(input);
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(ra.value(), rb.value());
  EXPECT_NE(ra.value(), rc.value());
}

TEST(PlacementPolicyTest, RejectsBadInput) {
  PlacementInput empty;
  PrAwarePlacement pr;
  LoadOnlyPlacement lo;
  RandomPlacement rnd;
  EXPECT_FALSE(pr.Place(empty).ok());
  EXPECT_FALSE(lo.Place(empty).ok());
  EXPECT_FALSE(rnd.Place(empty).ok());
  PlacementInput bad = MakeInput(2, 2, 1, 0);
  EXPECT_FALSE(pr.Place(bad).ok());
}

TEST(PrAwarePlacementTest, PrefersInputHome) {
  // One light fragment with a home: should stay home.
  PlacementInput input;
  for (int p = 0; p < 4; ++p) {
    input.processors.push_back(ProcessorSpec{p, 1.0, 0.0});
  }
  FragmentSpec spec;
  spec.id = 1;
  spec.query = 1;
  spec.cpu_load = 0.01;
  spec.input_rate_bytes_s = 1e6;
  input.fragments.push_back(spec);
  input.input_home[1] = 2;
  input.distribution_limit = 2;
  PrAwarePlacement policy;
  auto result = policy.Place(input);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().at(1), 2);
}

/// Parameterized sweep: the PR-aware policy must respect the limit for
/// every (processors, limit) combination.
class LimitSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LimitSweep, LimitAlwaysRespected) {
  auto [procs, limit] = GetParam();
  PlacementInput input = MakeInput(procs, 20, 4, limit);
  PrAwarePlacement policy;
  auto result = policy.Place(input);
  ASSERT_TRUE(result.ok());
  PlacementMetrics m = EvaluatePlacement(input, result.value());
  EXPECT_EQ(m.limit_violations, 0) << "procs=" << procs << " L=" << limit;
}

INSTANTIATE_TEST_SUITE_P(Grid, LimitSweep,
                         ::testing::Combine(::testing::Values(2, 4, 16),
                                            ::testing::Values(1, 2, 4)));

}  // namespace
}  // namespace dsps::placement
