#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "coordinator/coordinator_tree.h"

namespace dsps::coordinator {
namespace {

using sim::Point;

CoordinatorTree::Config MakeConfig(int k) {
  CoordinatorTree::Config cfg;
  cfg.k = k;
  return cfg;
}

TEST(CoordinatorTreeTest, EmptyTree) {
  CoordinatorTree tree(MakeConfig(3));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_FALSE(tree.RouteQuery({0, 0}, 1.0).ok());
  EXPECT_FALSE(tree.Leave(1).ok());
}

TEST(CoordinatorTreeTest, SingleJoinAndLeave) {
  CoordinatorTree tree(MakeConfig(3));
  auto join = tree.Join(1, {10, 10});
  ASSERT_TRUE(join.ok());
  EXPECT_GE(join.value(), 1);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Contains(1));
  EXPECT_TRUE(tree.CheckInvariants().ok());
  auto route = tree.RouteQuery({0, 0}, 2.0);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().entity, 1);
  EXPECT_DOUBLE_EQ(tree.LoadOf(1), 2.0);
  ASSERT_TRUE(tree.Leave(1).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(CoordinatorTreeTest, DuplicateJoinRejected) {
  CoordinatorTree tree(MakeConfig(3));
  ASSERT_TRUE(tree.Join(1, {0, 0}).ok());
  EXPECT_FALSE(tree.Join(1, {5, 5}).ok());
}

TEST(CoordinatorTreeTest, SplitsWhenOversized) {
  CoordinatorTree tree(MakeConfig(2));  // clusters hold 2..5
  // 6 joins force at least one split.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(tree.Join(i, {static_cast<double>(i * 10), 0}).ok());
    EXPECT_TRUE(tree.CheckInvariants().ok()) << "after join " << i;
  }
  EXPECT_GE(tree.height(), 2);
  EXPECT_EQ(tree.size(), 6u);
}

TEST(CoordinatorTreeTest, HeightGrowsLogarithmically) {
  CoordinatorTree tree(MakeConfig(3));
  common::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        tree.Join(i, {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  // With k=3, clusters hold up to 8; 200 leaves need height >= 2 and a
  // healthy tree stays well under 8 levels.
  EXPECT_GE(tree.height(), 2);
  EXPECT_LE(tree.height(), 8);
}

TEST(CoordinatorTreeTest, MergesWhenUndersized) {
  CoordinatorTree tree(MakeConfig(2));
  common::Rng rng(2);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(tree.Join(i, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  // Remove most entities; clusters must merge and invariants must hold
  // after every leave.
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(tree.Leave(i).ok());
    EXPECT_TRUE(tree.CheckInvariants().ok()) << "after leave " << i;
  }
  EXPECT_EQ(tree.size(), 3u);
}

TEST(CoordinatorTreeTest, JoinRoutesToNearbyCluster) {
  CoordinatorTree tree(MakeConfig(2));
  // Two geographic blobs.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tree.Join(i, {static_cast<double>(i), 0}).ok());
  }
  for (int i = 10; i < 15; ++i) {
    ASSERT_TRUE(tree.Join(i, {1000.0 + i, 0}).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  // A west-side join should cost few messages (descends the west branch).
  auto join = tree.Join(99, {2, 1});
  ASSERT_TRUE(join.ok());
  EXPECT_LE(join.value(), 2 + 3 * tree.height() + 20);
}

TEST(CoordinatorTreeTest, MaintainRecentersAfterDrift) {
  CoordinatorTree tree(MakeConfig(3));
  common::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree.Join(i, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  int messages = tree.Maintain();
  EXPECT_GE(messages, 0);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  // Maintain is idempotent: a second round changes nothing structural.
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(CoordinatorTreeTest, HeartbeatCountMatchesEdges) {
  CoordinatorTree tree(MakeConfig(3));
  common::Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(tree.Join(i, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  // A tree with L leaves and I internal nodes has L + I - 1 parent-child
  // edges; heartbeats = 2 per edge. Just sanity bounds here.
  int hb = tree.HeartbeatRound();
  EXPECT_GE(hb, 2 * 30);
  EXPECT_LE(hb, 2 * (30 + 30));
}

TEST(CoordinatorTreeTest, RouteBalancesLoad) {
  CoordinatorTree tree(MakeConfig(3));
  common::Rng rng(5);
  const int n = 24;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Join(i, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  for (int q = 0; q < 480; ++q) {
    auto route =
        tree.RouteQuery({rng.Uniform(0, 100), rng.Uniform(0, 100)}, 1.0);
    ASSERT_TRUE(route.ok());
    EXPECT_GE(route.value().hops, 1);
  }
  // Every entity gets work; max/min spread bounded.
  double min_load = 1e18, max_load = 0;
  for (int i = 0; i < n; ++i) {
    min_load = std::min(min_load, tree.LoadOf(i));
    max_load = std::max(max_load, tree.LoadOf(i));
  }
  EXPECT_GT(min_load, 0.0);
  EXPECT_LT(max_load, 8.0 * (480.0 / n));
}

TEST(CoordinatorTreeTest, GeoWeightSteersRouting) {
  CoordinatorTree::Config cfg = MakeConfig(2);
  cfg.route_geo_weight = 100.0;  // geography dominates
  CoordinatorTree tree(cfg);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tree.Join(i, {static_cast<double>(i), 0}).ok());
  }
  for (int i = 10; i < 15; ++i) {
    ASSERT_TRUE(tree.Join(i, {1000.0 + i, 0}).ok());
  }
  // Queries near the west blob land on west entities.
  for (int q = 0; q < 20; ++q) {
    auto route = tree.RouteQuery({2, 0}, 1.0);
    ASSERT_TRUE(route.ok());
    EXPECT_LT(route.value().entity, 5);
  }
}

TEST(CoordinatorTreeTest, MessageAccountingMonotone) {
  CoordinatorTree tree(MakeConfig(3));
  int64_t last = 0;
  common::Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree.Join(i, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
    EXPECT_GT(tree.total_messages(), last);
    last = tree.total_messages();
  }
}

TEST(CoordinatorTreeTest, InterestSummariesAggregateAndCoarsen) {
  CoordinatorTree tree(MakeConfig(2));
  // More disjoint boxes than the summary budget, so the root must coarsen.
  constexpr int kEntities = 3 * CoordinatorTree::kInterestBudget;
  for (int i = 0; i < kEntities; ++i) {
    ASSERT_TRUE(tree.Join(i, {static_cast<double>(i), 0}).ok());
    interest::InterestSet set;
    set.Add(0, interest::Box{{i * 10.0, i * 10.0 + 5}});
    tree.SetEntityInterest(i, set);
  }
  // Root summary covers every entity's interest...
  interest::InterestSet root = tree.SubtreeInterestOf(common::kInvalidEntity);
  for (int i = 0; i < kEntities; ++i) {
    double probe = i * 10.0 + 2.0;
    EXPECT_TRUE(root.Matches(0, &probe)) << i;
  }
  // ...within the box budget.
  EXPECT_LE(root.boxes_for(0)->size(),
            static_cast<size_t>(CoordinatorTree::kInterestBudget));
  // A leaf's summary is its own interest.
  interest::InterestSet leaf = tree.SubtreeInterestOf(3);
  double p32 = 32.0, p2 = 2.0;
  EXPECT_TRUE(leaf.Matches(0, &p32));
  EXPECT_FALSE(leaf.Matches(0, &p2));
}

TEST(CoordinatorTreeTest, InterestAwareRoutingClustersSimilarQueries) {
  interest::StreamCatalog catalog;
  interest::StreamStats stats;
  stats.domain = interest::Box{{0, 100}};
  stats.tuples_per_s = 100;
  stats.bytes_per_tuple = 10;
  catalog.Register(0, stats);

  CoordinatorTree::Config cfg = MakeConfig(2);
  cfg.route_geo_weight = 0.0;  // isolate the interest term
  cfg.route_interest_weight = 2.0;
  CoordinatorTree tree(cfg);
  common::Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        tree.Join(i, {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}).ok());
  }
  // Route 60 queries from two interest groups; count how many distinct
  // entities each group spreads over.
  std::set<common::EntityId> homes_a, homes_b;
  for (int q = 0; q < 60; ++q) {
    interest::InterestSet qi;
    bool group_a = q % 2 == 0;
    qi.Add(0, group_a ? interest::Box{{0, 20}} : interest::Box{{80, 100}});
    auto route = tree.RouteQueryByInterest(qi, catalog, {500, 500}, 1.0);
    ASSERT_TRUE(route.ok());
    common::EntityId home = route.value().entity;
    (group_a ? homes_a : homes_b).insert(home);
    // Register the landed query's interest so later queries see it.
    interest::InterestSet updated = tree.SubtreeInterestOf(home);
    updated.MergeFrom(qi);
    tree.SetEntityInterest(home, updated);
  }
  // Each group concentrates on a few entities, and the groups barely
  // overlap (similar queries co-locate; dissimilar ones separate).
  EXPECT_LE(homes_a.size(), 6u);
  EXPECT_LE(homes_b.size(), 6u);
  std::vector<common::EntityId> both;
  std::set_intersection(homes_a.begin(), homes_a.end(), homes_b.begin(),
                        homes_b.end(), std::back_inserter(both));
  EXPECT_LE(both.size(), 2u);
}

TEST(CoordinatorTreeTest, InterestRoutingStillBalancesLoad) {
  interest::StreamCatalog catalog;
  interest::StreamStats stats;
  stats.domain = interest::Box{{0, 100}};
  catalog.Register(0, stats);
  CoordinatorTree tree(MakeConfig(3));
  common::Rng rng(7);
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        tree.Join(i, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  // All queries share one interest: load term must still spread them.
  interest::InterestSet qi;
  qi.Add(0, interest::Box{{0, 50}});
  for (int q = 0; q < 240; ++q) {
    ASSERT_TRUE(tree.RouteQueryByInterest(qi, catalog, {50, 50}, 1.0).ok());
  }
  double max_load = 0;
  for (int i = 0; i < n; ++i) max_load = std::max(max_load, tree.LoadOf(i));
  EXPECT_LT(max_load, 6.0 * 240.0 / n);
}

/// Property: invariants hold through arbitrary interleaved churn, for
/// several k values (the paper's five maintenance rules must compose).
class ChurnSweep : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
};

TEST_P(ChurnSweep, InvariantsHoldUnderChurn) {
  auto [k, seed] = GetParam();
  CoordinatorTree tree(MakeConfig(k));
  common::Rng rng(seed);
  std::set<int> alive;
  int next_id = 0;
  for (int step = 0; step < 300; ++step) {
    bool join = alive.empty() || rng.Bernoulli(0.6);
    if (join) {
      int id = next_id++;
      ASSERT_TRUE(
          tree.Join(id, {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}).ok());
      alive.insert(id);
    } else {
      auto it = alive.begin();
      std::advance(it, rng.NextUint64(alive.size()));
      ASSERT_TRUE(tree.Leave(*it).ok());
      alive.erase(it);
    }
    if (step % 25 == 0) tree.Maintain();
    ASSERT_TRUE(tree.CheckInvariants().ok())
        << "k=" << k << " seed=" << seed << " step=" << step;
    ASSERT_EQ(tree.size(), alive.size());
  }
  // Routing still works after churn.
  if (!alive.empty()) {
    auto route = tree.RouteQuery({500, 500}, 1.0);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(alive.count(route.value().entity) > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(KAndSeeds, ChurnSweep,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(1u, 42u, 777u)));

}  // namespace
}  // namespace dsps::coordinator
