#include "placement/placement_map.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/ids.h"

namespace dsps::placement {
namespace {

/// n entities spread over `domains` fault domains in contiguous blocks —
/// the same scheme sim::BuildTopology uses.
std::vector<int> BlockDomains(int n, int domains) {
  std::vector<int> out(n);
  for (int e = 0; e < n; ++e) {
    out[e] = static_cast<int>(static_cast<int64_t>(e) * domains / n);
  }
  return out;
}

TEST(JumpConsistentHashTest, UniformAndMinimallyDisruptive) {
  // Uniformity: each of 8 buckets gets roughly 1/8 of 8000 keys.
  std::vector<int> counts(8, 0);
  for (uint64_t k = 0; k < 8000; ++k) {
    int32_t b = JumpConsistentHash(HashMix(k), 8);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 8);
    counts[b] += 1;
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
  // Minimal disruption: growing 8 -> 9 buckets only moves keys into the
  // new bucket, never between old ones.
  for (uint64_t k = 0; k < 2000; ++k) {
    int32_t before = JumpConsistentHash(HashMix(k), 8);
    int32_t after = JumpConsistentHash(HashMix(k), 9);
    if (after != before) {
      EXPECT_EQ(after, 8) << "key " << k;
    }
  }
}

TEST(PlacementMapTest, TargetsAreDistinctAliveAndDomainStraddling) {
  PlacementMap map(BlockDomains(12, 4));
  for (common::QueryId q = 1; q <= 500; ++q) {
    std::vector<common::EntityId> targets = map.Targets(q);
    ASSERT_EQ(targets.size(), 3u);
    std::set<common::EntityId> distinct(targets.begin(), targets.end());
    EXPECT_EQ(distinct.size(), targets.size());
    std::set<int> domains;
    for (common::EntityId t : targets) {
      EXPECT_TRUE(map.IsAlive(t));
      domains.insert(map.domain_of(t));
    }
    // 4 domains alive and 3 slots: all three must straddle.
    EXPECT_EQ(domains.size(), 3u) << "query " << q;
    EXPECT_EQ(targets[0], map.Primary(q));
  }
}

TEST(PlacementMapTest, DeterministicAcrossInstances) {
  PlacementMap a(BlockDomains(8, 4));
  PlacementMap b(BlockDomains(8, 4));
  for (common::QueryId q = 1; q <= 100; ++q) {
    EXPECT_EQ(a.Targets(q), b.Targets(q));
  }
}

TEST(PlacementMapTest, PrimariesSpreadAcrossEntities) {
  PlacementMap map(BlockDomains(8, 4));
  std::map<common::EntityId, int> load;
  for (common::QueryId q = 1; q <= 800; ++q) load[map.Primary(q)] += 1;
  EXPECT_EQ(load.size(), 8u);
  for (const auto& [e, n] : load) {
    EXPECT_GT(n, 30) << "entity " << e;
    EXPECT_LT(n, 250) << "entity " << e;
  }
}

TEST(PlacementMapTest, FailureOnlyDisturbsTargetListsContainingTheDead) {
  PlacementMap map(BlockDomains(12, 4));
  std::map<common::QueryId, std::vector<common::EntityId>> before;
  for (common::QueryId q = 1; q <= 400; ++q) before[q] = map.Targets(q);
  const common::EntityId dead = 5;
  map.SetAlive(dead, false);
  EXPECT_EQ(map.num_alive(), 11);
  for (common::QueryId q = 1; q <= 400; ++q) {
    std::vector<common::EntityId> after = map.Targets(q);
    bool contained = std::find(before[q].begin(), before[q].end(), dead) !=
                     before[q].end();
    if (!contained) {
      EXPECT_EQ(after, before[q]) << "query " << q << " disturbed";
    } else {
      // Survivors keep their slot ordering; only the dead entity leaves.
      for (common::EntityId t : after) EXPECT_NE(t, dead);
    }
  }
}

TEST(PlacementMapTest, OrphansDeclusterAcrossSurvivors) {
  // The DAOS payoff: queries whose primary was entity 0 must scatter
  // their first standby across many survivors, not pile on one neighbor.
  PlacementMap map(BlockDomains(12, 4));
  std::map<common::EntityId, int> fallback;
  int orphans = 0;
  for (common::QueryId q = 1; q <= 3000; ++q) {
    if (map.Primary(q) != 0) continue;
    ++orphans;
    fallback[map.Targets(q)[1]] += 1;
  }
  ASSERT_GT(orphans, 100);
  // With 11 survivors, the standby load of entity 0's orphans should
  // touch most of them and no single survivor should absorb a majority.
  EXPECT_GE(fallback.size(), 6u);
  for (const auto& [e, n] : fallback) {
    EXPECT_LT(n, orphans / 2) << "survivor " << e << " absorbed a majority";
  }
}

TEST(PlacementMapTest, SurvivesAllButOneEntity) {
  PlacementMap map(BlockDomains(6, 3));
  for (common::EntityId e = 0; e < 5; ++e) map.SetAlive(e, false);
  for (common::QueryId q = 1; q <= 50; ++q) {
    std::vector<common::EntityId> targets = map.Targets(q);
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0], 5);
  }
  map.SetAlive(5, false);
  EXPECT_TRUE(map.Targets(7).empty());
  EXPECT_EQ(map.Primary(7), common::kInvalidEntity);
  // Revival restores stateless answers identical to a fresh map.
  for (common::EntityId e = 0; e < 6; ++e) map.SetAlive(e, true);
  PlacementMap fresh(BlockDomains(6, 3));
  for (common::QueryId q = 1; q <= 50; ++q) {
    EXPECT_EQ(map.Targets(q), fresh.Targets(q));
  }
}

TEST(PlacementMapTest, WholeDomainFailureLeavesAliveTargets) {
  // Correlated rack crash: kill every entity of domain 0. Every query
  // must still resolve to alive targets in the surviving domains only.
  std::vector<int> domains = BlockDomains(8, 4);
  PlacementMap map(domains);
  for (int e = 0; e < 8; ++e) {
    if (domains[e] == 0) map.SetAlive(e, false);
  }
  for (common::QueryId q = 1; q <= 300; ++q) {
    std::vector<common::EntityId> targets = map.Targets(q);
    ASSERT_EQ(targets.size(), 3u);
    std::set<int> seen;
    for (common::EntityId t : targets) {
      EXPECT_TRUE(map.IsAlive(t));
      EXPECT_NE(map.domain_of(t), 0);
      seen.insert(map.domain_of(t));
    }
    EXPECT_EQ(seen.size(), 3u);  // 3 alive domains, 3 slots
  }
}

}  // namespace
}  // namespace dsps::placement
