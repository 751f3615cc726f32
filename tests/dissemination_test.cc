#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/rng.h"
#include "dissemination/disseminator.h"
#include "dissemination/tree.h"
#include "interest/summarize.h"
#include "sim/fault_injector.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "simplify_reference.h"

namespace dsps::dissemination {
namespace {

using interest::Box;
using interest::Interval;
using sim::Point;

DisseminationTree::Config TreeConfig(TreePolicy policy, int fanout = 3) {
  DisseminationTree::Config cfg;
  cfg.policy = policy;
  cfg.max_fanout = fanout;
  return cfg;
}

TEST(DisseminationTreeTest, SourceDirectIsAStar) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kSourceDirect));
  for (int e = 0; e < 10; ++e) {
    ASSERT_TRUE(tree.AddEntity(e, {static_cast<double>(e), 0}).ok());
  }
  EXPECT_EQ(tree.source_fanout(), 10);
  EXPECT_EQ(tree.MaxDepth(), 1);
  for (int e = 0; e < 10; ++e) {
    EXPECT_EQ(tree.Parent(e).value(), common::kInvalidEntity);
  }
}

TEST(DisseminationTreeTest, ClosestParentBoundsFanout) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 3));
  common::Rng rng(1);
  for (int e = 0; e < 40; ++e) {
    ASSERT_TRUE(
        tree.AddEntity(e, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  EXPECT_LE(tree.source_fanout(), 3);
  for (int e = 0; e < 40; ++e) {
    EXPECT_LE(tree.Children(e).size(), 3u);
  }
  EXPECT_GT(tree.MaxDepth(), 1);
  EXPECT_EQ(tree.size(), 40u);
}

TEST(DisseminationTreeTest, DuplicateAndMissingEntities) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent));
  ASSERT_TRUE(tree.AddEntity(1, {1, 1}).ok());
  EXPECT_FALSE(tree.AddEntity(1, {2, 2}).ok());
  EXPECT_FALSE(tree.AddEntity(-5, {2, 2}).ok());  // ids index the nodes
  EXPECT_FALSE(tree.RemoveEntity(99).ok());
  EXPECT_FALSE(tree.Parent(99).ok());
  EXPECT_FALSE(tree.Depth(99).ok());
  // Unknown ids past, before and inside the dense node table.
  tree.SetLocalInterest(1, {Box{Interval{0, 100}}});
  const double p = 5;
  EXPECT_TRUE(tree.LocalMatch(1, &p));
  for (common::EntityId id : {0, 2, 99, -5, common::kInvalidEntity}) {
    EXPECT_FALSE(tree.LocalMatch(id, &p)) << id;
    EXPECT_FALSE(tree.Contains(id)) << id;
  }
  ASSERT_TRUE(tree.RemoveEntity(1).ok());
  EXPECT_FALSE(tree.LocalMatch(1, &p));
  EXPECT_EQ(tree.size(), 0u);
}

TEST(DisseminationTreeTest, RemoveReattachesChildren) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 2));
  // Chain: source -> 0 -> 1 -> 2 (positions force this shape).
  ASSERT_TRUE(tree.AddEntity(0, {1, 0}).ok());
  ASSERT_TRUE(tree.AddEntity(1, {1.1, 0}).ok());
  ASSERT_TRUE(tree.AddEntity(2, {1.2, 0}).ok());
  int depth2_before = tree.Depth(2).value();
  ASSERT_TRUE(tree.RemoveEntity(1).ok());
  EXPECT_EQ(tree.size(), 2u);
  // Entity 2 re-attached to 1's parent.
  EXPECT_LE(tree.Depth(2).value(), depth2_before);
  EXPECT_TRUE(tree.Contains(2));
}

TEST(DisseminationTreeTest, SubtreeInterestAggregates) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 2));
  ASSERT_TRUE(tree.AddEntity(0, {1, 0}).ok());
  ASSERT_TRUE(tree.AddEntity(1, {1.1, 0}).ok());  // child of 0
  ASSERT_EQ(tree.Parent(1).value(), 0);
  tree.SetLocalInterest(0, {Box{Interval{0, 10}}});
  int updates = tree.SetLocalInterest(1, {Box{Interval{20, 30}}});
  EXPECT_GE(updates, 1);  // 1's aggregate changed, then 0's
  // 0's subtree covers both ranges.
  double p5 = 5, p25 = 25, p50 = 50;
  auto matches = [&](common::EntityId id, double* p) {
    for (const Box& b : tree.SubtreeInterest(id)) {
      if (interest::BoxContains(b, p)) return true;
    }
    return false;
  };
  EXPECT_TRUE(matches(0, &p5));
  EXPECT_TRUE(matches(0, &p25));
  EXPECT_FALSE(matches(0, &p50));
  // 1's subtree only has its own.
  EXPECT_FALSE(matches(1, &p5));
  EXPECT_TRUE(matches(1, &p25));
}

TEST(DisseminationTreeTest, ForwardTargetsEarlyFiltering) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kSourceDirect));
  ASSERT_TRUE(tree.AddEntity(0, {1, 0}).ok());
  ASSERT_TRUE(tree.AddEntity(1, {2, 0}).ok());
  tree.SetLocalInterest(0, {Box{Interval{0, 10}}});
  tree.SetLocalInterest(1, {Box{Interval{5, 20}}});
  double p7 = 7, p15 = 15, p99 = 99;
  std::vector<common::EntityId> targets;
  tree.ForwardTargets(common::kInvalidEntity, &p7, true, &targets);
  EXPECT_EQ(targets.size(), 2u);
  tree.ForwardTargets(common::kInvalidEntity, &p15, true, &targets);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], 1);
  tree.ForwardTargets(common::kInvalidEntity, &p99, true, &targets);
  EXPECT_TRUE(targets.empty());
  // Without early filtering everything goes everywhere.
  tree.ForwardTargets(common::kInvalidEntity, &p99, false, &targets);
  EXPECT_EQ(targets.size(), 2u);
}

TEST(DisseminationTreeTest, InterestUpdateCostBounded) {
  // Updating a leaf's interest sends at most depth updates upstream.
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 2));
  common::Rng rng(3);
  for (int e = 0; e < 20; ++e) {
    ASSERT_TRUE(
        tree.AddEntity(e, {rng.Uniform(0, 10), rng.Uniform(0, 10)}).ok());
  }
  for (int e = 0; e < 20; ++e) {
    double lo = rng.Uniform(0, 90);
    int updates = tree.SetLocalInterest(e, {Box{Interval{lo, lo + 10}}});
    EXPECT_LE(updates, tree.Depth(e).value());
  }
}

/// Reference routing: the pre-cache linear scan of every child's subtree
/// box list. The cached ForwardTargets must match it exactly after any
/// mix of joins, leaves, reattaches, and interest updates.
std::vector<common::EntityId> LinearForwardTargets(
    const DisseminationTree& tree, common::EntityId from, const double* point,
    bool early_filter) {
  std::vector<common::EntityId> out;
  for (common::EntityId child : tree.Children(from)) {
    if (!early_filter) {
      out.push_back(child);
      continue;
    }
    for (const Box& b : tree.SubtreeInterest(child)) {
      if (interest::BoxContains(b, point)) {
        out.push_back(child);
        break;
      }
    }
  }
  return out;
}

TEST(DisseminationTreeTest, RouteCacheMatchesLinearScanUnderChurn) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 3));
  common::Rng rng(11);
  auto check_all = [&](const char* when) {
    std::vector<common::EntityId> parents{common::kInvalidEntity};
    for (common::EntityId e = 0; e < 40; ++e) {
      if (tree.Contains(e)) parents.push_back(e);
    }
    for (int probe = 0; probe < 20; ++probe) {
      double p = rng.Uniform(-10, 110);
      for (common::EntityId parent : parents) {
        std::vector<common::EntityId> cached;
        tree.ForwardTargets(parent, &p, true, &cached);
        EXPECT_EQ(cached, LinearForwardTargets(tree, parent, &p, true))
            << when << " parent " << parent << " point " << p;
        tree.ForwardTargets(parent, &p, false, &cached);
        EXPECT_EQ(cached, LinearForwardTargets(tree, parent, &p, false))
            << when << " parent " << parent;
      }
    }
  };
  // Joins + interest.
  for (common::EntityId e = 0; e < 24; ++e) {
    ASSERT_TRUE(
        tree.AddEntity(e, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
    double lo = rng.Uniform(0, 90);
    tree.SetLocalInterest(e, {Box{Interval{lo, lo + 10}}});
  }
  check_all("after joins");
  // Interest updates invalidate ancestors' caches.
  for (common::EntityId e = 0; e < 24; e += 3) {
    double lo = rng.Uniform(0, 90);
    tree.SetLocalInterest(e, {Box{Interval{lo, lo + 5}}});
  }
  check_all("after interest updates");
  // Leaves (children re-attach to the grandparent).
  for (common::EntityId e = 1; e < 24; e += 5) {
    ASSERT_TRUE(tree.RemoveEntity(e).ok());
  }
  check_all("after leaves");
  // Reorganization moves (both old and new parents' caches drop).
  for (common::EntityId e = 0; e < 24; ++e) {
    if (!tree.Contains(e)) continue;
    for (common::EntityId np = 0; np < 24; ++np) {
      if (np != e && tree.Contains(np) && tree.Reattach(e, np).ok()) break;
    }
  }
  check_all("after reattaches");
}

TEST(DisseminationTreeTest, RouteCacheSeesInterestShrink) {
  // A child whose interest STOPS matching must disappear from the cached
  // targets (stale-cache regression test).
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kSourceDirect));
  ASSERT_TRUE(tree.AddEntity(0, {1, 0}).ok());
  tree.SetLocalInterest(0, {Box{Interval{0, 10}}});
  double p = 5;
  std::vector<common::EntityId> targets;
  tree.ForwardTargets(common::kInvalidEntity, &p, true, &targets);
  ASSERT_EQ(targets.size(), 1u);
  tree.SetLocalInterest(0, {Box{Interval{50, 60}}});
  tree.ForwardTargets(common::kInvalidEntity, &p, true, &targets);
  EXPECT_TRUE(targets.empty());
  tree.SetLocalInterest(0, {});
  tree.ForwardTargets(common::kInvalidEntity, &p, true, &targets);
  EXPECT_TRUE(targets.empty());
}

/// A node's own interest lives in its match table beside its children's
/// aggregates; replacing it must drop the table even when the node's
/// aggregate (and so every ancestor) stays the same.
TEST(DisseminationTreeTest, LocalMatchSeesLocalInterestChange) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 2));
  ASSERT_TRUE(tree.AddEntity(0, {1, 0}).ok());
  ASSERT_TRUE(tree.AddEntity(1, {1.1, 0}).ok());
  ASSERT_EQ(tree.Parent(1).value(), 0);
  tree.SetLocalInterest(1, {Box{Interval{0, 100}}});
  tree.SetLocalInterest(0, {Box{Interval{0, 10}}});
  double p5 = 5, p25 = 25, p55 = 55;
  std::vector<common::EntityId> targets;
  EXPECT_TRUE(tree.LocalMatch(0, &p5));
  tree.ForwardTargets(0, &p5, true, &targets);
  EXPECT_EQ(targets, std::vector<common::EntityId>{1});
  // 1's box covers 0's old and new ones: 0's aggregate does not change.
  EXPECT_EQ(tree.SetLocalInterest(0, {Box{Interval{20, 30}}}), 0);
  EXPECT_FALSE(tree.LocalMatch(0, &p5));
  EXPECT_TRUE(tree.LocalMatch(0, &p25));
  // A leaf's aggregate changes with it; its own table must follow.
  EXPECT_TRUE(tree.LocalMatch(1, &p55));
  tree.SetLocalInterest(1, {Box{Interval{50, 60}}});
  EXPECT_FALSE(tree.LocalMatch(1, &p5));
  EXPECT_TRUE(tree.LocalMatch(1, &p55));
  tree.SetLocalInterest(0, {});
  EXPECT_FALSE(tree.LocalMatch(0, &p25));
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

/// Reference local delivery: a scan of the entity's own box list.
bool LinearLocalMatch(const DisseminationTree& tree, common::EntityId id,
                      const double* point) {
  for (const Box& b : tree.LocalInterest(id)) {
    if (interest::BoxContains(b, point)) return true;
  }
  return false;
}

/// Property: through joins, interest churn, leaves and reattaches, every
/// match table answers like a linear scan — ForwardTargets against the
/// children's aggregates and LocalMatch against the local interest. Boxes
/// are 3-d with an unbounded last dimension; probes sit on box corners
/// (bounds are closed), just outside them, and at centers; child sets
/// fall on both sides of the spline threshold.
TEST(DisseminationTreeTest, MatchTablesMatchLinearScanUnderChurn) {
  constexpr int kEntities = 48;
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 8));
  common::Rng rng(23);
  auto random_local = [&rng] {
    std::vector<Box> boxes;
    const int n = static_cast<int>(rng.NextUint64(7));
    for (int i = 0; i < n; ++i) {
      const double x = rng.UniformInt(0, 90);
      const double y = rng.UniformInt(0, 90);
      boxes.push_back(Box{Interval{x, x + rng.UniformInt(0, 10)},
                          Interval{y, y + rng.UniformInt(0, 10)},
                          Interval::All()});
    }
    return boxes;
  };
  size_t small_sets = 0;
  size_t spline_sets = 0;
  auto check_all = [&](const char* when) {
    std::vector<common::EntityId> parents{common::kInvalidEntity};
    for (common::EntityId e = 0; e < kEntities; ++e) {
      if (tree.Contains(e)) parents.push_back(e);
    }
    for (common::EntityId parent : parents) {
      std::vector<Box> probed = tree.LocalInterest(parent);
      size_t child_boxes = 0;
      for (common::EntityId child : tree.Children(parent)) {
        for (const Box& b : tree.SubtreeInterest(child)) {
          probed.push_back(b);
          ++child_boxes;
        }
      }
      if (child_boxes > 0) {
        ++(child_boxes >= interest::BoxIndex::kSplineBuildMin ? spline_sets
                                                              : small_sets);
      }
      std::vector<std::vector<double>> probes;
      for (const Box& b : probed) {
        const double z = rng.Uniform(-1e6, 1e6);
        for (int corner = 0; corner < 4; ++corner) {
          const double x = corner & 1 ? b[0].hi : b[0].lo;
          const double y = corner & 2 ? b[1].hi : b[1].lo;
          probes.push_back({x, y, z});
        }
        probes.push_back({std::nextafter(b[0].hi, 1e300), b[1].lo, z});
        probes.push_back({b[0].lo, std::nextafter(b[1].lo, -1e300), z});
        probes.push_back({0.5 * (b[0].lo + b[0].hi), 0.5 * (b[1].lo + b[1].hi),
                          z});
      }
      std::vector<common::EntityId> cached;
      for (const std::vector<double>& p : probes) {
        tree.ForwardTargets(parent, p.data(), true, &cached);
        EXPECT_EQ(cached, LinearForwardTargets(tree, parent, p.data(), true))
            << when << " parent " << parent << " point " << p[0] << ","
            << p[1];
        if (parent != common::kInvalidEntity) {
          EXPECT_EQ(tree.LocalMatch(parent, p.data()),
                    LinearLocalMatch(tree, parent, p.data()))
              << when << " entity " << parent << " point " << p[0] << ","
              << p[1];
        }
      }
    }
  };
  for (common::EntityId e = 0; e < kEntities; ++e) {
    ASSERT_TRUE(
        tree.AddEntity(e, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
    tree.SetLocalInterest(e, random_local());
  }
  check_all("after joins");
  for (common::EntityId e = 0; e < kEntities; e += 2) {
    tree.SetLocalInterest(e, random_local());
  }
  check_all("after interest updates");
  for (common::EntityId e = 1; e < kEntities; e += 7) {
    ASSERT_TRUE(tree.RemoveEntity(e).ok());
  }
  check_all("after leaves");
  for (common::EntityId e = 0; e < kEntities; e += 3) {
    if (!tree.Contains(e)) continue;
    for (common::EntityId np = kEntities - 1; np >= 0; --np) {
      if (np != e && tree.Contains(np) && tree.Reattach(e, np).ok()) break;
    }
  }
  check_all("after reattaches");
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_GT(small_sets, 0u);
  EXPECT_GT(spline_sets, 0u);
}

/// The audit's routing check builds a cache where none exists and drops
/// it again; a cache the hot path built survives the audit.
TEST(DisseminationTreeTest, CheckInvariantsLeavesRouteCachesAsFound) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kSourceDirect));
  for (common::EntityId e = 0; e < 40; ++e) {
    ASSERT_TRUE(tree.AddEntity(e, {1.0 + e, 0}).ok());
    tree.SetLocalInterest(e, {Box{Interval{1.0 * e, 1.0 * e + 5}}});
  }
  auto cache_count = [&tree] {
    interest::IndexStats stats;
    tree.CollectIndexStats(&stats);
    return stats.indexes;
  };
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(cache_count(), 0);
  double p = 7;
  std::vector<common::EntityId> targets;
  tree.ForwardTargets(common::kInvalidEntity, &p, true, &targets);
  EXPECT_EQ(cache_count(), 1);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(cache_count(), 1);
}

/// Every node's subtree aggregate as the original code computed it, from
/// the local interests and the tree shape alone: own non-empty boxes, then
/// each child's aggregate in child order, simplified with the pairwise
/// reference and coarsened to the budget. Independent of the kernel the
/// tree (and its own CheckInvariants) uses.
void ReferenceAggregates(const DisseminationTree& tree, common::EntityId id,
                         int budget,
                         std::map<common::EntityId, std::vector<Box>>* out) {
  std::vector<Box> all;
  for (const Box& b : tree.LocalInterest(id)) {
    if (!interest::BoxEmpty(b)) all.push_back(b);
  }
  for (common::EntityId child : tree.Children(id)) {
    ReferenceAggregates(tree, child, budget, out);
    for (const Box& b : (*out)[child]) {
      if (!interest::BoxEmpty(b)) all.push_back(b);
    }
  }
  interest::reference::ReferenceSimplifyBoxes(&all);
  if (budget > 0 && static_cast<int>(all.size()) > budget) {
    all = interest::CoarsenBoxes(std::move(all), budget);
  }
  (*out)[id] = std::move(all);
}

/// A random local interest on a 2-d stream: up to four boxes on a coarse
/// grid (so entities often share, nest or repeat boxes), sometimes with an
/// empty box, and sometimes the entity's current interest unchanged.
std::vector<Box> RandomLocal(common::Rng& rng, const std::vector<Box>& now) {
  if (rng.Bernoulli(0.15)) return now;
  std::vector<Box> out;
  const int n = static_cast<int>(rng.NextUint64(5));
  for (int i = 0; i < n; ++i) {
    Box b(2);
    for (Interval& iv : b) {
      iv.lo = static_cast<double>(rng.UniformInt(0, 8));
      iv.hi = iv.lo + static_cast<double>(rng.UniformInt(0, 8));
    }
    if (rng.Bernoulli(0.1)) b[1] = Interval{b[1].hi + 1, b[1].lo};
    out.push_back(std::move(b));
  }
  return out;
}

/// Property: after any script of interest updates, reattaches, leaves and
/// re-joins on a 32-node tree, every subtree aggregate equals the
/// pairwise-reference recompute, with and without an interest budget.
TEST(DisseminationTreeTest, AggregatesMatchPairwiseReferenceUnderRandomScripts) {
  constexpr int kNodes = 32;
  for (int budget : {0, 2}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      DisseminationTree::Config cfg =
          TreeConfig(TreePolicy::kClosestParent, 3);
      cfg.interest_budget = budget;
      DisseminationTree tree(0, {50, 50}, cfg);
      common::Rng rng(seed);
      std::vector<Point> positions;
      for (common::EntityId e = 0; e < kNodes; ++e) {
        positions.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
        ASSERT_TRUE(tree.AddEntity(e, positions.back()).ok());
      }
      for (int step = 0; step < 300; ++step) {
        const auto e = static_cast<common::EntityId>(rng.NextUint64(kNodes));
        const double r = rng.NextDouble();
        if (!tree.Contains(e)) {
          ASSERT_TRUE(tree.AddEntity(e, positions[e]).ok());
        } else if (r < 0.6) {
          const std::vector<Box> before = tree.LocalInterest(e);
          const std::vector<Box> next = RandomLocal(rng, before);
          const int updates = tree.SetLocalInterest(e, next);
          if (next == before) {
            EXPECT_EQ(updates, 0);
          }
        } else if (r < 0.9) {
          // kInvalidEntity (the source) included; cycles and full
          // fanouts are refused and leave the tree as it was.
          const auto parent =
              static_cast<common::EntityId>(rng.NextUint64(kNodes + 1)) - 1;
          (void)tree.Reattach(e, parent);
        } else {
          ASSERT_TRUE(tree.RemoveEntity(e).ok());
        }
        ASSERT_TRUE(tree.CheckInvariants().ok())
            << "budget " << budget << " seed " << seed << " step " << step;
        std::map<common::EntityId, std::vector<Box>> expect;
        for (common::EntityId root : tree.Children(common::kInvalidEntity)) {
          ReferenceAggregates(tree, root, budget, &expect);
        }
        ASSERT_EQ(expect.size(), tree.size());
        for (const auto& [id, boxes] : expect) {
          ASSERT_TRUE(tree.SubtreeInterest(id) == boxes)
              << "budget " << budget << " seed " << seed << " step " << step
              << " node " << id;
        }
      }
    }
  }
}

// --------------------------------------------------------------- End-to-end

class DisseminatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<sim::Network>(&sim_);
    source_node_ = network_->AddNode({0, 0});
    for (int e = 0; e < 4; ++e) {
      gateways_.push_back(
          network_->AddNode({100.0 * (e + 1), 50.0 * (e % 2)}));
    }
  }

  engine::Tuple MakeTuple(double value) {
    engine::Tuple t;
    t.stream = 0;
    t.timestamp = sim_.now();
    t.values = {engine::Value{value}};
    return t;
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::Network> network_;
  common::SimNodeId source_node_;
  std::vector<common::SimNodeId> gateways_;
};

TEST_F(DisseminatorTest, DeliversExactlyMatchingTuples) {
  Disseminator::Config cfg;
  cfg.tree.policy = TreePolicy::kClosestParent;
  cfg.tree.max_fanout = 2;
  Disseminator dissem(network_.get(), cfg);
  ASSERT_TRUE(dissem.AddSource(0, source_node_).ok());
  for (int e = 0; e < 4; ++e) {
    ASSERT_TRUE(dissem.AddEntity(e, gateways_[e]).ok());
  }
  // Entity e wants [10e, 10e+10).
  for (int e = 0; e < 4; ++e) {
    ASSERT_TRUE(dissem
                    .SetEntityInterest(
                        e, 0, {Box{Interval{10.0 * e, 10.0 * e + 9.99}}})
                    .ok());
  }
  std::map<common::EntityId, std::vector<double>> got;
  dissem.SetDeliveryHandler(
      [&](common::EntityId e, const TupleEnvelope& env) {
        got[e].push_back(engine::AsDouble(env.tuple->values[0]));
      });
  // Publish values 0..39; value v should reach exactly entity v/10.
  for (int v = 0; v < 40; ++v) {
    ASSERT_TRUE(dissem.Publish(MakeTuple(static_cast<double>(v))).ok());
  }
  sim_.Run();
  int64_t total = 0;
  for (int e = 0; e < 4; ++e) {
    for (double v : got[e]) {
      EXPECT_EQ(static_cast<int>(v) / 10, e);
    }
    total += static_cast<int64_t>(got[e].size());
    EXPECT_EQ(got[e].size(), 10u) << "entity " << e;
  }
  EXPECT_EQ(dissem.delivered_count(), total);
}

TEST_F(DisseminatorTest, EarlyFilterReducesTraffic) {
  auto run = [&](bool early) {
    sim::Simulator sim;
    sim::Network net(&sim);
    auto src = net.AddNode({0, 0});
    std::vector<common::SimNodeId> gws;
    for (int e = 0; e < 8; ++e) {
      gws.push_back(net.AddNode({10.0 + e, 0}));
    }
    Disseminator::Config cfg;
    cfg.tree.policy = TreePolicy::kClosestParent;
    cfg.tree.max_fanout = 2;
    cfg.early_filter = early;
    Disseminator dissem(&net, cfg);
    EXPECT_TRUE(dissem.AddSource(0, src).ok());
    for (int e = 0; e < 8; ++e) {
      EXPECT_TRUE(dissem.AddEntity(e, gws[e]).ok());
      // Narrow interest: only [0, 5).
      EXPECT_TRUE(dissem.SetEntityInterest(e, 0, {Box{Interval{0, 5}}}).ok());
    }
    common::Rng rng(7);
    for (int i = 0; i < 100; ++i) {
      engine::Tuple t;
      t.stream = 0;
      t.timestamp = sim.now();
      t.values = {engine::Value{rng.Uniform(0, 100)}};
      EXPECT_TRUE(dissem.Publish(t).ok());
    }
    sim.Run();
    return net.total_bytes();
  };
  int64_t filtered = run(true);
  int64_t unfiltered = run(false);
  EXPECT_LT(filtered, unfiltered / 2);
}

TEST_F(DisseminatorTest, TreeCutsSourceFanout) {
  Disseminator::Config cfg;
  cfg.tree.policy = TreePolicy::kClosestParent;
  cfg.tree.max_fanout = 2;
  Disseminator dissem(network_.get(), cfg);
  ASSERT_TRUE(dissem.AddSource(0, source_node_).ok());
  for (int e = 0; e < 4; ++e) {
    ASSERT_TRUE(dissem.AddEntity(e, gateways_[e]).ok());
  }
  EXPECT_LE(dissem.tree(0)->source_fanout(), 2);
}

TEST_F(DisseminatorTest, RemoveEntityStopsDeliveryAndRepairsTree) {
  Disseminator::Config cfg;
  cfg.tree.policy = TreePolicy::kClosestParent;
  cfg.tree.max_fanout = 1;  // force a chain so removal has children
  Disseminator dissem(network_.get(), cfg);
  ASSERT_TRUE(dissem.AddSource(0, source_node_).ok());
  for (int e = 0; e < 4; ++e) {
    ASSERT_TRUE(dissem.AddEntity(e, gateways_[e]).ok());
    ASSERT_TRUE(
        dissem.SetEntityInterest(e, 0, {Box{Interval{0, 100}}}).ok());
  }
  std::map<common::EntityId, int> got;
  dissem.SetDeliveryHandler(
      [&](common::EntityId e, const TupleEnvelope&) { got[e] += 1; });
  ASSERT_TRUE(dissem.Publish(MakeTuple(5)).ok());
  sim_.Run();
  EXPECT_EQ(got.size(), 4u);
  // Remove a mid-chain entity: descendants must keep receiving.
  ASSERT_TRUE(dissem.RemoveEntity(1).ok());
  EXPECT_FALSE(dissem.RemoveEntity(1).ok());
  got.clear();
  ASSERT_TRUE(dissem.Publish(MakeTuple(5)).ok());
  sim_.Run();
  EXPECT_EQ(got.count(1), 0u);
  EXPECT_EQ(got.size(), 3u);
  for (auto [e, n] : got) EXPECT_EQ(n, 1) << e;
  // A hop addressed to the removed entity's gateway, or to a node id past
  // the gateway table, is not consumed; a live gateway takes the same hop.
  TupleEnvelope env;
  env.tuple = std::make_shared<const engine::Tuple>(MakeTuple(5));
  env.point = engine::ProjectPoint(*env.tuple);
  sim::Message hop;
  hop.from = source_node_;
  hop.type = kMsgTupleForward;
  hop.payload = env;
  for (common::SimNodeId to : {gateways_[1], gateways_.back() + 1000, -3}) {
    hop.to = to;
    EXPECT_FALSE(dissem.HandleMessage(hop)) << to;
  }
  hop.to = gateways_[2];
  EXPECT_TRUE(dissem.HandleMessage(hop));
  sim_.Run();
  EXPECT_EQ(got[2], 2);
}

TEST_F(DisseminatorTest, RemoveEntityCancelsItsOwnPendingRetries) {
  // A removed entity's process is gone: reliable sends *from* its gateway
  // must be cancelled at removal, not retried to max_retries against a
  // peer that will never hear from it.
  sim::FaultInjector faults(sim::FaultInjector::Config{});
  network_->SetFaultInjector(&faults);
  Disseminator::Config cfg;
  cfg.tree.policy = TreePolicy::kClosestParent;
  cfg.tree.max_fanout = 1;  // chain: source -> e0 -> e1 -> ...
  cfg.reliable = true;
  cfg.retry_timeout_s = 0.05;
  Disseminator dissem(network_.get(), cfg);
  ASSERT_TRUE(dissem.AddSource(0, source_node_).ok());
  for (int e = 0; e < 4; ++e) {
    ASSERT_TRUE(dissem.AddEntity(e, gateways_[e]).ok());
    ASSERT_TRUE(
        dissem.SetEntityInterest(e, 0, {Box{Interval{0.0, 100.0}}}).ok());
  }
  // Sever the e0 -> e1 hop only: e0's forwards to e1 stay unacked and
  // keep retrying while everything upstream of e0 is acked normally.
  faults.Partition(gateways_[0], gateways_[1]);
  for (int v = 0; v < 5; ++v) {
    ASSERT_TRUE(dissem.Publish(MakeTuple(static_cast<double>(v))).ok());
  }
  sim_.RunUntil(0.2);  // a few retry rounds, well short of max_retries
  EXPECT_GT(dissem.retries_count(), 0);
  EXPECT_GT(dissem.pending_reliable_count(), 0u);
  EXPECT_EQ(dissem.retries_cancelled_count(), 0);

  ASSERT_TRUE(dissem.RemoveEntity(0).ok());
  EXPECT_GT(dissem.retries_cancelled_count(), 0);
  int64_t retries_at_removal = dissem.retries_count();
  int64_t failures_at_removal = dissem.delivery_failures_count();
  sim_.Run();
  // The cancelled sends are gone for good: no further retransmissions and
  // no late delivery-failure verdicts from their orphaned timers.
  EXPECT_EQ(dissem.retries_count(), retries_at_removal);
  EXPECT_EQ(dissem.delivery_failures_count(), failures_at_removal);
  EXPECT_EQ(dissem.pending_reliable_count(), 0u);
}

TEST_F(DisseminatorTest, UnknownStreamRejected) {
  Disseminator dissem(network_.get(), Disseminator::Config{});
  engine::Tuple t;
  t.stream = 5;
  EXPECT_FALSE(dissem.Publish(t).ok());
  EXPECT_FALSE(dissem.SetEntityInterest(0, 5, {}).ok());
}

}  // namespace
}  // namespace dsps::dissemination
