#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "interest/box_index.h"

namespace dsps::interest {
namespace {

Box Domain3() { return Box{{0, 100}, {0, 100}, {0, 1000}}; }

TEST(BoxIndexTest, BasicInsertMatch) {
  BoxIndex index(3);
  index.Insert(1, Box{{0, 50}, {0, 100}, {0, 1000}});
  index.Insert(2, Box{{40, 90}, {0, 100}, {0, 1000}});
  std::vector<int64_t> out;
  double p1[3] = {10, 50, 500};
  index.Match(p1, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{1}));
  out.clear();
  double p2[3] = {45, 50, 500};
  index.Match(p2, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{1, 2}));
  out.clear();
  double p3[3] = {95, 50, 500};
  index.Match(p3, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.subscriber_count(), 2u);
}

TEST(BoxIndexTest, RemoveSubscriber) {
  BoxIndex index(3);
  index.Insert(1, Box{{0, 100}, {0, 100}, {0, 1000}});
  index.Insert(1, Box{{0, 10}, {0, 10}, {0, 1000}});
  index.Insert(2, Box{{0, 100}, {0, 100}, {0, 1000}});
  index.Remove(1);
  EXPECT_EQ(index.size(), 1u);
  std::vector<int64_t> out;
  double p[3] = {5, 5, 5};
  index.Match(p, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{2}));
  index.Remove(99);  // unknown: no-op
  EXPECT_EQ(index.size(), 1u);
}

TEST(BoxIndexTest, DedupesMultiBoxSubscriber) {
  BoxIndex index(3);
  index.Insert(7, Box{{0, 60}, {0, 100}, {0, 1000}});
  index.Insert(7, Box{{40, 100}, {0, 100}, {0, 1000}});
  std::vector<int64_t> out;
  double p[3] = {50, 50, 500};  // inside both boxes
  index.Match(p, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{7}));
}

TEST(BoxIndexTest, FarPointMatchesOnlyBoxesReachingIt) {
  BoxIndex index(3);
  index.Insert(1, Box{{90, 100}, {0, 100}, {0, 1000}});
  std::vector<int64_t> out;
  double beyond[3] = {150, 50, 500};  // past box 1's leading interval
  index.Match(beyond, &out);
  // The point is outside the box, so no match — but no crash either.
  EXPECT_TRUE(out.empty());
  index.Insert(2, Box{{90, 200}, {0, 100}, {0, 1000}});  // box beyond domain
  out.clear();
  index.Match(beyond, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{2}));
}

/// Every subscriber with a box containing `point`, ascending.
std::vector<int64_t> NaiveMatch(
    const std::vector<std::pair<int64_t, Box>>& boxes, const double* point) {
  std::set<int64_t> want;
  for (const auto& [sub, box] : boxes) {
    if (BoxContains(box, point)) want.insert(sub);
  }
  return {want.begin(), want.end()};
}

/// Every subscriber with a box overlapping `query`, ascending.
std::vector<int64_t> NaiveOverlap(
    const std::vector<std::pair<int64_t, Box>>& boxes, const Box& query) {
  if (BoxEmpty(query)) return {};
  std::set<int64_t> want;
  for (const auto& [sub, box] : boxes) {
    bool all = true;
    for (size_t d = 0; d < query.size() && all; ++d) {
      all = box[d].Overlaps(query[d]);
    }
    if (all) want.insert(sub);
  }
  return {want.begin(), want.end()};
}

/// A random box inside `domain`. With `route_shaped`, only the leading
/// dimension is bounded, like a routing cache's subtree aggregates.
Box RandomBox(common::Rng& rng, const Box& domain, bool route_shaped) {
  Box box(domain.size());
  for (size_t d = 0; d < domain.size(); ++d) {
    if (route_shaped && d > 0) {
      box[d] = Interval::All();
      continue;
    }
    double lo = rng.Uniform(domain[d].lo, domain[d].hi);
    double width = rng.Uniform(0, (domain[d].hi - domain[d].lo) / 3);
    box[d] = Interval{lo, std::min(domain[d].hi, lo + width)};
  }
  return box;
}

/// Property: the index returns exactly what the naive scan returns, for
/// Match and MatchOverlap, at box counts on both sides of the bucket
/// build threshold, empty included. Probing while boxes arrive makes the
/// indexes build, fill their pending overlay and rebuild along the way.
class BoxIndexProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoxIndexProperty, MatchesNaiveScan) {
  const int n = GetParam();
  const Box domain = Domain3();
  for (bool route_shaped : {false, true}) {
    common::Rng rng(static_cast<uint64_t>(n) * 101 + (route_shaped ? 1 : 0));
    BoxIndex index(domain.size());
    std::vector<std::pair<int64_t, Box>> naive;
    auto probe = [&](int points, int overlaps) {
      for (int i = 0; i < points; ++i) {
        double p[3] = {rng.Uniform(-10, 110), rng.Uniform(-10, 110),
                       rng.Uniform(-10, 1100)};
        if (!naive.empty() && rng.NextUint64(2) == 0) {
          // A corner of a registered box: bounds are closed.
          const Box& b = naive[rng.NextUint64(naive.size())].second;
          for (int d = 0; d < 3; ++d) {
            p[d] = rng.NextUint64(2) == 0 ? b[d].lo : b[d].hi;
          }
        }
        std::vector<int64_t> got;
        index.Match(p, &got);
        EXPECT_EQ(got, NaiveMatch(naive, p))
            << "boxes " << naive.size() << " route " << route_shaped;
      }
      for (int i = 0; i < overlaps; ++i) {
        const Box q = RandomBox(rng, domain, false);
        std::vector<int64_t> got;
        index.MatchOverlap(q, &got);
        EXPECT_EQ(got, NaiveOverlap(naive, q))
            << "boxes " << naive.size() << " route " << route_shaped;
      }
    };
    // Subscribers hold one to three boxes each.
    for (int64_t sub = 0; static_cast<int>(naive.size()) < n; ++sub) {
      int boxes = 1 + static_cast<int>(rng.NextUint64(3));
      for (int b = 0; b < boxes && static_cast<int>(naive.size()) < n; ++b) {
        Box box = RandomBox(rng, domain, route_shaped);
        index.Insert(sub, box);
        naive.emplace_back(sub, box);
        if (naive.size() % 8 == 0) probe(4, 1);
      }
    }
    ASSERT_EQ(index.size(), static_cast<size_t>(n));
    probe(500, 100);
    IndexStats stats;
    index.AddStatsTo(&stats);
    if (static_cast<size_t>(n) < BucketIndex::kBucketBuildMin) {
      // Built at the first lookup, as one bucket.
      EXPECT_GE(stats.rebuilds, 1);
      EXPECT_EQ(stats.buckets, 1);
    } else if (static_cast<size_t>(n) > 2 * BucketIndex::kBucketBuildMin) {
      EXPECT_GE(stats.rebuilds, 2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BoxCounts, BoxIndexProperty,
                         ::testing::Values(0, 1, 8, 31, 32, 33, 300));

TEST(BoxIndexTest, OneDimensionalDomain) {
  BoxIndex index(1);
  index.Insert(1, Box{{10, 20}});
  index.Insert(2, Box{{15, 30}});
  std::vector<int64_t> out;
  double p = 18;
  index.Match(&p, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{1, 2}));
}

TEST(BoxIndexTest, EmptyBoxIgnored) {
  BoxIndex index(3);
  index.Insert(1, Box{{50, 40}, {0, 100}, {0, 1000}});
  EXPECT_EQ(index.size(), 0u);
}

}  // namespace
}  // namespace dsps::interest
