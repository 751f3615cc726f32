#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"
#include "interest/box_index.h"
#include "interest/bucket_index.h"

namespace dsps::interest {
namespace {

Box Domain3() { return Box{{0, 100}, {0, 100}, {0, 1000}}; }

/// Reference model: the naive linear scan over live (subscriber, box)
/// pairs, deduplicated ascending — the exact output contract of BoxIndex.
class NaiveModel {
 public:
  void Insert(int64_t sub, const Box& box) {
    if (BoxEmpty(box)) return;
    boxes_[sub].push_back(box);
  }
  void Remove(int64_t sub) { boxes_.erase(sub); }
  std::vector<int64_t> Match(const double* point) const {
    std::vector<int64_t> out;
    for (const auto& [sub, boxes] : boxes_) {
      for (const Box& box : boxes) {
        if (BoxContains(box, point)) {
          out.push_back(sub);
          break;
        }
      }
    }
    return out;  // map iteration: already ascending and unique
  }
  std::vector<int64_t> MatchOverlap(const Box& query) const {
    std::vector<int64_t> out;
    if (BoxEmpty(query)) return out;
    for (const auto& [sub, boxes] : boxes_) {
      for (const Box& box : boxes) {
        bool all = true;
        for (size_t d = 0; d < query.size(); ++d) {
          if (!box[d].Overlaps(query[d])) {
            all = false;
            break;
          }
        }
        if (all) {
          out.push_back(sub);
          break;
        }
      }
    }
    return out;
  }

 private:
  std::map<int64_t, std::vector<Box>> boxes_;
};

/// Random box generator that deliberately produces degenerate shapes:
/// zero-width intervals, boxes straddling or fully outside the domain,
/// and full-domain fat boxes.
Box RandomBox(common::Rng& rng, const Box& domain) {
  Box box(domain.size());
  for (size_t d = 0; d < domain.size(); ++d) {
    const double span = domain[d].hi - domain[d].lo;
    switch (rng.NextUint64(5)) {
      case 0: {  // zero-width
        double v = rng.Uniform(domain[d].lo, domain[d].hi);
        box[d] = Interval{v, v};
        break;
      }
      case 1: {  // out of / straddling the domain
        double lo = rng.Uniform(domain[d].lo - span, domain[d].hi + span);
        box[d] = Interval{lo, lo + rng.Uniform(0, span)};
        break;
      }
      case 2:  // fat
        box[d] = Interval{domain[d].lo - span, domain[d].hi + span};
        break;
      default: {  // narrow, in-domain
        double lo = rng.Uniform(domain[d].lo, domain[d].hi);
        box[d] = Interval{lo, std::min(domain[d].hi, lo + span / 20)};
        break;
      }
    }
  }
  return box;
}

/// Property: under randomized insert/remove churn with degenerate boxes,
/// the index and the naive scan agree exactly — content and order — on
/// Match and MatchOverlap, including probes outside the domain.
TEST(BucketIndexProperty, ChurnMatchesNaiveExactly) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    common::Rng rng(seed * 7919);
    const Box domain = Domain3();
    BoxIndex index(domain.size());
    NaiveModel naive;
    int64_t next_sub = 0;
    for (int op = 0; op < 600; ++op) {
      if (rng.NextUint64(4) == 0 && next_sub > 0) {
        // Remove a (possibly unknown) subscriber.
        int64_t sub = static_cast<int64_t>(rng.NextUint64(
            static_cast<uint64_t>(next_sub) + 4));
        index.Remove(sub);
        naive.Remove(sub);
      } else {
        // Insert, sometimes onto an existing subscriber (duplicates).
        int64_t sub = rng.NextUint64(3) == 0 && next_sub > 0
                          ? static_cast<int64_t>(
                                rng.NextUint64(static_cast<uint64_t>(next_sub)))
                          : next_sub++;
        Box box = RandomBox(rng, domain);
        index.Insert(sub, box);
        naive.Insert(sub, box);
      }
      if (op % 7 != 0) continue;
      for (int probe = 0; probe < 8; ++probe) {
        double p[3] = {rng.Uniform(-50, 150), rng.Uniform(-50, 150),
                       rng.Uniform(-500, 1500)};
        std::vector<int64_t> got;
        index.Match(p, &got);
        EXPECT_EQ(got, naive.Match(p)) << "seed " << seed << " op " << op;
      }
      for (int probe = 0; probe < 4; ++probe) {
        Box q = RandomBox(rng, domain);
        std::vector<int64_t> got;
        index.MatchOverlap(q, &got);
        EXPECT_EQ(got, naive.MatchOverlap(q))
            << "seed " << seed << " op " << op;
      }
    }
  }
}

/// The match contract appends to a non-empty vector without touching
/// what was already there.
TEST(BucketIndexProperty, AppendsAfterExistingElements) {
  const Box domain = Domain3();
  BoxIndex index(domain.size());
  for (int64_t s = 0; s < 64; ++s) {
    index.Insert(s, Box{{0, 100}, {0, 100}, {0, 1000}});
  }
  std::vector<int64_t> out = {99, -7};
  double p[3] = {50, 50, 500};
  index.Match(p, &out);
  ASSERT_EQ(out.size(), 66u);
  EXPECT_EQ(out[0], 99);
  EXPECT_EQ(out[1], -7);
  EXPECT_TRUE(std::is_sorted(out.begin() + 2, out.end()));
}

/// Below the build threshold the first lookup builds the buckets too:
/// one bucket, which a stab scans whole.
TEST(BucketIndexTest, OneBucketBelowBuildThreshold) {
  const Box domain = Domain3();
  BoxIndex index(domain.size());
  index.Insert(1, Box{{10, 20}, {0, 100}, {0, 1000}});
  index.Insert(2, Box{{15, 30}, {0, 100}, {0, 1000}});
  std::vector<int64_t> out;
  double p[3] = {18, 50, 500};
  index.Match(p, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{1, 2}));
  IndexStats stats;
  index.AddStatsTo(&stats);
  EXPECT_EQ(stats.indexes, 1);
  EXPECT_EQ(stats.rebuilds, 1);
  EXPECT_EQ(stats.buckets, 1);
}

/// Below the build threshold a lookup scans the one bucket built at the
/// first lookup; a removal between two lookups must not leave the removed
/// subscriber in its answers.
TEST(BucketIndexTest, LinearScanForgetsRemovedSubscribers) {
  const Box domain = Domain3();
  BoxIndex index(domain.size());
  index.Insert(1, Box{{10, 20}, {0, 100}, {0, 1000}});
  index.Insert(2, Box{{15, 30}, {0, 100}, {0, 1000}});
  double p[3] = {18, 50, 500};
  std::vector<int64_t> out;
  index.Match(p, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{1, 2}));
  index.Remove(1);
  out.clear();
  index.Match(p, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{2}));
}

/// Removing and re-inserting the same subscriber across built buckets
/// must not let the tombstone shadow the re-inserted boxes.
TEST(BucketIndexTest, ReinsertAfterRemoveSurvivesTombstone) {
  const Box domain = Domain3();
  BoxIndex index(domain.size());
  for (int64_t s = 0; s < 64; ++s) {
    index.Insert(s, Box{{0, 100}, {0, 100}, {0, 1000}});
  }
  std::vector<int64_t> out;
  double p[3] = {50, 50, 500};
  index.Match(p, &out);  // forces the build
  ASSERT_EQ(out.size(), 64u);
  index.Remove(7);
  index.Insert(7, Box{{40, 60}, {0, 100}, {0, 1000}});
  out.clear();
  index.Match(p, &out);
  EXPECT_EQ(out.size(), 64u);
  EXPECT_TRUE(std::binary_search(out.begin(), out.end(), 7));
  out.clear();
  double p2[3] = {10, 50, 500};  // outside 7's new box
  index.Match(p2, &out);
  EXPECT_EQ(out.size(), 63u);
  EXPECT_FALSE(std::binary_search(out.begin(), out.end(), 7));
}

TEST(BucketIndexTest, ChurnTriggersRebuildAndStaysExact) {
  const Box domain = Domain3();
  BoxIndex index(domain.size());
  NaiveModel naive;
  common::Rng rng(23);
  for (int64_t s = 0; s < 256; ++s) {
    Box box = RandomBox(rng, domain);
    index.Insert(s, box);
    naive.Insert(s, box);
  }
  double p[3] = {50, 50, 500};
  std::vector<int64_t> out;
  index.Match(p, &out);  // build #1
  // Remove enough to trip the tombstone trigger, then keep matching.
  for (int64_t s = 0; s < 128; ++s) {
    index.Remove(s);
    naive.Remove(s);
  }
  for (int probe = 0; probe < 32; ++probe) {
    double q[3] = {rng.Uniform(0, 100), rng.Uniform(0, 100),
                   rng.Uniform(0, 1000)};
    out.clear();
    index.Match(q, &out);
    EXPECT_EQ(out, naive.Match(q));
  }
  IndexStats stats;
  index.AddStatsTo(&stats);
  EXPECT_GE(stats.rebuilds, 2);
}

/// Direct BucketIndex exercise: skewed keys, duplicate endpoints, and an
/// all-identical leading dimension (no separators at all).
TEST(BucketIndexTest, DirectBuildHandlesSkewAndDuplicates) {
  std::vector<Box> boxes;
  std::vector<int64_t> subs;
  common::Rng rng(31);
  for (int64_t s = 0; s < 5000; ++s) {
    // Zipf-ish skew: most keys crowd near zero.
    double lo = 100.0 / (1.0 + static_cast<double>(rng.NextUint64(1000)));
    boxes.push_back(Box{{lo, lo + 0.5}, Interval::All()});
    subs.push_back(s);
  }
  for (int64_t s = 5000; s < 5500; ++s) {  // duplicate endpoints
    boxes.push_back(Box{{50, 50}, Interval::All()});
    subs.push_back(s);
  }
  std::vector<double> bounds;
  for (const Box& box : boxes) AppendBounds(box, &bounds);
  BucketIndex index(2, bounds, subs);
  EXPECT_EQ(index.size(), boxes.size());
  EXPECT_GT(index.bucket_count(), 1u);
  EXPECT_GT(index.mem_bytes(), 0u);
  for (int probe = 0; probe < 400; ++probe) {
    double p[2] = {rng.Uniform(-1, 101), 0};
    std::vector<int64_t> got;
    index.Match(p, &got);
    std::sort(got.begin(), got.end());
    std::vector<int64_t> want;
    for (size_t i = 0; i < boxes.size(); ++i) {
      if (BoxContains(boxes[i], p)) want.push_back(subs[i]);
    }
    EXPECT_EQ(got, want) << "probe " << probe;
  }

  std::vector<double> flat;
  std::vector<int64_t> flat_subs;
  for (int64_t s = 0; s < 100; ++s) {
    AppendBounds(Box{{42, 42}, Interval::All()}, &flat);
    flat_subs.push_back(s);
  }
  BucketIndex one_bucket(2, flat, flat_subs);
  EXPECT_EQ(one_bucket.bucket_count(), 1u);
  double at[2] = {42, 0};
  std::vector<int64_t> got;
  one_bucket.Match(at, &got);
  EXPECT_EQ(got.size(), 100u);
  got.clear();
  double off[2] = {41.5, 0};
  one_bucket.Match(off, &got);
  EXPECT_TRUE(got.empty());
}

/// Every separator is a leading-dimension box endpoint (a quantile of
/// them), so probing at every endpoint and one ulp to either side stabs
/// every bucket boundary. A directly built index's Match and MatchOverlap
/// must equal the naive scan there, for 1-, 2- and 3-d boxes. Coordinates
/// are integers, so the other dimensions' probes hit endpoints too.
TEST(BucketIndexTest, BoundaryProbesMatchNaiveScanInEveryDimensionality) {
  common::Rng rng(59);
  auto sorted_unique = [](std::vector<int64_t> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  for (size_t dims = 1; dims <= 3; ++dims) {
    std::vector<Box> boxes;
    std::vector<int64_t> subs;
    std::vector<double> bounds;
    for (int64_t s = 0; s < 400; ++s) {
      Box box(dims);
      for (size_t d = 0; d < dims; ++d) {
        box[d].lo = static_cast<double>(rng.UniformInt(0, d == 0 ? 600 : 60));
        box[d].hi = box[d].lo + static_cast<double>(rng.UniformInt(0, 20));
      }
      AppendBounds(box, &bounds);
      boxes.push_back(std::move(box));
      subs.push_back(s % 300);  // some subscribers hold two boxes
    }
    BucketIndex index(dims, bounds, subs);
    ASSERT_GT(index.bucket_count(), 8u) << dims << "-d";
    for (const Box& box : boxes) {
      for (double x : {box[0].lo, box[0].hi}) {
        for (double at : {std::nextafter(x, -1e300), x,
                          std::nextafter(x, 1e300)}) {
          std::vector<double> p(dims, at);
          Box query(dims, Interval{at, at + rng.UniformInt(0, 10)});
          for (size_t d = 1; d < dims; ++d) {
            p[d] = static_cast<double>(rng.UniformInt(0, 80));
            const double lo = static_cast<double>(rng.UniformInt(0, 80));
            query[d] = Interval{lo, lo + rng.UniformInt(0, 5)};
          }
          std::vector<int64_t> want;
          std::vector<int64_t> want_overlap;
          for (size_t i = 0; i < boxes.size(); ++i) {
            if (BoxContains(boxes[i], p.data())) want.push_back(subs[i]);
            bool overlaps = true;
            for (size_t d = 0; d < dims; ++d) {
              overlaps = overlaps && boxes[i][d].Overlaps(query[d]);
            }
            if (overlaps) want_overlap.push_back(subs[i]);
          }
          std::vector<int64_t> got;
          index.Match(p.data(), &got);
          EXPECT_EQ(sorted_unique(got), sorted_unique(want))
              << dims << "-d point " << at;
          got.clear();
          index.MatchOverlap(query, &got);
          EXPECT_EQ(sorted_unique(got), sorted_unique(want_overlap))
              << dims << "-d query from " << at;
        }
      }
    }
  }
}

/// Each bucket keeps its boxes in input order: a stab's candidate run
/// lists them by ascending input position, so boxes given consecutively
/// for one subscriber stay consecutive. DisseminationTree::Route relies on
/// it to skip a subscriber's remaining boxes after its first hit. The run
/// also holds every box that contains the point.
TEST(BucketIndexTest, BucketsKeepInputOrder) {
  common::Rng rng(67);
  for (size_t dims = 1; dims <= 3; ++dims) {
    std::vector<Box> boxes;
    std::vector<double> bounds;
    std::vector<int64_t> positions;  // subscriber = input position
    std::vector<int64_t> owners;     // 1-4 consecutive boxes per owner
    int64_t owner = 0;
    while (boxes.size() < 300) {
      const int n = 1 + static_cast<int>(rng.NextUint64(4));
      for (int k = 0; k < n; ++k) {
        Box box(dims);
        for (size_t d = 0; d < dims; ++d) {
          box[d].lo = static_cast<double>(rng.UniformInt(0, 100));
          // Every fifth owner's first box is fat, so it registers in
          // many buckets.
          const int64_t width = k == 0 && owner % 5 == 0 ? 60 : 8;
          box[d].hi = box[d].lo + static_cast<double>(rng.UniformInt(0, width));
        }
        AppendBounds(box, &bounds);
        positions.push_back(static_cast<int64_t>(boxes.size()));
        owners.push_back(owner);
        boxes.push_back(std::move(box));
      }
      ++owner;
    }
    const BucketIndex by_position(dims, bounds, positions);
    const BucketIndex by_owner(dims, bounds, owners);
    ASSERT_GT(by_position.bucket_count(), 4u) << dims << "-d";
    for (const Box& box : boxes) {
      for (double x :
           {box[0].lo, box[0].hi, std::nextafter(box[0].hi, 1e300)}) {
        std::vector<double> p(dims, x);
        for (size_t d = 1; d < dims; ++d) {
          p[d] = static_cast<double>(rng.UniformInt(0, 100));
        }
        const BucketIndex::Run run = by_position.Candidates(p.data());
        std::vector<int64_t> hits;
        for (size_t k = 0; k < run.size; ++k) {
          if (k > 0) {
            ASSERT_LT(run.subs[k - 1], run.subs[k]) << dims << "-d at " << x;
          }
          if (BoundsContain(run.bounds + k * 2 * dims, p.data(), dims)) {
            hits.push_back(run.subs[k]);
          }
        }
        std::vector<int64_t> want;
        for (size_t i = 0; i < boxes.size(); ++i) {
          if (BoxContains(boxes[i], p.data())) {
            want.push_back(static_cast<int64_t>(i));
          }
        }
        EXPECT_EQ(hits, want) << dims << "-d at " << x;
        // The same boxes under grouped subscribers: each owner's boxes
        // form one run, owners ascending.
        const BucketIndex::Run grouped = by_owner.Candidates(p.data());
        ASSERT_EQ(grouped.size, run.size);
        for (size_t k = 0; k < run.size; ++k) {
          EXPECT_EQ(grouped.subs[k], owners[static_cast<size_t>(run.subs[k])]);
        }
      }
    }
  }
}

/// One index below the build threshold (one bucket) and one above it
/// (many buckets) aggregate into one IndexStats.
TEST(BucketIndexTest, StatsAggregateAcrossIndexes) {
  const Box domain = Domain3();
  BoxIndex small(domain.size());
  BoxIndex large(domain.size());
  common::Rng rng(41);
  for (int64_t s = 0; s < 300; ++s) {
    Box box = RandomBox(rng, domain);
    if (s < 20) small.Insert(s, box);
    large.Insert(s, box);
  }
  double p[3] = {50, 50, 500};
  std::vector<int64_t> out;
  small.Match(p, &out);
  out.clear();
  large.Match(p, &out);
  IndexStats stats;
  small.AddStatsTo(&stats);
  large.AddStatsTo(&stats);
  EXPECT_EQ(stats.indexes, 2);
  EXPECT_EQ(stats.boxes, 320);
  EXPECT_EQ(stats.lookups, 2);
  EXPECT_EQ(stats.rebuilds, 2);  // each built once, at its first lookup
  EXPECT_GT(stats.mem_bytes, 0);
  EXPECT_GT(stats.build_us, 0.0);
  IndexStats small_stats;
  small.AddStatsTo(&small_stats);
  EXPECT_EQ(small_stats.buckets, 1);
  EXPECT_GT(stats.buckets, 2);
}

}  // namespace
}  // namespace dsps::interest
