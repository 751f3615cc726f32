#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "interest/interest.h"
#include "interest/interval.h"
#include "interest/measure.h"
#include "simplify_reference.h"

namespace dsps::interest {
namespace {

// ---------------------------------------------------------------- Interval

TEST(IntervalTest, BasicOps) {
  Interval a{0, 10};
  EXPECT_FALSE(a.empty());
  EXPECT_DOUBLE_EQ(a.length(), 10.0);
  EXPECT_TRUE(a.Contains(0));
  EXPECT_TRUE(a.Contains(10));
  EXPECT_FALSE(a.Contains(10.5));
  Interval empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.length(), 0.0);
}

TEST(IntervalTest, OverlapAndIntersect) {
  Interval a{0, 10}, b{5, 15}, c{11, 20};
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_FALSE(a.Overlaps(c));
  Interval ab = a.Intersect(b);
  EXPECT_DOUBLE_EQ(ab.lo, 5.0);
  EXPECT_DOUBLE_EQ(ab.hi, 10.0);
  EXPECT_TRUE(a.Intersect(c).empty());
}

TEST(IntervalTest, Covers) {
  Interval a{0, 10};
  EXPECT_TRUE(a.Covers(Interval{2, 8}));
  EXPECT_TRUE(a.Covers(Interval{0, 10}));
  EXPECT_FALSE(a.Covers(Interval{-1, 5}));
  EXPECT_TRUE(a.Covers(Interval{}));  // empty covered by anything
}

TEST(BoxTest, ContainsAndVolume) {
  Box b{{0, 10}, {0, 2}};
  double in[] = {5, 1};
  double out[] = {5, 3};
  EXPECT_TRUE(BoxContains(b, in));
  EXPECT_FALSE(BoxContains(b, out));
  EXPECT_DOUBLE_EQ(BoxVolume(b), 20.0);
  Box empty{{0, 10}, {3, 2}};
  EXPECT_TRUE(BoxEmpty(empty));
  EXPECT_DOUBLE_EQ(BoxVolume(empty), 0.0);
}

TEST(BoxTest, IntersectAndCovers) {
  Box a{{0, 10}, {0, 10}};
  Box b{{5, 15}, {5, 15}};
  Box ab = BoxIntersect(a, b);
  EXPECT_DOUBLE_EQ(BoxVolume(ab), 25.0);
  EXPECT_TRUE(BoxCovers(a, Box{{1, 2}, {1, 2}}));
  EXPECT_FALSE(BoxCovers(a, b));
}

// ------------------------------------------------------------- UnionVolume

TEST(UnionVolumeTest, SingleBox) {
  EXPECT_DOUBLE_EQ(UnionVolume({Box{{0, 2}, {0, 3}}}), 6.0);
}

TEST(UnionVolumeTest, DisjointBoxesAdd) {
  EXPECT_DOUBLE_EQ(UnionVolume({Box{{0, 1}}, Box{{2, 4}}}), 3.0);
}

TEST(UnionVolumeTest, OverlapNotDoubleCounted1D) {
  EXPECT_DOUBLE_EQ(UnionVolume({Box{{0, 10}}, Box{{5, 15}}}), 15.0);
}

TEST(UnionVolumeTest, OverlapNotDoubleCounted2D) {
  // Two 10x10 squares overlapping in a 5x5 corner: 100+100-25.
  EXPECT_DOUBLE_EQ(
      UnionVolume({Box{{0, 10}, {0, 10}}, Box{{5, 15}, {5, 15}}}), 175.0);
}

TEST(UnionVolumeTest, ContainedBoxIgnored) {
  EXPECT_DOUBLE_EQ(
      UnionVolume({Box{{0, 10}, {0, 10}}, Box{{2, 4}, {2, 4}}}), 100.0);
}

TEST(UnionVolumeTest, ThreeDimensional) {
  // Two unit cubes sharing half their volume.
  Box a{{0, 1}, {0, 1}, {0, 1}};
  Box b{{0.5, 1.5}, {0, 1}, {0, 1}};
  EXPECT_DOUBLE_EQ(UnionVolume({a, b}), 1.5);
}

TEST(UnionVolumeTest, EmptyInput) {
  EXPECT_DOUBLE_EQ(UnionVolume({}), 0.0);
  EXPECT_DOUBLE_EQ(UnionVolume({Box{{1, 0}}}), 0.0);
}

/// Property: union volume computed exactly matches a Monte-Carlo estimate
/// on random 2D box sets.
TEST(UnionVolumeTest, MatchesMonteCarloOnRandomSets) {
  common::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Box> boxes;
    int n = 1 + static_cast<int>(rng.NextUint64(6));
    for (int i = 0; i < n; ++i) {
      double x0 = rng.Uniform(0, 80), y0 = rng.Uniform(0, 80);
      boxes.push_back(Box{{x0, x0 + rng.Uniform(1, 20)},
                          {y0, y0 + rng.Uniform(1, 20)}});
    }
    double exact = UnionVolume(boxes);
    int hits = 0;
    const int samples = 20000;
    for (int s = 0; s < samples; ++s) {
      double p[2] = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
      for (const Box& b : boxes) {
        if (BoxContains(b, p)) {
          ++hits;
          break;
        }
      }
    }
    double mc = 100.0 * 100.0 * hits / samples;
    EXPECT_NEAR(exact, mc, 100.0 * 100.0 * 0.02)
        << "trial " << trial << " n=" << n;
  }
}

TEST(IntersectionVolumeTest, PairwisePieces) {
  std::vector<Box> a{Box{{0, 10}}};
  std::vector<Box> b{Box{{5, 20}}, Box{{-5, 2}}};
  // [0,10] ∩ ([5,20] ∪ [-5,2]) = [5,10] ∪ [0,2] → 5 + 2.
  EXPECT_DOUBLE_EQ(IntersectionVolume(a, b), 7.0);
}

TEST(IntersectionVolumeTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(
      IntersectionVolume({Box{{0, 1}}}, {Box{{2, 3}}}), 0.0);
}

// ------------------------------------------------------------- InterestSet

TEST(InterestSetTest, MatchesOwnBoxes) {
  InterestSet set;
  set.Add(0, Box{{0, 10}});
  set.Add(0, Box{{20, 30}});
  set.Add(1, Box{{5, 6}});
  double p5 = 5, p15 = 15, p25 = 25;
  EXPECT_TRUE(set.Matches(0, &p5));
  EXPECT_FALSE(set.Matches(0, &p15));
  EXPECT_TRUE(set.Matches(0, &p25));
  EXPECT_FALSE(set.Matches(2, &p5));
  EXPECT_TRUE(set.InterestedIn(1));
  EXPECT_FALSE(set.InterestedIn(2));
  EXPECT_EQ(set.streams(), (std::vector<common::StreamId>{0, 1}));
  EXPECT_EQ(set.TotalBoxes(), 3);
}

TEST(InterestSetTest, EmptyBoxesIgnored) {
  InterestSet set;
  set.Add(0, Box{{5, 1}});
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.TotalBoxes(), 0);
}

TEST(InterestSetTest, MergeFromIsUnion) {
  InterestSet a, b;
  a.Add(0, Box{{0, 1}});
  b.Add(0, Box{{2, 3}});
  b.Add(1, Box{{0, 1}});
  a.MergeFrom(b);
  double p2_5 = 2.5;
  EXPECT_TRUE(a.Matches(0, &p2_5));
  EXPECT_TRUE(a.InterestedIn(1));
  EXPECT_EQ(a.TotalBoxes(), 3);
}

/// Property: the incremental per-stream merge is bit-identical to the
/// full MergeFrom + Simplify whenever the destination is already
/// simplified (the install path's invariant), and its changed-stream
/// list names exactly the streams whose stored boxes moved.
TEST(InterestSetTest, MergeSimplifyFromMatchesMergeThenSimplify) {
  common::Rng rng(77);
  auto random_set = [&rng](int max_boxes) {
    InterestSet s;
    int n = 1 + static_cast<int>(rng.NextUint64(max_boxes));
    for (int i = 0; i < n; ++i) {
      auto stream = static_cast<common::StreamId>(rng.NextUint64(3));
      double lo0 = rng.Uniform(0, 80);
      double lo1 = rng.Uniform(0, 80);
      // Mix covered, covering, identical, and disjoint boxes.
      s.Add(stream, Box{{lo0, lo0 + rng.Uniform(0, 30)},
                        {lo1, lo1 + rng.Uniform(0, 30)}});
    }
    return s;
  };
  for (int round = 0; round < 300; ++round) {
    InterestSet base = random_set(6);
    base.Simplify();
    InterestSet add = random_set(4);
    InterestSet ref = base;
    ref.MergeFrom(add);
    ref.Simplify();
    InterestSet inc = base;
    std::vector<common::StreamId> changed;
    inc.MergeSimplifyFrom(add, &changed);
    EXPECT_TRUE(inc == ref) << "round " << round;
    for (common::StreamId s = 0; s < 3; ++s) {
      const std::vector<Box>* b0 = base.boxes_for(s);
      const std::vector<Box>* b1 = inc.boxes_for(s);
      bool moved = (b0 == nullptr ? std::vector<Box>() : *b0) !=
                   (b1 == nullptr ? std::vector<Box>() : *b1);
      bool listed =
          std::find(changed.begin(), changed.end(), s) != changed.end();
      EXPECT_EQ(listed, moved) << "round " << round << " stream " << s;
    }
  }
}

// ------------------------------------------------- SimplifyKeep vs reference

using reference::ReferenceSimplifyBoxes;

/// A random box list aimed at the sweep's tie and edge cases. Bounds come
/// from a small integer grid, so equal endpoints and equal leading
/// intervals are common. Later boxes are often copies of earlier ones,
/// boxes nested inside them, or boxes sharing their leading interval; some
/// boxes are empty. One list in five mixes dimensionalities, 0 included.
std::vector<Box> RandomBoxList(common::Rng& rng) {
  const bool mixed = rng.Bernoulli(0.2);
  const int dims = 1 + static_cast<int>(rng.NextUint64(3));
  const int64_t grid = rng.Bernoulli(0.5) ? 4 : 12;
  const int n = static_cast<int>(rng.NextUint64(40));
  std::vector<Box> out;
  for (int i = 0; i < n; ++i) {
    const double r = rng.NextDouble();
    if (!out.empty() && r < 0.15) {
      out.push_back(out[rng.NextUint64(out.size())]);
      continue;
    }
    if (!out.empty() && r < 0.35) {
      Box b = out[rng.NextUint64(out.size())];
      for (Interval& iv : b) {
        if (iv.empty()) continue;
        const auto slack = static_cast<int64_t>((iv.hi - iv.lo) / 2);
        iv.lo += static_cast<double>(rng.UniformInt(0, slack));
        iv.hi -= static_cast<double>(rng.UniformInt(0, slack));
      }
      out.push_back(std::move(b));
      continue;
    }
    const int d = mixed ? static_cast<int>(rng.NextUint64(4)) : dims;
    Box b(static_cast<size_t>(d));
    for (Interval& iv : b) {
      iv.lo = static_cast<double>(rng.UniformInt(0, grid));
      iv.hi = iv.lo + static_cast<double>(rng.UniformInt(0, grid));
    }
    if (d > 0 && !out.empty() && r < 0.55) {
      const Box& other = out[rng.NextUint64(out.size())];
      if (!other.empty()) b[0] = other[0];
    }
    if (d > 0 && r > 0.92) {
      Interval& iv = b[rng.NextUint64(static_cast<uint64_t>(d))];
      iv = Interval{iv.hi + 1, iv.lo};
    }
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<const Box*> Pointers(const std::vector<Box>& boxes) {
  std::vector<const Box*> out;
  for (const Box& b : boxes) out.push_back(&b);
  return out;
}

std::vector<Box> Kept(const std::vector<Box>& boxes,
                      const std::vector<uint8_t>& keep) {
  std::vector<Box> out;
  for (size_t i = 0; i < boxes.size(); ++i) {
    if (keep[i]) out.push_back(boxes[i]);
  }
  return out;
}

/// Differential property: the sweep keeps exactly the boxes the pairwise
/// rule keeps, in input order.
TEST(SimplifyKeepTest, MatchesPairwiseReference) {
  common::Rng rng(13);
  std::vector<uint8_t> keep;
  for (int round = 0; round < 20000; ++round) {
    const std::vector<Box> boxes = RandomBoxList(rng);
    std::vector<Box> expect = boxes;
    ReferenceSimplifyBoxes(&expect);
    const size_t kept = SimplifyKeep(Pointers(boxes), &keep);
    ASSERT_EQ(keep.size(), boxes.size()) << "round " << round;
    ASSERT_EQ(kept, expect.size()) << "round " << round;
    ASSERT_TRUE(Kept(boxes, keep) == expect) << "round " << round;
  }
}

TEST(SimplifyKeepTest, EdgeCases) {
  std::vector<uint8_t> keep;
  EXPECT_EQ(SimplifyKeep({}, &keep), 0u);
  EXPECT_TRUE(keep.empty());
  // Of identical boxes the first stays.
  const std::vector<Box> same = {Box{{0, 1}}, Box{{0, 1}}, Box{{0, 1}}};
  EXPECT_EQ(SimplifyKeep(Pointers(same), &keep), 1u);
  EXPECT_EQ(keep, (std::vector<uint8_t>{1, 0, 0}));
  // Empty boxes go whenever a non-empty one exists; otherwise the first
  // empty one stays.
  const std::vector<Box> empties = {Box{{3, 2}}, Box{{1, 0}}};
  EXPECT_EQ(SimplifyKeep(Pointers(empties), &keep), 1u);
  EXPECT_EQ(keep, (std::vector<uint8_t>{1, 0}));
  const std::vector<Box> mixed_empty = {Box{{3, 2}}, Box{{5, 6}}};
  EXPECT_EQ(SimplifyKeep(Pointers(mixed_empty), &keep), 1u);
  EXPECT_EQ(keep, (std::vector<uint8_t>{0, 1}));
  // Equal leading intervals: the later box covers the earlier one on the
  // second dimension, and the box covering both arrives last.
  const std::vector<Box> tied = {Box{{0, 4}, {1, 2}}, Box{{0, 4}, {0, 3}},
                                 Box{{0, 4}, {5, 6}}, Box{{0, 9}, {0, 9}}};
  EXPECT_EQ(SimplifyKeep(Pointers(tied), &keep), 1u);
  EXPECT_EQ(keep, (std::vector<uint8_t>{0, 0, 0, 1}));
  // Partial overlaps survive; kept boxes keep their input order.
  const std::vector<Box> chain = {Box{{5, 9}}, Box{{0, 6}}, Box{{2, 3}}};
  EXPECT_EQ(SimplifyKeep(Pointers(chain), &keep), 2u);
  EXPECT_EQ(keep, (std::vector<uint8_t>{1, 1, 0}));
}

TEST(BoxTest, CoversAcrossDimensionalities) {
  // A box constrains only its own dimensions: fewer dimensions can cover
  // more, never the other way round.
  EXPECT_TRUE(BoxCovers(Box{{0, 10}}, Box{{1, 2}, {50, 60}}));
  EXPECT_FALSE(BoxCovers(Box{{0, 10}, {0, 100}}, Box{{1, 2}}));
  EXPECT_TRUE(BoxCovers(Box{}, Box{{1, 2}}));
  EXPECT_FALSE(BoxCovers(Box{{0, 10}}, Box{}));
  EXPECT_TRUE(BoxCovers(Box{{0, 10}, {0, 100}}, Box{{2, 1}}));
}

/// The incremental merge against merge-then-simplify built on the
/// reference: every stream `add` names becomes the pairwise
/// simplification of the old boxes followed by the new ones, the rest
/// stay, and the changed list names exactly the streams that moved — also
/// when the destination was not simplified and when streams differ in
/// dimensionality.
TEST(InterestSetTest, MergeSimplifyFromMatchesPairwiseReference) {
  common::Rng rng(29);
  auto random_set = [&rng](bool simplified) {
    InterestSet s;
    const int streams = static_cast<int>(rng.NextUint64(4));
    for (int k = 0; k < streams; ++k) {
      auto stream = static_cast<common::StreamId>(rng.NextUint64(4));
      std::vector<Box> boxes = RandomBoxList(rng);
      if (simplified) ReferenceSimplifyBoxes(&boxes);
      for (Box& b : boxes) s.Add(stream, std::move(b));
    }
    return s;
  };
  for (int round = 0; round < 5000; ++round) {
    const InterestSet base = random_set(rng.Bernoulli(0.8));
    const InterestSet add = random_set(false);
    std::map<common::StreamId, std::vector<Box>> expect =
        base.boxes_by_stream();
    std::vector<common::StreamId> expect_changed;
    for (const auto& [stream, boxes] : add.boxes_by_stream()) {
      std::vector<Box>& merged = expect[stream];
      const std::vector<Box> before = merged;
      merged.insert(merged.end(), boxes.begin(), boxes.end());
      ReferenceSimplifyBoxes(&merged);
      if (merged != before) expect_changed.push_back(stream);
    }
    InterestSet got = base;
    std::vector<common::StreamId> changed;
    got.MergeSimplifyFrom(add, &changed);
    ASSERT_TRUE(got.boxes_by_stream() == expect) << "round " << round;
    ASSERT_EQ(changed, expect_changed) << "round " << round;
  }
}

TEST(InterestSetTest, SimplifyMatchesPairwiseReference) {
  common::Rng rng(31);
  for (int round = 0; round < 2000; ++round) {
    InterestSet set;
    std::map<common::StreamId, std::vector<Box>> expect;
    for (common::StreamId stream = 0; stream < 3; ++stream) {
      for (Box& b : RandomBoxList(rng)) {
        if (!BoxEmpty(b)) expect[stream].push_back(b);
        set.Add(stream, std::move(b));
      }
    }
    for (auto& [stream, boxes] : expect) ReferenceSimplifyBoxes(&boxes);
    set.Simplify();
    ASSERT_TRUE(set.boxes_by_stream() == expect) << "round " << round;
  }
}

TEST(InterestSetTest, LeadingStreamIsFirstNonEmpty) {
  InterestSet set;
  EXPECT_EQ(set.leading_stream(), common::kInvalidStream);
  set.Add(4, Box{{0, 1}});
  set.Add(2, Box{{0, 1}});
  EXPECT_EQ(set.leading_stream(), 2);
  EXPECT_EQ(set.leading_stream(), set.streams()[0]);
}

TEST(InterestSetTest, SimplifyDropsCoveredBoxes) {
  InterestSet set;
  set.Add(0, Box{{0, 10}});
  set.Add(0, Box{{2, 5}});
  set.Add(0, Box{{0, 10}});  // duplicate
  set.Simplify();
  EXPECT_EQ(set.TotalBoxes(), 1);
  double p3 = 3;
  EXPECT_TRUE(set.Matches(0, &p3));
}

/// Property: Simplify never changes Matches() on random point probes.
TEST(InterestSetTest, SimplifyPreservesSemantics) {
  common::Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    InterestSet set;
    for (int i = 0; i < 8; ++i) {
      double lo = rng.Uniform(0, 90);
      set.Add(0, Box{{lo, lo + rng.Uniform(0, 10)}});
    }
    InterestSet simplified = set;
    simplified.Simplify();
    for (int probe = 0; probe < 200; ++probe) {
      double p = rng.Uniform(-5, 105);
      EXPECT_EQ(set.Matches(0, &p), simplified.Matches(0, &p)) << p;
    }
  }
}

// ----------------------------------------------------- Catalog and weights

StreamCatalog MakeCatalog() {
  StreamCatalog cat;
  StreamStats s;
  s.domain = Box{{0, 100}};
  s.tuples_per_s = 10;
  s.bytes_per_tuple = 10;  // 100 B/s
  cat.Register(0, s);
  StreamStats s2;
  s2.domain = Box{{0, 10}, {0, 10}};
  s2.tuples_per_s = 5;
  s2.bytes_per_tuple = 20;  // 100 B/s
  cat.Register(1, s2);
  return cat;
}

TEST(MeasureTest, CoverageFraction) {
  InterestSet set;
  set.Add(0, Box{{0, 50}});
  StreamCatalog cat = MakeCatalog();
  EXPECT_DOUBLE_EQ(CoverageFraction(set, 0, cat.stats(0).domain), 0.5);
  EXPECT_DOUBLE_EQ(CoverageFraction(set, 1, cat.stats(1).domain), 0.0);
}

TEST(MeasureTest, CoverageClipsToDomain) {
  InterestSet set;
  set.Add(0, Box{{-100, 200}});
  StreamCatalog cat = MakeCatalog();
  EXPECT_DOUBLE_EQ(CoverageFraction(set, 0, cat.stats(0).domain), 1.0);
}

TEST(MeasureTest, InterestRate) {
  InterestSet set;
  set.Add(0, Box{{0, 25}});
  StreamCatalog cat = MakeCatalog();
  EXPECT_DOUBLE_EQ(InterestRateBytesPerSec(set, 0, cat.stats(0)), 25.0);
}

TEST(MeasureTest, SharedRateSymmetricAndCorrect) {
  StreamCatalog cat = MakeCatalog();
  InterestSet a, b;
  a.Add(0, Box{{0, 60}});
  b.Add(0, Box{{40, 100}});
  // Overlap [40,60] = 20% of the domain → 20 B/s.
  EXPECT_DOUBLE_EQ(SharedRateBytesPerSec(a, b, cat), 20.0);
  EXPECT_DOUBLE_EQ(SharedRateBytesPerSec(b, a, cat), 20.0);
}

TEST(MeasureTest, SharedRateSumsOverStreams) {
  StreamCatalog cat = MakeCatalog();
  InterestSet a, b;
  a.Add(0, Box{{0, 100}});
  b.Add(0, Box{{0, 100}});
  a.Add(1, Box{{0, 10}, {0, 5}});
  b.Add(1, Box{{0, 10}, {0, 10}});
  // Stream 0: full 100 B/s; stream 1: half of domain → 50 B/s.
  EXPECT_DOUBLE_EQ(SharedRateBytesPerSec(a, b, cat), 150.0);
}

TEST(MeasureTest, TotalRate) {
  StreamCatalog cat = MakeCatalog();
  InterestSet a;
  a.Add(0, Box{{0, 100}});
  a.Add(1, Box{{0, 5}, {0, 10}});
  EXPECT_DOUBLE_EQ(TotalRateBytesPerSec(a, cat), 150.0);
}

TEST(MeasureTest, CatalogBasics) {
  StreamCatalog cat = MakeCatalog();
  EXPECT_TRUE(cat.Contains(0));
  EXPECT_FALSE(cat.Contains(9));
  EXPECT_EQ(cat.size(), 2u);
  EXPECT_EQ(cat.streams(), (std::vector<common::StreamId>{0, 1}));
  EXPECT_DOUBLE_EQ(cat.stats(0).bytes_per_s(), 100.0);
}

/// Property: shared rate is bounded by each side's total rate.
TEST(MeasureTest, SharedRateBoundedByTotals) {
  common::Rng rng(55);
  StreamCatalog cat = MakeCatalog();
  for (int trial = 0; trial < 20; ++trial) {
    InterestSet a, b;
    for (int i = 0; i < 3; ++i) {
      double lo = rng.Uniform(0, 90);
      a.Add(0, Box{{lo, lo + rng.Uniform(0, 30)}});
      lo = rng.Uniform(0, 90);
      b.Add(0, Box{{lo, lo + rng.Uniform(0, 30)}});
    }
    double shared = SharedRateBytesPerSec(a, b, cat);
    EXPECT_LE(shared, TotalRateBytesPerSec(a, cat) + 1e-9);
    EXPECT_LE(shared, TotalRateBytesPerSec(b, cat) + 1e-9);
    EXPECT_GE(shared, -1e-9);
  }
}

}  // namespace
}  // namespace dsps::interest
