#include "telemetry/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sketch_reference.h"

namespace dsps::telemetry {
namespace {

// Exact nearest-rank quantile over a sorted sample vector — the ground
// truth the sketch contract is stated against.
double ExactQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::min(std::max<size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

// Asserts the DDSketch error contract on one sample set: at every probed
// quantile the estimate is within kRelativeAccuracy of the exact
// nearest-rank sample, and the target rank falls inside the rank
// interval of samples within that error band of the estimate.
void CheckErrorContract(std::vector<double> samples) {
  ASSERT_FALSE(samples.empty());
  Sketch sketch;
  for (double x : samples) sketch.Add(x);
  std::sort(samples.begin(), samples.end());
  const double alpha = Sketch::kRelativeAccuracy;
  const double n = static_cast<double>(samples.size());
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    const double truth = ExactQuantile(samples, q);
    const double est = sketch.Percentile(q);
    EXPECT_NEAR(est, truth, alpha * std::fabs(truth) + 1e-12)
        << "q=" << q << " n=" << n;
    // Rank distance from the target rank to the band of samples the
    // sketch may legally answer with ([est/(1+a), est/(1-a)] for
    // positive values). Guaranteed 0 by the bucketing scheme.
    if (truth > 0.0) {
      const double below = static_cast<double>(
          std::lower_bound(samples.begin(), samples.end(),
                           est / (1.0 + alpha)) -
          samples.begin());
      const double above = static_cast<double>(
          std::upper_bound(samples.begin(), samples.end(),
                           est / (1.0 - alpha)) -
          samples.begin());
      const double target = q * n;
      double rank_err = 0.0;
      if (target < below) rank_err = (below - target) / n;
      if (target > above) rank_err = (target - above) / n;
      EXPECT_LE(rank_err, 0.01) << "q=" << q;
    }
  }
}

TEST(SketchTest, EmptyAndSingle) {
  Sketch s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.Percentile(0.5), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  s.Add(42.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_NEAR(s.Percentile(0.5), 42.0, 0.01 * 42.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
}

TEST(SketchTest, ErrorContractUniform) {
  dsps::common::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Uniform(0.001, 10.0));
  CheckErrorContract(std::move(xs));
}

TEST(SketchTest, ErrorContractHeavyTail) {
  // Log-uniform across six decades: the worst case for fixed-width
  // histograms, the design case for log-gamma bucketing.
  dsps::common::Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(std::pow(10.0, rng.Uniform(-4.0, 2.0)));
  }
  CheckErrorContract(std::move(xs));
}

TEST(SketchTest, ErrorContractClusteredDuplicates) {
  // Adversarial for rank-based accounting: a few point masses holding
  // most of the probability, so tiny value errors could cross huge rank
  // gaps. The value-aware contract must still hold.
  dsps::common::Rng rng(13);
  std::vector<double> xs;
  const double modes[] = {0.010, 0.0101, 2.0, 50.0};
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(modes[rng.UniformInt(0, 3)]);
  }
  CheckErrorContract(std::move(xs));
}

TEST(SketchTest, ErrorContractAdversarialBucketEdges) {
  // Values planted on geometric bucket boundaries for alpha = 1%.
  std::vector<double> xs;
  const double gamma = 1.01 / 0.99;
  double v = 1e-3;
  while (xs.size() < 4000) {
    for (int rep = 0; rep < 4; ++rep) xs.push_back(v);
    v *= gamma;
    if (v > 1e3) v = 1.0000001e-3;
  }
  CheckErrorContract(std::move(xs));
}

TEST(SketchTest, NegativeAndZeroValues) {
  Sketch s;
  for (int i = 1; i <= 100; ++i) s.Add(-static_cast<double>(i));
  s.Add(0.0);
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_EQ(s.count(), 201);
  EXPECT_EQ(s.min(), -100.0);
  EXPECT_EQ(s.max(), 100.0);
  // Median is the zero point mass.
  EXPECT_EQ(s.Percentile(0.5), 0.0);
  // Deep quantiles land in the negative tail with relative accuracy.
  double p05 = s.Percentile(0.05);
  EXPECT_NEAR(p05, -90.0, 0.02 * 90.0 + 1.0);
  double p95 = s.Percentile(0.95);
  EXPECT_NEAR(p95, 90.0, 0.02 * 90.0 + 1.0);
}

TEST(SketchTest, NanCountedButExcludedFromQuantiles) {
  Sketch s;
  s.Add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.Percentile(0.5), 0.0);  // No indexable mass.
  EXPECT_EQ(s.min(), 0.0);            // Not poisoned.
  s.Add(5.0);
  s.Add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(s.count(), 3);
  EXPECT_NEAR(s.Percentile(0.99), 5.0, 0.06);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(SketchTest, InfinitiesCountedButKeptOutOfBuckets) {
  // Treated like NaN: counted so totals reconcile, but never indexed
  // (a logarithm of inf has no int key) and never in sum, min or max.
  const double inf = std::numeric_limits<double>::infinity();
  Sketch s;
  s.Add(1.0);
  s.Add(inf);
  s.Add(-inf, 3);
  EXPECT_EQ(s.count(), 5);
  EXPECT_EQ(s.num_buckets(), 1u);
  EXPECT_EQ(s.sum(), 1.0);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 1.0);
  EXPECT_NEAR(s.Percentile(0.99), 1.0, 0.01);
  EXPECT_NEAR(s.Percentile(0.01), 1.0, 0.01);
  Sketch only_inf;
  only_inf.Add(inf);
  EXPECT_EQ(only_inf.count(), 1);
  EXPECT_EQ(only_inf.num_buckets(), 0u);
  EXPECT_EQ(only_inf.Percentile(0.5), 0.0);
  EXPECT_EQ(only_inf.max(), 0.0);
}

// --- Differential test: dense bucket store vs the original map store. ---

// Equal as stored doubles (NaN equals NaN).
bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

// Every answer of the dense sketch must equal the map reference's bit for
// bit.
void ExpectSameAnswers(const Sketch& dense,
                       const reference::MapSketch& ref,
                       const std::string& where) {
  EXPECT_EQ(dense.count(), ref.count()) << where;
  EXPECT_TRUE(SameDouble(dense.sum(), ref.sum()))
      << where << ": " << dense.sum() << " vs " << ref.sum();
  EXPECT_TRUE(SameDouble(dense.min(), ref.min())) << where;
  EXPECT_TRUE(SameDouble(dense.max(), ref.max())) << where;
  EXPECT_EQ(dense.num_buckets(), ref.num_buckets()) << where;
  EXPECT_EQ(dense.collapsed(), ref.collapsed()) << where;
  for (int i = 0; i <= 100; ++i) {
    const double q = i / 100.0;
    ASSERT_TRUE(SameDouble(dense.Percentile(q), ref.Percentile(q)))
        << where << " q=" << q << ": " << dense.Percentile(q) << " vs "
        << ref.Percentile(q);
  }
  for (double q : {-0.5, 1e-9, 0.001, 0.0005, 0.995, 0.999, 0.9995,
                   1.0 - 1e-12, 1.5}) {
    ASSERT_TRUE(SameDouble(dense.Percentile(q), ref.Percentile(q)))
        << where << " q=" << q;
  }
}

// One stream value: lognormal magnitudes over many decades with either
// sign, plus zeros, magnitudes below the indexable floor, +/-1e300 and
// NaN.
double DrawValue(common::Rng& rng, double sigma) {
  const int64_t kind = rng.UniformInt(0, 99);
  const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
  if (kind < 4) return 0.0;
  if (kind < 8) return sign * std::pow(10.0, rng.Uniform(-20.0, -12.0));
  if (kind < 9) return sign * 1e300;
  if (kind < 10) return std::numeric_limits<double>::quiet_NaN();
  const double mag = std::exp(rng.Gaussian(0.0, sigma));
  return kind < 40 ? -mag : mag;
}

struct Pair {
  explicit Pair(const Sketch::Config& cfg) : dense(cfg), ref(cfg) {}
  void Add(double x, int64_t n) {
    dense.Add(x, n);
    ref.Add(x, n);
  }
  void Merge(const Pair& other) {
    dense.Merge(other.dense);
    ref.Merge(other.ref);
  }
  Sketch dense;
  reference::MapSketch ref;
};

// Fills `p` with a random stream; one in three streams arrives sorted by
// descending magnitude, so keys keep landing below the store's front.
void FillRandom(common::Rng& rng, Pair* p) {
  const int n = static_cast<int>(rng.UniformInt(0, 3000));
  const double sigma = rng.Uniform(0.1, 12.0);
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) xs.push_back(DrawValue(rng, sigma));
  if (rng.UniformInt(0, 2) == 0) {
    std::stable_sort(xs.begin(), xs.end(), [](double a, double b) {
      return std::fabs(a) > std::fabs(b);
    });
  }
  for (double x : xs) {
    const int64_t weight = rng.Bernoulli(0.2) ? rng.UniformInt(-1, 50) : 1;
    p->Add(x, weight);
  }
}

Sketch::Config RandomConfig(common::Rng& rng) {
  Sketch::Config cfg;
  cfg.max_buckets = static_cast<size_t>(rng.UniformInt(8, 128));
  if (rng.Bernoulli(0.2)) cfg.max_buckets = 1024;
  return cfg;
}

TEST(SketchDenseStoreTest, MatchesMapReferenceOnRandomStreams) {
  common::Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    Pair p(RandomConfig(rng));
    FillRandom(rng, &p);
    ExpectSameAnswers(p.dense, p.ref, "trial " + std::to_string(trial));
    if (HasFatalFailure()) return;
  }
}

TEST(SketchDenseStoreTest, MatchesMapReferenceUnderMerges) {
  common::Rng rng(103);
  for (int trial = 0; trial < 60; ++trial) {
    const Sketch::Config cfg = RandomConfig(rng);
    std::vector<Pair> parts;
    const int k = static_cast<int>(rng.UniformInt(2, 4));
    for (int i = 0; i < k; ++i) {
      parts.emplace_back(cfg);
      FillRandom(rng, &parts.back());
    }
    const std::string where = "trial " + std::to_string(trial);
    // Left fold in input order, left fold in reverse, and a balanced
    // tree; each merge adds every bucket and then collapses once.
    Pair forward(cfg), backward(cfg);
    for (int i = 0; i < k; ++i) forward.Merge(parts[i]);
    for (int i = k - 1; i >= 0; --i) backward.Merge(parts[i]);
    ExpectSameAnswers(forward.dense, forward.ref, where + " forward");
    ExpectSameAnswers(backward.dense, backward.ref, where + " backward");
    Pair left(cfg), right(cfg);
    for (int i = 0; i < k; ++i) (i < k / 2 ? left : right).Merge(parts[i]);
    left.Merge(right);
    ExpectSameAnswers(left.dense, left.ref, where + " tree");
    // Merging a sketch into itself doubles every count.
    left.Merge(left);
    ExpectSameAnswers(left.dense, left.ref, where + " self");
    // Keep adding after merges: the merged store must keep growing
    // correctly at both ends.
    FillRandom(rng, &left);
    ExpectSameAnswers(left.dense, left.ref, where + " refill");
    if (HasFatalFailure()) return;
  }
}

TEST(SketchDenseStoreTest, MatchesMapReferenceOnDescendingKeys) {
  // Strictly descending magnitudes: every key lands below the store's
  // front, the growth direction the dense array pays for.
  for (size_t budget : {size_t{8}, size_t{64}, size_t{1024}}) {
    Sketch::Config cfg;
    cfg.max_buckets = budget;
    Pair p(cfg);
    for (double x = 1e6; x > 1e-6; x /= 1.013) p.Add(x, 1);
    for (double x = -1e6; x < -1e-6; x /= 1.013) p.Add(x, 2);
    ExpectSameAnswers(p.dense, p.ref, "budget " + std::to_string(budget));
  }
}

TEST(SketchTest, MergeIsExact) {
  // merge(a, b) must equal a sketch that observed both streams — bucket
  // counts add, so every quantile matches bit-for-bit.
  dsps::common::Rng rng(17);
  Sketch merged, whole;
  Sketch parts[4] = {Sketch(), Sketch(), Sketch(), Sketch()};
  for (int i = 0; i < 8000; ++i) {
    double x = std::pow(10.0, rng.Uniform(-3.0, 3.0));
    whole.Add(x);
    parts[i % 4].Add(x);
  }
  for (const Sketch& p : parts) merged.Merge(p);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.sum(), whole.sum());
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(q), whole.Percentile(q)) << q;
  }
}

TEST(SketchTest, MergeAssociativeAndCommutative) {
  dsps::common::Rng rng(19);
  Sketch a, b, c;
  for (int i = 0; i < 3000; ++i) a.Add(rng.Uniform(0.01, 1.0));
  for (int i = 0; i < 3000; ++i) b.Add(rng.Uniform(0.5, 100.0));
  for (int i = 0; i < 3000; ++i) c.Add(rng.Uniform(1e-4, 1e-2));

  Sketch ab_c, a_bc, cba;
  ab_c.Merge(a);
  ab_c.Merge(b);
  ab_c.Merge(c);
  Sketch bc;
  bc.Merge(b);
  bc.Merge(c);
  a_bc.Merge(a);
  a_bc.Merge(bc);
  cba.Merge(c);
  cba.Merge(b);
  cba.Merge(a);

  EXPECT_EQ(ab_c.count(), a_bc.count());
  EXPECT_EQ(ab_c.count(), cba.count());
  for (double q = 0.05; q < 1.0; q += 0.05) {
    EXPECT_DOUBLE_EQ(ab_c.Percentile(q), a_bc.Percentile(q)) << q;
    EXPECT_DOUBLE_EQ(ab_c.Percentile(q), cba.Percentile(q)) << q;
  }
  EXPECT_DOUBLE_EQ(ab_c.min(), cba.min());
  EXPECT_DOUBLE_EQ(ab_c.max(), cba.max());
}

TEST(SketchTest, BucketBudgetCollapsesLowTailOnly) {
  // Nine decades at alpha=1% want ~1000 buckets; a 128-bucket budget
  // keeps only the top ~1.1 decades exact. Quantiles that land in the
  // retained range keep the error bound; the collapsed low tail does
  // not (by design), which the budget flag must make visible.
  Sketch::Config cfg;
  cfg.max_buckets = 128;
  Sketch s(cfg);
  dsps::common::Rng rng(23);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(std::pow(10.0, rng.Uniform(-6.0, 3.0)));
  }
  for (double x : xs) s.Add(x);
  EXPECT_TRUE(s.collapsed());
  EXPECT_LE(s.num_buckets(), 128u);
  std::sort(xs.begin(), xs.end());
  for (double q : {0.90, 0.95, 0.99}) {
    double truth = ExactQuantile(xs, q);
    EXPECT_NEAR(s.Percentile(q), truth,
                Sketch::kRelativeAccuracy * truth + 1e-12)
        << q;
  }
  // The low tail coarsened: the median's answer may be far off, but it
  // must still be clamped inside the observed range.
  EXPECT_GE(s.Percentile(0.05), s.min());
  EXPECT_LE(s.Percentile(0.05), s.max());
}

TEST(SketchTest, MemoryStaysBoundedOnUnboundedStream) {
  Sketch s;
  dsps::common::Rng rng(29);
  for (int i = 0; i < 200000; ++i) s.Add(rng.Uniform(1e-4, 1e4));
  // ~8 decades at alpha=1% is a few hundred buckets; well under the
  // budget and about three orders of magnitude smaller than storing the
  // samples (200k * 8 bytes = 1.6 MB).
  EXPECT_LE(s.num_buckets(), 1024u);
  EXPECT_LT(s.MemoryBytes(), 64u * 1024u);
  EXPECT_FALSE(s.collapsed());
}

TEST(SketchTest, WeightedAddMatchesRepeatedAdd) {
  Sketch weighted, repeated;
  weighted.Add(3.5, 1000);
  for (int i = 0; i < 1000; ++i) repeated.Add(3.5);
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_DOUBLE_EQ(weighted.Percentile(0.5), repeated.Percentile(0.5));
  EXPECT_DOUBLE_EQ(weighted.sum(), repeated.sum());
}

}  // namespace
}  // namespace dsps::telemetry
