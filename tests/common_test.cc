#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

namespace dsps::common {
namespace {

// ------------------------------------------------------------------ Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such entity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such entity");
  EXPECT_EQ(s.ToString(), "NotFound: no such entity");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

Status FailsThenPropagates() {
  DSPS_RETURN_IF_ERROR(Status::Internal("boom"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// --------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextUint64InRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextUint64(17), 17u);
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  RunningStat st;
  for (int i = 0; i < 20000; ++i) st.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(st.mean(), 5.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(13);
  RunningStat st;
  for (int i = 0; i < 20000; ++i) st.Add(rng.Exponential(4.0));
  EXPECT_NEAR(st.mean(), 0.25, 0.02);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(17);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) counts[rng.Zipf(100, 1.0)]++;
  // Rank 0 should dominate rank 50 heavily under s=1.
  EXPECT_GT(counts[0], counts[50] * 10);
  // All mass within range.
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 50000);
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(19);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) counts[rng.Zipf(10, 0.0)]++;
  for (int c : counts) EXPECT_NEAR(c, 5000, 600);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(21);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits, 3000, 300);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be equal
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork(1);
  Rng a2(31);
  Rng child2 = a2.Fork(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child.Next(), child2.Next());
}

// ------------------------------------------------------------------- Stats

TEST(RunningStatTest, BasicMoments) {
  RunningStat st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.Add(x);
  EXPECT_EQ(st.count(), 8);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat st;
  EXPECT_EQ(st.count(), 0);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.p50(), 50.5, 1.0);
  EXPECT_NEAR(h.p99(), 99.0, 1.1);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, InterleavedAddAndQuery) {
  Histogram h;
  h.Add(10.0);
  EXPECT_DOUBLE_EQ(h.p50(), 10.0);
  h.Add(20.0);
  h.Add(0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 20.0);
}

#ifdef NDEBUG
TEST(HistogramTest, SampleCapCountsOverflowInRelease) {
  int64_t before = Histogram::TotalOverflow();
  Histogram h;
  h.set_sample_cap(4);
  for (int i = 0; i < 7; ++i) h.Add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.overflow(), 3);
  EXPECT_EQ(Histogram::TotalOverflow(), before + 3);
  // Percentiles still answer over the retained prefix.
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 3.0);
}
#else
TEST(HistogramDeathTest, SampleCapIsFatalInDebug) {
  // An uncapped accumulation site is a bug in debug builds: the fix is a
  // telemetry::Sketch or an explicit larger cap, never silent growth.
  EXPECT_DEATH(
      {
        Histogram h;
        h.set_sample_cap(2);
        h.Add(1.0);
        h.Add(2.0);
        h.Add(3.0);
      },
      "sample cap exceeded");
}
#endif

// ------------------------------------------------------------------- Table

TEST(TableTest, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  // Header underline present.
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(TableTest, NumAndIntFormat) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
  EXPECT_EQ(Table::Int(-42), "-42");
}

TEST(TableTest, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"x"});
  std::string s = t.ToString();
  EXPECT_NE(s.find('x'), std::string::npos);
}

}  // namespace
}  // namespace dsps::common
