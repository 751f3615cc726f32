#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace dsps::workload {
namespace {

TEST(StockTickerGenTest, TuplesMatchSchemaAndDomain) {
  StockTickerGen::Config cfg;
  cfg.stream = 3;
  cfg.num_symbols = 10;
  StockTickerGen gen(cfg, common::Rng(1));
  EXPECT_EQ(gen.stream(), 3);
  EXPECT_EQ(gen.schema().num_fields(), 3u);
  interest::StreamStats stats = gen.stats();
  ASSERT_EQ(stats.domain.size(), 3u);
  for (int i = 0; i < 500; ++i) {
    engine::Tuple t = gen.Next(static_cast<double>(i));
    EXPECT_EQ(t.stream, 3);
    EXPECT_DOUBLE_EQ(t.timestamp, static_cast<double>(i));
    ASSERT_EQ(t.values.size(), 3u);
    int64_t sym = engine::AsInt64(t.values[0]);
    EXPECT_GE(sym, 0);
    EXPECT_LT(sym, 10);
    double price = engine::AsDouble(t.values[1]);
    EXPECT_GE(price, StockTickerGen::kPriceMin);
    EXPECT_LE(price, StockTickerGen::kPriceMax);
    EXPECT_GE(engine::AsDouble(t.values[2]), 0.0);
  }
}

TEST(StockTickerGenTest, ZipfHotSymbols) {
  StockTickerGen::Config cfg;
  cfg.num_symbols = 50;
  cfg.zipf_s = 1.2;
  StockTickerGen gen(cfg, common::Rng(2));
  int hot = 0, cold = 0;
  for (int i = 0; i < 5000; ++i) {
    int64_t sym = engine::AsInt64(gen.Next(0).values[0]);
    if (sym == 0) ++hot;
    if (sym == 40) ++cold;
  }
  EXPECT_GT(hot, cold * 5);
}

TEST(NetMonGenTest, TuplesInDomain) {
  NetMonGen::Config cfg;
  cfg.stream = 7;
  cfg.num_hosts = 16;
  NetMonGen gen(cfg, common::Rng(3));
  interest::StreamStats stats = gen.stats();
  for (int i = 0; i < 200; ++i) {
    engine::Tuple t = gen.Next(0);
    EXPECT_TRUE(
        interest::BoxContains(stats.domain, engine::ProjectPoint(t)->data()));
  }
}

TEST(MakeTickerStreamsTest, RegistersInCatalog) {
  interest::StreamCatalog catalog;
  common::Rng rng(5);
  auto gens = MakeTickerStreams(4, StockTickerGen::Config{}, &catalog, &rng);
  EXPECT_EQ(gens.size(), 4u);
  EXPECT_EQ(catalog.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(gens[s]->stream(), s);
    EXPECT_TRUE(catalog.Contains(s));
  }
}

class QueryGenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(11);
    MakeTickerStreams(3, StockTickerGen::Config{}, &catalog_, &rng);
  }
  interest::StreamCatalog catalog_;
};

TEST_F(QueryGenTest, ProducesValidPlans) {
  QueryGen gen(QueryGen::Config{}, &catalog_, common::Rng(1));
  for (int i = 0; i < 100; ++i) {
    engine::Query q = gen.Next();
    EXPECT_EQ(q.id, i + 1);
    ASSERT_NE(q.plan, nullptr);
    EXPECT_TRUE(q.plan->Validate().ok());
    EXPECT_GT(q.load, 0.0);
    EXPECT_FALSE(q.interest.empty());
  }
}

TEST_F(QueryGenTest, InterestMatchesFilterSemantics) {
  // Every tuple passing the query's first filter must match its interest,
  // and vice versa (dissemination correctness depends on this).
  QueryGen::Config cfg;
  cfg.join_prob = 0.0;
  cfg.agg_prob = 0.0;
  QueryGen gen(cfg, &catalog_, common::Rng(2));
  common::Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    engine::Query q = gen.Next();
    common::StreamId s = q.interest.streams()[0];
    const interest::StreamStats& stats = catalog_.stats(s);
    for (int probe = 0; probe < 100; ++probe) {
      std::vector<double> point;
      for (const auto& iv : stats.domain) {
        point.push_back(rng.Uniform(iv.lo, iv.hi));
      }
      engine::Tuple t;
      t.stream = s;
      for (double v : point) t.values.emplace_back(v);
      std::vector<engine::Tuple> out;
      // Operator 0 is the filter by construction.
      auto filter = q.plan->op(0).Clone();
      filter->Process(0, t, &out);
      EXPECT_EQ(!out.empty(), q.interest.Matches(s, point.data()));
    }
  }
}

TEST_F(QueryGenTest, MixesQueryShapes) {
  QueryGen::Config cfg;
  cfg.join_prob = 0.3;
  cfg.agg_prob = 0.3;
  QueryGen gen(cfg, &catalog_, common::Rng(5));
  int joins = 0, single = 0;
  for (int i = 0; i < 200; ++i) {
    engine::Query q = gen.Next();
    if (q.plan->num_operators() == 3) {
      ++joins;
    } else {
      ++single;
    }
  }
  EXPECT_GT(joins, 20);
  EXPECT_GT(single, 80);
}

TEST_F(QueryGenTest, ArrivalTimesIncrease) {
  QueryGen gen(QueryGen::Config{}, &catalog_, common::Rng(7));
  double last = 0.0;
  for (int i = 0; i < 50; ++i) {
    QueryArrival qa = gen.NextArrival();
    EXPECT_GT(qa.arrival_time, last);
    last = qa.arrival_time;
  }
}

TEST_F(QueryGenTest, HotspotsCreateOverlap) {
  // With strong hotspot locality, many query pairs overlap; with none,
  // overlap is rarer.
  auto overlap_count = [&](double hotspot_prob) {
    QueryGen::Config cfg;
    cfg.join_prob = 0;
    cfg.agg_prob = 0;
    cfg.hotspot_prob = hotspot_prob;
    cfg.num_hotspots = 2;
    cfg.stream_zipf_s = 100.0;  // all on stream 0
    QueryGen gen(cfg, &catalog_, common::Rng(9));
    auto queries = gen.Batch(40);
    int overlapping = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      for (size_t j = i + 1; j < queries.size(); ++j) {
        if (interest::SharedRateBytesPerSec(queries[i].interest,
                                            queries[j].interest,
                                            catalog_) > 0) {
          ++overlapping;
        }
      }
    }
    return overlapping;
  };
  EXPECT_GT(overlap_count(1.0), overlap_count(0.0));
}

TEST_F(QueryGenTest, DeterministicForSeed) {
  QueryGen g1(QueryGen::Config{}, &catalog_, common::Rng(42));
  QueryGen g2(QueryGen::Config{}, &catalog_, common::Rng(42));
  for (int i = 0; i < 20; ++i) {
    engine::Query a = g1.Next();
    engine::Query b = g2.Next();
    EXPECT_EQ(a.id, b.id);
    EXPECT_DOUBLE_EQ(a.load, b.load);
    EXPECT_EQ(a.plan->num_operators(), b.plan->num_operators());
  }
}

}  // namespace
}  // namespace dsps::workload
