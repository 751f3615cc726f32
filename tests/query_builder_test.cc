#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/fragment.h"
#include "engine/query_builder.h"
#include "workload/stream_gen.h"

namespace dsps::engine {
namespace {

class QueryBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(1);
    workload::MakeTickerStreams(2, workload::StockTickerGen::Config{},
                                &catalog_, &rng);
  }
  interest::StreamCatalog catalog_;
};

TEST_F(QueryBuilderTest, PlainSelection) {
  auto q = QueryBuilder(1).From(0, catalog_).Where(1, 20, 40).Build();
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().id, 1);
  EXPECT_TRUE(q.value().plan->Validate().ok());
  EXPECT_EQ(q.value().plan->num_operators(), 1);
  // Interest: full symbol/volume range, price in [20, 40].
  const auto* boxes = q.value().interest.boxes_for(0);
  ASSERT_NE(boxes, nullptr);
  ASSERT_EQ(boxes->size(), 1u);
  EXPECT_DOUBLE_EQ((*boxes)[0][1].lo, 20.0);
  EXPECT_DOUBLE_EQ((*boxes)[0][1].hi, 40.0);
  // Selectivity estimate set from box volume.
  EXPECT_LT(q.value().plan->op(0).estimated_selectivity(), 1.0);
}

TEST_F(QueryBuilderTest, WhereIntersects) {
  auto q = QueryBuilder(1)
               .From(0, catalog_)
               .Where(1, 0, 50)
               .Where(1, 30, 90)
               .Build();
  ASSERT_TRUE(q.ok());
  const auto* boxes = q.value().interest.boxes_for(0);
  EXPECT_DOUBLE_EQ((*boxes)[0][1].lo, 30.0);
  EXPECT_DOUBLE_EQ((*boxes)[0][1].hi, 50.0);
}

TEST_F(QueryBuilderTest, EmptySelectionRejected) {
  auto q = QueryBuilder(1)
               .From(0, catalog_)
               .Where(1, 0, 10)
               .Where(1, 20, 30)  // disjoint -> empty
               .Build();
  EXPECT_FALSE(q.ok());
}

TEST_F(QueryBuilderTest, NoSourceRejected) {
  auto q = QueryBuilder(1).Build();
  EXPECT_FALSE(q.ok());
}

TEST_F(QueryBuilderTest, BuiltQueryExecutes) {
  auto q = QueryBuilder(4).From(0, catalog_).Where(1, 0, 50).Build();
  ASSERT_TRUE(q.ok());
  auto frag = FragmentInstance::Create(*q.value().plan, 4, 1, {0});
  ASSERT_TRUE(frag.ok());
  std::vector<FragmentInstance::Output> out;
  Tuple t;
  t.stream = 0;
  t.values = {Value{int64_t{5}}, Value{25.0}, Value{100.0}};
  ASSERT_TRUE(frag.value()->Inject(0, 0, t, &out).ok());
  EXPECT_EQ(out.size(), 1u);
  t.values[1] = Value{75.0};
  ASSERT_TRUE(frag.value()->Inject(0, 0, t, &out).ok());
  EXPECT_EQ(out.size(), 1u);  // filtered
}

}  // namespace
}  // namespace dsps::engine
