#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/fragment.h"
#include "engine/operators.h"
#include "engine/plan.h"
#include "engine/tuple.h"

namespace dsps::engine {
namespace {

Tuple MakeTuple(common::StreamId stream, double ts,
                std::vector<double> vals) {
  Tuple t;
  t.stream = stream;
  t.timestamp = ts;
  for (double v : vals) t.values.emplace_back(v);
  return t;
}

Tuple MakeKeyed(common::StreamId stream, double ts, int64_t key, double val) {
  Tuple t;
  t.stream = stream;
  t.timestamp = ts;
  t.values.emplace_back(key);
  t.values.emplace_back(val);
  return t;
}

// ------------------------------------------------------------------- Tuple

TEST(TupleTest, ValueConversions) {
  EXPECT_DOUBLE_EQ(AsDouble(Value{int64_t{3}}), 3.0);
  EXPECT_DOUBLE_EQ(AsDouble(Value{2.5}), 2.5);
  EXPECT_DOUBLE_EQ(AsDouble(Value{std::string("x")}), 0.0);
  EXPECT_EQ(AsInt64(Value{2.9}), 2);
  EXPECT_EQ(AsInt64(Value{int64_t{-4}}), -4);
}

TEST(TupleTest, SchemaLookup) {
  Schema s({{"sym", ValueType::kInt64},
            {"price", ValueType::kDouble},
            {"note", ValueType::kString}});
  EXPECT_EQ(s.num_fields(), 3u);
  EXPECT_EQ(s.IndexOf("price"), 1);
  EXPECT_EQ(s.IndexOf("missing"), -1);
  EXPECT_EQ(s.NumericFieldIndices(), (std::vector<int>{0, 1}));
}

TEST(TupleTest, SizeBytesAccountsForStrings) {
  Tuple t = MakeTuple(0, 0, {1.0, 2.0});
  int64_t base = t.SizeBytes();
  t.values.emplace_back(std::string("hello"));
  EXPECT_EQ(t.SizeBytes(), base + 4 + 5);
}

TEST(TupleTest, ExtractNumeric) {
  Tuple t = MakeTuple(0, 0, {1.0, 2.0, 3.0});
  std::vector<double> out;
  ExtractNumeric(t, {2, 0}, &out);
  EXPECT_EQ(out, (std::vector<double>{3.0, 1.0}));
  ExtractNumeric(t, {5}, &out);  // out of range → 0
  EXPECT_EQ(out, (std::vector<double>{0.0}));
}

// --------------------------------------------------------------- Operators

TEST(FilterOpTest, PassesMatchingTuples) {
  FilterOp f({0}, interest::Box{{10, 20}});
  std::vector<Tuple> out;
  f.Process(0, MakeTuple(0, 0, {15}), &out);
  f.Process(0, MakeTuple(0, 1, {25}), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[0]), 15.0);
  EXPECT_EQ(f.in_count(), 2);
  EXPECT_EQ(f.out_count(), 1);
  EXPECT_DOUBLE_EQ(f.observed_selectivity(), 0.5);
}

TEST(FilterOpTest, MultiDimensional) {
  FilterOp f({0, 1}, interest::Box{{0, 10}, {5, 6}});
  std::vector<Tuple> out;
  f.Process(0, MakeTuple(0, 0, {5, 5.5}), &out);
  f.Process(0, MakeTuple(0, 0, {5, 7.0}), &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(MapOpTest, ProjectsAndScales) {
  MapOp m({1, 0}, 2.0);
  std::vector<Tuple> out;
  m.Process(0, MakeTuple(3, 1.5, {10.0, 20.0}), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].stream, 3);
  EXPECT_DOUBLE_EQ(out[0].timestamp, 1.5);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[0]), 40.0);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[1]), 20.0);
}

TEST(WindowJoinOpTest, JoinsMatchingKeysWithinWindow) {
  WindowJoinOp j(10.0, 0, 0);
  std::vector<Tuple> out;
  j.Process(0, MakeKeyed(0, 1.0, 42, 1.0), &out);
  EXPECT_TRUE(out.empty());
  j.Process(1, MakeKeyed(1, 2.0, 42, 2.0), &out);
  ASSERT_EQ(out.size(), 1u);
  // Concatenated left+right values.
  ASSERT_EQ(out[0].values.size(), 4u);
  EXPECT_EQ(AsInt64(out[0].values[0]), 42);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[1]), 1.0);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[3]), 2.0);
  EXPECT_DOUBLE_EQ(out[0].timestamp, 2.0);
}

TEST(WindowJoinOpTest, NoJoinAcrossKeys) {
  WindowJoinOp j(10.0, 0, 0);
  std::vector<Tuple> out;
  j.Process(0, MakeKeyed(0, 1.0, 1, 0), &out);
  j.Process(1, MakeKeyed(1, 2.0, 2, 0), &out);
  EXPECT_TRUE(out.empty());
}

TEST(WindowJoinOpTest, WindowEvicts) {
  WindowJoinOp j(5.0, 0, 0);
  std::vector<Tuple> out;
  j.Process(0, MakeKeyed(0, 0.0, 7, 0), &out);
  j.Process(1, MakeKeyed(1, 10.0, 7, 0), &out);  // too late
  EXPECT_TRUE(out.empty());
  j.Process(1, MakeKeyed(1, 12.0, 7, 0), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_GT(j.StateBytes(), 0);
}

TEST(WindowJoinOpTest, MultipleMatches) {
  WindowJoinOp j(100.0, 0, 0);
  std::vector<Tuple> out;
  j.Process(0, MakeKeyed(0, 1.0, 5, 1), &out);
  j.Process(0, MakeKeyed(0, 2.0, 5, 2), &out);
  j.Process(1, MakeKeyed(1, 3.0, 5, 9), &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(WindowAggregateOpTest, TumblingCountPerKey) {
  WindowAggregateOp agg(10.0, WindowAggregateOp::Func::kCount, 0, 1);
  std::vector<Tuple> out;
  agg.Process(0, MakeKeyed(0, 1.0, 1, 5.0), &out);
  agg.Process(0, MakeKeyed(0, 2.0, 1, 5.0), &out);
  agg.Process(0, MakeKeyed(0, 3.0, 2, 5.0), &out);
  EXPECT_TRUE(out.empty());
  // Crossing the window boundary emits window [0,10).
  agg.Process(0, MakeKeyed(0, 11.0, 1, 5.0), &out);
  ASSERT_EQ(out.size(), 2u);  // two groups
  // Sorted by key (map order).
  EXPECT_EQ(AsInt64(out[0].values[0]), 1);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[1]), 2.0);
  EXPECT_EQ(AsInt64(out[1].values[0]), 2);
  EXPECT_DOUBLE_EQ(AsDouble(out[1].values[1]), 1.0);
  EXPECT_DOUBLE_EQ(out[0].timestamp, 10.0);
}

TEST(WindowAggregateOpTest, SumAvgMinMax) {
  using Func = WindowAggregateOp::Func;
  for (auto [func, expected] :
       std::vector<std::pair<Func, double>>{{Func::kSum, 9.0},
                                            {Func::kAvg, 3.0},
                                            {Func::kMin, 1.0},
                                            {Func::kMax, 5.0}}) {
    WindowAggregateOp agg(10.0, func, -1, 1);
    std::vector<Tuple> out;
    agg.Process(0, MakeKeyed(0, 1.0, 0, 1.0), &out);
    agg.Process(0, MakeKeyed(0, 2.0, 0, 3.0), &out);
    agg.Process(0, MakeKeyed(0, 3.0, 0, 5.0), &out);
    agg.Process(0, MakeKeyed(0, 10.5, 0, 0.0), &out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(AsDouble(out[0].values[1]), expected);
    out.clear();
  }
}

TEST(UnionOpTest, PassThroughAnyPort) {
  UnionOp u(3);
  EXPECT_EQ(u.num_inputs(), 3);
  std::vector<Tuple> out;
  u.Process(0, MakeTuple(0, 0, {1}), &out);
  u.Process(2, MakeTuple(1, 0, {2}), &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(PredicateFilterOpTest, AppliesPredicate) {
  PredicateFilterOp f(
      [](const Tuple& t) { return AsDouble(t.values[0]) > 5; }, "GtFive");
  std::vector<Tuple> out;
  f.Process(0, MakeTuple(0, 0, {6}), &out);
  f.Process(0, MakeTuple(0, 0, {4}), &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_STREQ(f.name(), "GtFive");
}

TEST(OperatorTest, CloneResetsStateKeepsModel) {
  WindowJoinOp j(10.0, 0, 0);
  j.set_cost_per_tuple(3e-6);
  j.set_estimated_selectivity(0.4);
  std::vector<Tuple> out;
  j.Process(0, MakeKeyed(0, 1.0, 1, 0), &out);
  EXPECT_GT(j.StateBytes(), 0);
  auto clone = j.Clone();
  EXPECT_EQ(clone->StateBytes(), 0);
  EXPECT_DOUBLE_EQ(clone->cost_per_tuple(), 3e-6);
  EXPECT_DOUBLE_EQ(clone->estimated_selectivity(), 0.4);
  EXPECT_EQ(clone->in_count(), 0);
}

// -------------------------------------------------------------------- Plan

std::shared_ptr<QueryPlan> MakeLinearPlan() {
  // stream0 -> Filter[0,50] -> Map(keep 0,1) -> sink
  auto plan = std::make_shared<QueryPlan>();
  auto f = plan->AddOperator(
      std::make_unique<FilterOp>(std::vector<int>{0}, interest::Box{{0, 50}}));
  auto m = plan->AddOperator(std::make_unique<MapOp>(std::vector<int>{0, 1}));
  EXPECT_TRUE(plan->Connect(f, m, 0).ok());
  EXPECT_TRUE(plan->BindStream(0, f, 0).ok());
  return plan;
}

TEST(QueryPlanTest, ValidatesGoodPlan) {
  auto plan = MakeLinearPlan();
  EXPECT_TRUE(plan->Validate().ok());
  EXPECT_EQ(plan->SinkOps(), (std::vector<common::OperatorId>{1}));
}

TEST(QueryPlanTest, RejectsUnfedPort) {
  QueryPlan plan;
  plan.AddOperator(std::make_unique<UnionOp>(2));
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(QueryPlanTest, RejectsDoubleFeed) {
  QueryPlan plan;
  auto a = plan.AddOperator(std::make_unique<UnionOp>(1));
  ASSERT_TRUE(plan.BindStream(0, a, 0).ok());
  ASSERT_TRUE(plan.BindStream(1, a, 0).ok());
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(QueryPlanTest, RejectsCycle) {
  QueryPlan plan;
  auto a = plan.AddOperator(std::make_unique<UnionOp>(2));
  auto b = plan.AddOperator(std::make_unique<UnionOp>(1));
  ASSERT_TRUE(plan.Connect(a, b, 0).ok());
  ASSERT_TRUE(plan.Connect(b, a, 0).ok());
  ASSERT_TRUE(plan.BindStream(0, a, 1).ok());
  EXPECT_FALSE(plan.Validate().ok());
  EXPECT_FALSE(plan.TopologicalOrder().ok());
}

TEST(QueryPlanTest, ConnectValidatesIds) {
  QueryPlan plan;
  auto a = plan.AddOperator(std::make_unique<UnionOp>(1));
  EXPECT_FALSE(plan.Connect(a, 99, 0).ok());
  EXPECT_FALSE(plan.Connect(a, a, 5).ok());
  EXPECT_FALSE(plan.BindStream(0, 99, 0).ok());
  // Stream ids index the runtime's per-stream tables.
  EXPECT_FALSE(plan.BindStream(-1, a, 0).ok());
  EXPECT_TRUE(plan.bindings().empty());
}

TEST(QueryPlanTest, TopologicalOrderRespectsEdges) {
  QueryPlan plan;
  auto a = plan.AddOperator(std::make_unique<UnionOp>(1));
  auto b = plan.AddOperator(std::make_unique<UnionOp>(1));
  auto c = plan.AddOperator(std::make_unique<UnionOp>(2));
  ASSERT_TRUE(plan.Connect(a, c, 0).ok());
  ASSERT_TRUE(plan.Connect(b, c, 1).ok());
  ASSERT_TRUE(plan.BindStream(0, a, 0).ok());
  ASSERT_TRUE(plan.BindStream(1, b, 0).ok());
  auto order = plan.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  auto pos = [&](common::OperatorId id) {
    return std::find(order.value().begin(), order.value().end(), id) -
           order.value().begin();
  };
  EXPECT_LT(pos(a), pos(c));
  EXPECT_LT(pos(b), pos(c));
}

TEST(QueryPlanTest, CloneIsDeepAndFresh) {
  auto plan = MakeLinearPlan();
  auto copy = plan->Clone();
  EXPECT_EQ(copy->num_operators(), plan->num_operators());
  EXPECT_EQ(copy->edges().size(), plan->edges().size());
  EXPECT_EQ(copy->bindings().size(), plan->bindings().size());
  EXPECT_TRUE(copy->Validate().ok());
}

TEST(QueryPlanTest, InherentCostPropagatesSelectivity) {
  QueryPlan plan;
  auto f = plan.AddOperator(
      std::make_unique<FilterOp>(std::vector<int>{0}, interest::Box{{0, 1}}));
  plan.mutable_op(f)->set_cost_per_tuple(1e-6);
  plan.mutable_op(f)->set_estimated_selectivity(0.5);
  auto m = plan.AddOperator(std::make_unique<MapOp>(std::vector<int>{0}));
  plan.mutable_op(m)->set_cost_per_tuple(2e-6);
  ASSERT_TRUE(plan.Connect(f, m, 0).ok());
  ASSERT_TRUE(plan.BindStream(0, f, 0).ok());
  // 1e-6 + 0.5 * 2e-6 = 2e-6.
  EXPECT_NEAR(plan.EstimateInherentCostPerTuple(), 2e-6, 1e-12);
}

// ---------------------------------------------------------------- Fragment

TEST(FragmentTest, CreateValidations) {
  auto plan = MakeLinearPlan();
  EXPECT_FALSE(FragmentInstance::Create(*plan, 1, 1, {}).ok());
  EXPECT_FALSE(FragmentInstance::Create(*plan, 1, 1, {99}).ok());
  EXPECT_TRUE(FragmentInstance::Create(*plan, 1, 1, {0, 1}).ok());
}

TEST(FragmentTest, WholeQueryFragmentRunsCascade) {
  auto plan = MakeLinearPlan();
  auto frag = std::move(FragmentInstance::Create(*plan, 1, 10, {0, 1}).value());
  EXPECT_EQ(frag->query(), 1);
  EXPECT_EQ(frag->id(), 10);
  std::vector<FragmentInstance::Output> out;
  ASSERT_TRUE(frag->Inject(0, 0, MakeTuple(0, 0, {25, 7}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].is_result);
  EXPECT_EQ(out[0].from_op, 1);
  ASSERT_TRUE(frag->Inject(0, 0, MakeTuple(0, 0, {75, 7}), &out).ok());
  EXPECT_EQ(out.size(), 1u);  // filtered out
  EXPECT_GT(frag->DrainCpuCost(), 0.0);
  EXPECT_DOUBLE_EQ(frag->DrainCpuCost(), 0.0);  // drained
}

TEST(FragmentTest, SplitFragmentsExposeRemoteEdges) {
  auto plan = MakeLinearPlan();
  auto f0 = std::move(FragmentInstance::Create(*plan, 1, 10, {0}).value());
  auto f1 = std::move(FragmentInstance::Create(*plan, 1, 11, {1}).value());
  // Filter's edge to Map is remote for f0.
  ASSERT_EQ(f0->RemoteEdges(0).size(), 1u);
  EXPECT_EQ(f0->RemoteEdges(0)[0].to, 1);
  std::vector<FragmentInstance::Output> out;
  ASSERT_TRUE(f0->Inject(0, 0, MakeTuple(0, 0, {25, 7}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].is_result);
  // Feed it to the second fragment manually, as the entity runtime would.
  std::vector<FragmentInstance::Output> out2;
  ASSERT_TRUE(f1->Inject(1, 0, out[0].tuple, &out2).ok());
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_TRUE(out2[0].is_result);
}

TEST(FragmentTest, InjectUnknownOpFails) {
  auto plan = MakeLinearPlan();
  auto frag = std::move(FragmentInstance::Create(*plan, 1, 10, {0}).value());
  std::vector<FragmentInstance::Output> out;
  EXPECT_FALSE(frag->Inject(1, 0, MakeTuple(0, 0, {1, 2}), &out).ok());

  // Sparse operator ids: ops {1, 3} of a 5-op chain 0 -> 1 -> 2 -> 3 -> 4.
  // The fragment's per-op table has holes (0, 2) and ends before op 4.
  QueryPlan chain;
  common::OperatorId prev = chain.AddOperator(
      std::make_unique<FilterOp>(std::vector<int>{0}, interest::Box{{0, 50}}));
  ASSERT_TRUE(chain.BindStream(0, prev, 0).ok());
  for (int i = 1; i < 5; ++i) {
    auto next = chain.AddOperator(std::make_unique<MapOp>(std::vector<int>{0, 1}));
    ASSERT_TRUE(chain.Connect(prev, next, 0).ok());
    prev = next;
  }
  auto sparse = std::move(FragmentInstance::Create(chain, 1, 11, {3, 1}).value());
  EXPECT_EQ(sparse->op_ids(), (std::vector<common::OperatorId>{1, 3}));
  for (common::OperatorId op : {1, 3}) EXPECT_TRUE(sparse->Contains(op));
  ASSERT_EQ(sparse->RemoteEdges(1).size(), 1u);
  EXPECT_EQ(sparse->RemoteEdges(1)[0].to, 2);
  ASSERT_EQ(sparse->RemoteEdges(3).size(), 1u);
  EXPECT_EQ(sparse->RemoteEdges(3)[0].to, 4);
  // Absent (holes and the op past the last hosted one), negative and
  // past-the-plan ids.
  for (common::OperatorId op : {0, 2, 4, -1, 5, 1000}) {
    EXPECT_FALSE(sparse->Contains(op)) << op;
    EXPECT_TRUE(sparse->RemoteEdges(op).empty()) << op;
    out.clear();
    common::Status s = sparse->Inject(op, 0, MakeTuple(0, 0, {1, 2}), &out);
    EXPECT_EQ(s.code(), common::StatusCode::kNotFound) << op;
    EXPECT_TRUE(out.empty()) << op;
  }
  EXPECT_DOUBLE_EQ(sparse->DrainCpuCost(), 0.0);
  // A hosted op still runs: op 1's only edge leaves the fragment.
  out.clear();
  ASSERT_TRUE(sparse->Inject(1, 0, MakeTuple(0, 0, {1, 2}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].from_op, 1);
  EXPECT_FALSE(out[0].is_result);
}

// ----------------------------------------------------------------- Engines

std::shared_ptr<QueryPlan> MakeJoinPlan() {
  // stream0 and stream1 feed WindowJoin -> Agg(sink).
  auto plan = std::make_shared<QueryPlan>();
  auto j = plan->AddOperator(std::make_unique<WindowJoinOp>(50.0, 0, 0));
  auto a = plan->AddOperator(std::make_unique<WindowAggregateOp>(
      10.0, WindowAggregateOp::Func::kCount, 0, 1));
  EXPECT_TRUE(plan->Connect(j, a, 0).ok());
  EXPECT_TRUE(plan->BindStream(0, j, 0).ok());
  EXPECT_TRUE(plan->BindStream(1, j, 1).ok());
  return plan;
}

TEST(BasicEngineTest, InstallInjectRemove) {
  BasicEngine eng;
  auto plan = MakeLinearPlan();
  ASSERT_TRUE(
      eng.Install(std::move(FragmentInstance::Create(*plan, 1, 5, {0, 1}).value()))
          .ok());
  EXPECT_NE(eng.Find(5), nullptr);
  EXPECT_EQ(eng.fragment_ids(), (std::vector<common::FragmentId>{5}));
  // Duplicate id rejected.
  EXPECT_FALSE(
      eng.Install(std::move(FragmentInstance::Create(*plan, 1, 5, {0}).value()))
          .ok());
  std::vector<TaggedOutput> out;
  ASSERT_TRUE(eng.Inject(5, 0, 0, MakeTuple(0, 0, {10, 1}), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].fragment, 5);
  EXPECT_GT(eng.DrainCpuCost(), 0.0);
  auto removed = eng.Remove(5, &out);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(eng.Find(5), nullptr);
  EXPECT_FALSE(eng.Remove(5, &out).ok());
  EXPECT_FALSE(eng.Inject(5, 0, 0, MakeTuple(0, 0, {10, 1}), &out).ok());
}

/// Property: BatchEngine produces the same multiset of result values as
/// BasicEngine for the same input sequence (its batching must be purely a
/// physical optimization).
TEST(EngineEquivalenceTest, BatchMatchesBasicOutputs) {
  common::Rng rng(99);
  auto plan = MakeJoinPlan();
  BasicEngine basic;
  BatchEngine batch(8, 0.7, 1e-6);
  ASSERT_TRUE(
      basic
          .Install(std::move(FragmentInstance::Create(*plan, 1, 1, {0, 1}).value()))
          .ok());
  ASSERT_TRUE(
      batch
          .Install(std::move(FragmentInstance::Create(*plan, 1, 1, {0, 1}).value()))
          .ok());
  std::vector<TaggedOutput> out_basic, out_batch;
  double ts = 0.0;
  for (int i = 0; i < 300; ++i) {
    ts += rng.Exponential(10.0);
    int port = static_cast<int>(rng.NextUint64(2));
    Tuple t = MakeKeyed(port, ts, static_cast<int64_t>(rng.NextUint64(5)),
                        rng.Uniform(0, 1));
    ASSERT_TRUE(basic.Inject(1, 0, port, t, &out_basic).ok());
    ASSERT_TRUE(batch.Inject(1, 0, port, t, &out_batch).ok());
  }
  batch.Flush(&out_batch);
  ASSERT_EQ(out_basic.size(), out_batch.size());
  auto key = [](const TaggedOutput& o) {
    return std::make_tuple(AsInt64(o.output.tuple.values[0]),
                           AsDouble(o.output.tuple.values[1]),
                           o.output.tuple.timestamp);
  };
  std::vector<std::tuple<int64_t, double, double>> a, b;
  for (const auto& o : out_basic) a.push_back(key(o));
  for (const auto& o : out_batch) b.push_back(key(o));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(BatchEngineTest, BuffersUntilBatchSize) {
  BatchEngine eng(4, 0.7, 0.0);
  auto plan = MakeLinearPlan();
  ASSERT_TRUE(
      eng.Install(std::move(FragmentInstance::Create(*plan, 1, 1, {0, 1}).value()))
          .ok());
  std::vector<TaggedOutput> out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(eng.Inject(1, 0, 0, MakeTuple(0, i, {10, 1}), &out).ok());
  }
  EXPECT_TRUE(out.empty());  // buffered
  ASSERT_TRUE(eng.Inject(1, 0, 0, MakeTuple(0, 3, {10, 1}), &out).ok());
  EXPECT_EQ(out.size(), 4u);  // batch ran
}

TEST(BatchEngineTest, BatchCpuCheaperThanBasic) {
  auto plan = MakeLinearPlan();
  BasicEngine basic;
  BatchEngine batch(32, 0.5, 0.0);
  ASSERT_TRUE(
      basic
          .Install(std::move(FragmentInstance::Create(*plan, 1, 1, {0, 1}).value()))
          .ok());
  ASSERT_TRUE(
      batch
          .Install(std::move(FragmentInstance::Create(*plan, 1, 1, {0, 1}).value()))
          .ok());
  std::vector<TaggedOutput> out;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(basic.Inject(1, 0, 0, MakeTuple(0, i, {10, 1}), &out).ok());
    ASSERT_TRUE(batch.Inject(1, 0, 0, MakeTuple(0, i, {10, 1}), &out).ok());
  }
  batch.Flush(&out);
  EXPECT_LT(batch.DrainCpuCost(), basic.DrainCpuCost());
}

TEST(BatchEngineTest, RemoveFlushesBufferedWork) {
  BatchEngine eng(100, 1.0, 0.0);
  auto plan = MakeLinearPlan();
  ASSERT_TRUE(
      eng.Install(std::move(FragmentInstance::Create(*plan, 1, 1, {0, 1}).value()))
          .ok());
  std::vector<TaggedOutput> out;
  ASSERT_TRUE(eng.Inject(1, 0, 0, MakeTuple(0, 0, {10, 1}), &out).ok());
  EXPECT_TRUE(out.empty());
  auto removed = eng.Remove(1, &out);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(out.size(), 1u);  // buffered tuple was processed before removal
}

}  // namespace
}  // namespace dsps::engine
