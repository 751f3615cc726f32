// Property: executing a query plan split into ANY set of fragments (with
// tuples routed across fragment boundaries the way the entity runtime
// does) produces exactly the same results as executing the whole plan in
// one fragment. This is the invariant that makes dynamic operator
// placement (Section 4.1) a pure performance decision.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "engine/fragment.h"
#include "engine/operators.h"
#include "engine/plan.h"

namespace dsps::engine {
namespace {

/// Runs `plan` with the given operator grouping, routing boundary tuples
/// between fragments; returns the multiset of result values.
std::vector<std::vector<double>> RunFragmented(
    const QueryPlan& plan, const std::vector<std::vector<common::OperatorId>>& groups,
    const std::vector<Tuple>& input, common::StreamId stream) {
  // Build fragments.
  std::vector<std::unique_ptr<FragmentInstance>> frags;
  std::map<common::OperatorId, FragmentInstance*> frag_of_op;
  common::FragmentId next_id = 1;
  for (const auto& ops : groups) {
    auto frag = FragmentInstance::Create(plan, 1, next_id++, ops);
    EXPECT_TRUE(frag.ok());
    frags.push_back(std::move(frag).value());
    for (common::OperatorId op : ops) frag_of_op[op] = frags.back().get();
  }
  std::vector<std::vector<double>> results;
  struct Work {
    FragmentInstance* frag;
    common::OperatorId op;
    int port;
    Tuple tuple;
  };
  std::deque<Work> queue;
  auto drain = [&]() {
    while (!queue.empty()) {
      Work w = std::move(queue.front());
      queue.pop_front();
      std::vector<FragmentInstance::Output> out;
      ASSERT_TRUE(w.frag->Inject(w.op, w.port, w.tuple, &out).ok());
      for (FragmentInstance::Output& o : out) {
        if (o.is_result) {
          std::vector<double> vals;
          for (const Value& v : o.tuple.values) vals.push_back(AsDouble(v));
          results.push_back(std::move(vals));
          continue;
        }
        for (const PlanEdge& e : w.frag->RemoteEdges(o.from_op)) {
          queue.push_back(
              Work{frag_of_op.at(e.to), e.to, e.to_port, o.tuple});
        }
      }
    }
  };
  (void)stream;
  for (const Tuple& t : input) {
    for (const StreamBinding& b : plan.bindings()) {
      if (b.stream != t.stream) continue;
      queue.push_back(Work{frag_of_op.at(b.to), b.to, b.to_port, t});
    }
    drain();
  }
  return results;
}

/// Random chain plan: Filter -> `length` x {Filter | WindowAggregate}, with
/// at least one WindowAggregate, so fragment cuts fall around a stateful
/// windowed operator. Each aggregate folds field 1 into one global group
/// (key -1), so every stage emits at most one tuple per input and the
/// result order does not depend on how fragments interleave their work.
std::unique_ptr<QueryPlan> RandomChain(common::Rng* rng, int length) {
  auto plan = std::make_unique<QueryPlan>();
  common::OperatorId prev = plan->AddOperator(std::make_unique<FilterOp>(
      std::vector<int>{0}, interest::Box{{0.0, rng->Uniform(40, 90)}}));
  if (!plan->BindStream(0, prev, 0).ok()) std::abort();
  const int aggregate_at = static_cast<int>(rng->NextUint64(length));
  for (int i = 0; i < length; ++i) {
    std::unique_ptr<Operator> op;
    if (i == aggregate_at || rng->Bernoulli(0.5)) {
      op = std::make_unique<WindowAggregateOp>(
          rng->Uniform(0.5, 2.0),
          static_cast<WindowAggregateOp::Func>(rng->NextUint64(5)),
          /*key_field=*/-1, /*value_field=*/1);
    } else {
      op = std::make_unique<FilterOp>(
          std::vector<int>{0}, interest::Box{{0.0, rng->Uniform(20, 80)}});
    }
    common::OperatorId next = plan->AddOperator(std::move(op));
    if (!plan->Connect(prev, next, 0).ok()) std::abort();
    prev = next;
  }
  return plan;
}

/// Random contiguous grouping of 0..n-1 into 1..n groups.
std::vector<std::vector<common::OperatorId>> RandomGrouping(common::Rng* rng,
                                                            int n) {
  std::vector<std::vector<common::OperatorId>> groups;
  groups.emplace_back();
  for (int i = 0; i < n; ++i) {
    if (!groups.back().empty() && rng->Bernoulli(0.4)) groups.emplace_back();
    groups.back().push_back(i);
  }
  return groups;
}

class FragmentEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FragmentEquivalence, AnyFragmentationMatchesWholePlan) {
  common::Rng rng(GetParam());
  auto plan = RandomChain(&rng, 2 + static_cast<int>(rng.NextUint64(4)));
  ASSERT_TRUE(plan->Validate().ok());
  const int n = plan->num_operators();
  // Input stream.
  std::vector<Tuple> input;
  double ts = 0.0;
  for (int i = 0; i < 200; ++i) {
    ts += rng.Exponential(20.0);
    Tuple t;
    t.stream = 0;
    t.timestamp = ts;
    t.values = {Value{rng.Uniform(0, 100)}, Value{rng.Uniform(0, 1)}};
    input.push_back(std::move(t));
  }
  // Reference: whole plan in one fragment.
  std::vector<common::OperatorId> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  auto reference = RunFragmented(*plan, {all}, input, 0);
  ASSERT_FALSE(reference.empty());
  // Several random fragmentations must match exactly.
  for (int trial = 0; trial < 5; ++trial) {
    auto groups = RandomGrouping(&rng, n);
    auto got = RunFragmented(*plan, groups, input, 0);
    ASSERT_EQ(got.size(), reference.size())
        << "groups=" << groups.size() << " trial=" << trial;
    EXPECT_EQ(got, reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentEquivalence,
                         ::testing::Values(1u, 7u, 42u, 1234u, 9999u));

TEST(FragmentEquivalenceJoin, JoinPlanSplitsCleanly) {
  common::Rng rng(5);
  auto plan = std::make_unique<QueryPlan>();
  auto f1 = plan->AddOperator(std::make_unique<FilterOp>(
      std::vector<int>{0}, interest::Box{{0, 100}}));
  auto f2 = plan->AddOperator(std::make_unique<FilterOp>(
      std::vector<int>{0}, interest::Box{{0, 100}}));
  auto j = plan->AddOperator(std::make_unique<WindowJoinOp>(50.0, 0, 0));
  ASSERT_TRUE(plan->Connect(f1, j, 0).ok());
  ASSERT_TRUE(plan->Connect(f2, j, 1).ok());
  ASSERT_TRUE(plan->BindStream(0, f1, 0).ok());
  ASSERT_TRUE(plan->BindStream(1, f2, 0).ok());
  std::vector<Tuple> input;
  double ts = 0.0;
  for (int i = 0; i < 120; ++i) {
    ts += rng.Exponential(10.0);
    Tuple t;
    t.stream = static_cast<common::StreamId>(rng.NextUint64(2));
    t.timestamp = ts;
    t.values = {Value{static_cast<int64_t>(rng.NextUint64(4))},
                Value{rng.Uniform(0, 1)}};
    input.push_back(std::move(t));
  }
  auto feed = [&](const std::vector<std::vector<common::OperatorId>>& groups) {
    // Both streams drive the same plan: route each tuple by its binding.
    std::vector<std::vector<double>> results;
    // RunFragmented handles per-binding dispatch via tuple.stream.
    return RunFragmented(*plan, groups, input, 0);
  };
  auto whole = feed({{0, 1, 2}});
  auto split_a = feed({{0}, {1}, {2}});
  auto split_b = feed({{0, 1}, {2}});
  auto split_c = feed({{0}, {1, 2}});
  EXPECT_EQ(split_a, whole);
  EXPECT_EQ(split_b, whole);
  EXPECT_EQ(split_c, whole);
  EXPECT_GT(whole.size(), 0u);
}

}  // namespace
}  // namespace dsps::engine
