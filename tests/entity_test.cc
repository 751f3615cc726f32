#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "engine/operators.h"
#include "entity/entity.h"
#include "placement/placement.h"
#include "placement/rebalancer.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace dsps::entity {
namespace {

using engine::FilterOp;
using engine::MapOp;
using engine::Query;
using engine::QueryPlan;
using engine::WindowJoinOp;

std::unique_ptr<engine::ExecutionEngine> MakeBasic() {
  return std::make_unique<engine::BasicEngine>();
}

Query FilterQuery(common::QueryId id, double lo, double hi,
                  common::StreamId stream = 0) {
  Query q;
  q.id = id;
  auto plan = std::make_shared<QueryPlan>();
  auto f = plan->AddOperator(
      std::make_unique<FilterOp>(std::vector<int>{0}, interest::Box{{lo, hi}}));
  EXPECT_TRUE(plan->BindStream(stream, f, 0).ok());
  q.plan = plan;
  q.interest.Add(stream, interest::Box{{lo, hi}});
  q.load = 1.0;
  return q;
}

Query PipelineQuery(common::QueryId id, int n_maps) {
  Query q;
  q.id = id;
  auto plan = std::make_shared<QueryPlan>();
  common::OperatorId prev = plan->AddOperator(std::make_unique<FilterOp>(
      std::vector<int>{0}, interest::Box{{0, 100}}));
  EXPECT_TRUE(plan->BindStream(0, prev, 0).ok());
  for (int i = 0; i < n_maps; ++i) {
    auto id2 = plan->AddOperator(std::make_unique<MapOp>(std::vector<int>{0, 1}));
    EXPECT_TRUE(plan->Connect(prev, id2, 0).ok());
    prev = id2;
  }
  q.plan = plan;
  q.interest.Add(0, interest::Box{{0, 100}});
  return q;
}

engine::Tuple MakeTuple(double v, double ts, common::StreamId stream = 0) {
  engine::Tuple t;
  t.stream = stream;
  t.timestamp = ts;
  t.values = {engine::Value{v}, engine::Value{1.0}};
  return t;
}

class EntityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<sim::Network>(&sim_);
    for (int i = 0; i < 4; ++i) {
      nodes_.push_back(network_->AddNode({0.1 * i, 0}));
    }
    policy_ = std::make_unique<placement::PrAwarePlacement>();
  }

  std::unique_ptr<Entity> MakeEntity(int procs = 4, int limit = 2) {
    Entity::Config cfg;
    cfg.distribution_limit = limit;
    std::vector<common::SimNodeId> nodes(nodes_.begin(),
                                         nodes_.begin() + procs);
    auto ent = std::make_unique<Entity>(0, network_.get(), nodes, MakeBasic,
                                        policy_.get(), cfg);
    ent->InstallHandlers();
    return ent;
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::Network> network_;
  std::vector<common::SimNodeId> nodes_;
  std::unique_ptr<placement::PrAwarePlacement> policy_;
};

TEST_F(EntityTest, FilterQueryProducesResults) {
  auto ent_ptr = MakeEntity();
  Entity& ent = *ent_ptr;
  ASSERT_TRUE(ent.InstallQuery(FilterQuery(1, 0, 50), 100.0).ok());
  EXPECT_EQ(ent.query_count(), 1u);
  int results = 0;
  ent.SetResultHandler([&](const Entity::ResultRecord& rec,
                           const engine::Tuple& t) {
    ++results;
    EXPECT_EQ(rec.query, 1);
    EXPECT_GT(rec.latency, 0.0);
    EXPECT_GT(rec.pr, 0.0);
    EXPECT_LE(engine::AsDouble(t.values[0]), 50.0);
  });
  for (int i = 0; i < 20; ++i) {
    ent.OnStreamTuple(MakeTuple(i * 5.0, sim_.now()));
    sim_.Run();
  }
  EXPECT_EQ(results, 11);  // values 0,5,...,50
  EXPECT_EQ(ent.results_count(), 11);
  EXPECT_EQ(ent.pr().count(), 11);
}

TEST_F(EntityTest, DuplicateQueryRejected) {
  auto ent_ptr = MakeEntity();
  Entity& ent = *ent_ptr;
  ASSERT_TRUE(ent.InstallQuery(FilterQuery(1, 0, 50), 100.0).ok());
  EXPECT_FALSE(ent.InstallQuery(FilterQuery(1, 0, 50), 100.0).ok());
}

TEST_F(EntityTest, RemoveQueryStopsResults) {
  auto ent_ptr = MakeEntity();
  Entity& ent = *ent_ptr;
  ASSERT_TRUE(ent.InstallQuery(FilterQuery(1, 0, 100), 100.0).ok());
  ASSERT_TRUE(ent.RemoveQuery(1).ok());
  EXPECT_EQ(ent.query_count(), 0u);
  EXPECT_FALSE(ent.RemoveQuery(1).ok());
  ent.OnStreamTuple(MakeTuple(5, 0));
  sim_.Run();
  EXPECT_EQ(ent.results_count(), 0);
  EXPECT_NEAR(ent.TotalCommittedLoad(), 0.0, 1e-12);
}

TEST_F(EntityTest, MultiFragmentPipelineWorksAcrossProcessors) {
  auto ent_ptr = MakeEntity(4, 3);
  Entity& ent = *ent_ptr;
  Query q = PipelineQuery(1, 5);
  ASSERT_TRUE(ent.InstallQuery(q, 1000.0).ok());
  int results = 0;
  ent.SetResultHandler(
      [&](const Entity::ResultRecord&, const engine::Tuple&) { ++results; });
  for (int i = 0; i < 10; ++i) {
    ent.OnStreamTuple(MakeTuple(50, sim_.now()));
    sim_.Run();
  }
  EXPECT_EQ(results, 10);
}

TEST_F(EntityTest, DistributionLimitRespectedInPlacement) {
  auto ent_ptr = MakeEntity(4, 2);
  Entity& ent = *ent_ptr;
  Query q = PipelineQuery(1, 7);
  ASSERT_TRUE(ent.InstallQuery(q, 1000.0).ok());
  // Count distinct processors across the query's fragments.
  std::set<common::ProcessorId> procs;
  for (common::FragmentId f = 1; f <= 8; ++f) {
    auto loc = ent.FragmentLocation(f);
    if (loc.ok()) procs.insert(loc.value());
  }
  EXPECT_LE(procs.size(), 2u);
  EXPECT_GE(procs.size(), 1u);
}

TEST_F(EntityTest, JoinQueryAcrossTwoStreams) {
  auto ent_ptr = MakeEntity();
  Entity& ent = *ent_ptr;
  Query q;
  q.id = 5;
  auto plan = std::make_shared<QueryPlan>();
  auto f1 = plan->AddOperator(std::make_unique<FilterOp>(
      std::vector<int>{0}, interest::Box{{0, 100}}));
  auto f2 = plan->AddOperator(std::make_unique<FilterOp>(
      std::vector<int>{0}, interest::Box{{0, 100}}));
  auto j = plan->AddOperator(std::make_unique<WindowJoinOp>(100.0, 0, 0));
  ASSERT_TRUE(plan->Connect(f1, j, 0).ok());
  ASSERT_TRUE(plan->Connect(f2, j, 1).ok());
  ASSERT_TRUE(plan->BindStream(0, f1, 0).ok());
  ASSERT_TRUE(plan->BindStream(1, f2, 0).ok());
  q.plan = plan;
  q.interest.Add(0, interest::Box{{0, 100}});
  q.interest.Add(1, interest::Box{{0, 100}});
  ASSERT_TRUE(ent.InstallQuery(q, 10.0).ok());
  int results = 0;
  ent.SetResultHandler(
      [&](const Entity::ResultRecord&, const engine::Tuple&) { ++results; });
  // Same key 7 on both streams -> one join result.
  ent.OnStreamTuple(MakeTuple(7, 0.0, 0));
  sim_.Run();
  ent.OnStreamTuple(MakeTuple(7, 0.001, 1));
  sim_.Run();
  EXPECT_EQ(results, 1);
}

TEST_F(EntityTest, DelegationAssignsDistinctProcessorsRoundRobin) {
  auto ent_ptr = MakeEntity(4);
  Entity& ent = *ent_ptr;
  std::set<common::ProcessorId> delegates;
  for (common::StreamId s = 0; s < 4; ++s) {
    delegates.insert(ent.DelegateFor(s));
  }
  EXPECT_EQ(delegates.size(), 4u);
  // Stable on re-query.
  EXPECT_EQ(ent.DelegateFor(0), ent.DelegateFor(0));
}

TEST_F(EntityTest, QueueingDelayGrowsWithLoad) {
  // One processor, heavy per-tuple cost: back-to-back tuples must queue.
  Entity::Config cfg;
  cfg.distribution_limit = 1;
  Entity ent(0, network_.get(), {nodes_[0]}, MakeBasic, policy_.get(), cfg);
  ent.InstallHandlers();
  Query q = FilterQuery(1, 0, 100);
  // Make the filter expensive (10 ms per tuple).
  auto plan = q.plan->Clone();
  plan->mutable_op(0)->set_cost_per_tuple(0.01);
  q.plan = std::shared_ptr<QueryPlan>(std::move(plan));
  ASSERT_TRUE(ent.InstallQuery(q, 100.0).ok());
  std::vector<double> latencies;
  ent.SetResultHandler([&](const Entity::ResultRecord& rec,
                           const engine::Tuple&) {
    latencies.push_back(rec.latency);
  });
  // Burst of 10 tuples at the same instant.
  for (int i = 0; i < 10; ++i) {
    ent.OnStreamTuple(MakeTuple(5, 0.0));
  }
  sim_.Run();
  ASSERT_EQ(latencies.size(), 10u);
  // Later tuples waited behind earlier ones.
  EXPECT_GT(latencies.back(), latencies.front() + 0.05);
  EXPECT_GT(ent.MaxUtilization(), 0.0);
}

TEST_F(EntityTest, IndexedDelegationMatchesNaive) {
  // With the delegate-side interest index on, results must be identical
  // to the naive fan-out (the index may only skip queries whose filter
  // would drop the tuple anyway).
  interest::StreamCatalog catalog;
  interest::StreamStats stats;
  stats.domain = interest::Box{{0, 100}, {0, 100}};
  catalog.Register(0, stats);
  auto run = [&](bool indexed) {
    sim::Simulator sim;
    sim::Network net(&sim);
    std::vector<common::SimNodeId> nodes{net.AddNode({0, 0}),
                                         net.AddNode({0.1, 0})};
    Entity::Config cfg;
    cfg.distribution_limit = 2;
    cfg.catalog = indexed ? &catalog : nullptr;
    Entity ent(0, &net, nodes, MakeBasic, policy_.get(), cfg);
    ent.InstallHandlers();
    std::map<common::QueryId, int> results;
    ent.SetResultHandler([&](const Entity::ResultRecord& rec,
                             const engine::Tuple&) { results[rec.query] += 1; });
    // Queries watching staggered bands.
    for (int i = 1; i <= 6; ++i) {
      Entity::Config dummy;
      (void)dummy;
      Query q;
      q.id = i;
      interest::Box box{{(i - 1) * 15.0, (i - 1) * 15.0 + 25.0}, {0, 100}};
      auto plan = std::make_shared<QueryPlan>();
      auto f = plan->AddOperator(
          std::make_unique<FilterOp>(std::vector<int>{0, 1}, box));
      EXPECT_TRUE(plan->BindStream(0, f, 0).ok());
      q.plan = plan;
      q.interest.Add(0, box);
      EXPECT_TRUE(ent.InstallQuery(q, 100.0).ok());
    }
    common::Rng rng(42);
    for (int i = 0; i < 200; ++i) {
      engine::Tuple t;
      t.stream = 0;
      t.timestamp = sim.now();
      t.values = {engine::Value{rng.Uniform(0, 100)},
                  engine::Value{rng.Uniform(0, 100)}};
      ent.OnStreamTuple(t);
      sim.Run();
    }
    return results;
  };
  auto naive = run(false);
  auto indexed = run(true);
  EXPECT_EQ(naive, indexed);
  EXPECT_GT(naive.size(), 0u);
}

/// Each query's results, in the order they were produced: the values and
/// the timestamp of every result tuple.
using ResultLog = std::map<common::QueryId, std::vector<std::vector<double>>>;

/// One query of the churn script: `kind` 0 = band filter with interest
/// (indexed on stream 0), 1 = the same filter without interest boxes
/// (always delivered), 2 = band filter -> three maps (several fragments),
/// 3 = band filter on stream 1 (not in the catalog: always delivered),
/// 4 = windowed join of a stream-0 band with stream 1.
Query ChurnQuery(common::QueryId id, int kind, double lo, double hi) {
  const interest::Box band{{lo, hi}, {0, 100}};
  Query q;
  q.id = id;
  auto plan = std::make_shared<QueryPlan>();
  const common::StreamId stream = kind == 3 ? 1 : 0;
  common::OperatorId f = plan->AddOperator(
      std::make_unique<FilterOp>(std::vector<int>{0, 1}, band));
  EXPECT_TRUE(plan->BindStream(stream, f, 0).ok());
  if (kind == 2) {
    for (int i = 0; i < 3; ++i) {
      auto m = plan->AddOperator(std::make_unique<MapOp>(std::vector<int>{0, 1}));
      EXPECT_TRUE(plan->Connect(f, m, 0).ok());
      f = m;
    }
  } else if (kind == 4) {
    auto other = plan->AddOperator(std::make_unique<FilterOp>(
        std::vector<int>{0}, interest::Box{{0, 100}}));
    EXPECT_TRUE(plan->BindStream(1, other, 0).ok());
    auto j = plan->AddOperator(std::make_unique<WindowJoinOp>(0.05, 0, 0));
    EXPECT_TRUE(plan->Connect(f, j, 0).ok());
    EXPECT_TRUE(plan->Connect(other, j, 1).ok());
    q.interest.Add(1, interest::Box{{0, 100}, {0, 100}});
  }
  q.plan = plan;
  if (kind != 1) q.interest.Add(stream, band);
  q.load = 1.0;
  return q;
}

/// Drives one entity through a seeded script that interleaves stream
/// tuples with installs, removals (some ids come back later), fragment
/// moves, rebalancing and elastic grow/shrink, and logs every result.
/// Every control step runs at quiescence, so with `batch_size` 0
/// (BasicEngine) nothing is in flight when routes change; a BatchEngine
/// whose batches never fill emits only on the flushes that moves and
/// removals force, at the same instants in both fan-out modes.
ResultLog RunChurnScript(bool indexed, int batch_size, uint64_t seed) {
  interest::StreamCatalog catalog;
  interest::StreamStats stats;
  stats.domain = interest::Box{{0, 100}, {0, 100}};
  catalog.Register(0, stats);
  sim::Simulator sim;
  sim::Network net(&sim);
  placement::PrAwarePlacement policy;
  std::vector<common::SimNodeId> nodes{net.AddNode({0, 0}),
                                       net.AddNode({0.1, 0})};
  Entity::Config cfg;
  cfg.distribution_limit = 2;
  cfg.catalog = indexed ? &catalog : nullptr;
  Entity::EngineFactory factory = MakeBasic;
  if (batch_size > 0) {
    factory = [batch_size] {
      return std::unique_ptr<engine::ExecutionEngine>(
          new engine::BatchEngine(batch_size));
    };
  }
  Entity ent(0, &net, nodes, factory, &policy, cfg);
  ent.InstallHandlers();
  ResultLog log;
  std::set<common::QueryId> installed;
  ent.SetResultHandler([&](const Entity::ResultRecord& rec,
                           const engine::Tuple& t) {
    EXPECT_EQ(installed.count(rec.query), 1u) << "result of removed query";
    std::vector<double> row{t.timestamp};
    for (const engine::Value& v : t.values) row.push_back(engine::AsDouble(v));
    log[rec.query].push_back(std::move(row));
  });
  common::Rng rng(seed);
  std::vector<common::QueryId> removed;
  std::map<common::QueryId, int> kind_of;
  common::QueryId next_query = 1;
  double ts = 0.0;
  auto install = [&](common::QueryId id, int kind) {
    const double lo = rng.Uniform(0, 80);
    Query q = ChurnQuery(id, kind, lo, lo + rng.Uniform(5, 40));
    ASSERT_TRUE(ent.InstallQuery(q, 50.0).ok());
    installed.insert(id);
    kind_of[id] = kind;
  };
  // The index may deliver a tuple only to queries whose interest holds it:
  // every live query fed through the index (kinds 0, 2, 4) has passed all
  // it got through its band filter (plan operator 0). Results alone would
  // not show a stale index entry, since that filter drops what it lets in.
  auto check_index_feeds_only_matches = [&] {
    if (!indexed) return;
    for (common::FragmentId f = 1; f < 400; ++f) {
      auto loc = ent.FragmentLocation(f);
      if (!loc.ok()) continue;
      const engine::FragmentInstance* frag =
          ent.processor(loc.value())->engine()->Find(f);
      ASSERT_NE(frag, nullptr);
      if (!frag->Contains(0) || kind_of[frag->query()] % 2 != 0) continue;
      EXPECT_EQ(frag->op(0).in_count(), frag->op(0).out_count())
          << "query " << frag->query();
    }
  };
  // Enough stream-0 boxes (kinds 0, 2 and 4 have one) for the index to
  // build its spline, so removals tombstone binding slots that installs
  // then recycle.
  for (int i = 0; i < 60; ++i) install(next_query++, i % 5);
  if (indexed) {
    interest::IndexStats stats;
    ent.CollectIndexStats(&stats);
    EXPECT_GE(stats.boxes,
              static_cast<int64_t>(interest::BoxIndex::kSplineBuildMin));
  }
  sim.Run();
  for (int step = 0; step < 160; ++step) {
    const uint64_t op = rng.NextUint64(12);
    if (op < 6) {
      // A burst of tuples on both streams; the clock of tuple time is the
      // script's, so window operators see the same times in both runs.
      for (int k = 0; k < 6; ++k) {
        engine::Tuple t;
        t.stream = static_cast<common::StreamId>(rng.NextUint64(2));
        t.timestamp = (ts += 0.01);
        t.values = {engine::Value{rng.Uniform(0, 100)},
                    engine::Value{rng.Uniform(0, 100)}};
        ent.OnStreamTuple(t);
      }
    } else if (op == 6) {
      // Install a fresh id or bring a removed one back.
      if (!removed.empty() && rng.NextUint64(2) == 0) {
        const size_t pick = rng.NextUint64(removed.size());
        const common::QueryId id = removed[pick];
        removed.erase(removed.begin() + static_cast<long>(pick));
        install(id, static_cast<int>(rng.NextUint64(5)));
      } else {
        install(next_query++, static_cast<int>(rng.NextUint64(5)));
      }
    } else if (op == 7) {
      if (installed.empty()) continue;
      auto it = installed.begin();
      std::advance(it, static_cast<long>(rng.NextUint64(installed.size())));
      const common::QueryId id = *it;
      EXPECT_TRUE(ent.RemoveQuery(id).ok());
      installed.erase(id);
      removed.push_back(id);
    } else if (op == 8) {
      // Move a live fragment (ids are dense from 1) to another processor.
      std::vector<common::FragmentId> live;
      for (common::FragmentId f = 1; f < 400; ++f) {
        if (ent.FragmentLocation(f).ok()) live.push_back(f);
      }
      if (live.empty()) continue;
      const common::FragmentId f = live[rng.NextUint64(live.size())];
      const auto to = static_cast<common::ProcessorId>(
          rng.NextUint64(static_cast<uint64_t>(ent.num_processors())));
      EXPECT_TRUE(ent.MoveFragment(f, to).ok());
    } else if (op == 9) {
      placement::Rebalancer::Config rb;
      rb.slack = 0.01;
      ent.Rebalance(placement::Rebalancer(rb));
    } else if (op == 10) {
      if (ent.num_processors() >= 4) continue;
      const common::SimNodeId node =
          net.AddNode({0.1 * ent.num_processors(), 0.1});
      net.SetHandler(node, [&ent](const sim::Message& msg) {
        ent.HandleMessage(msg);
      });
      ent.AddProcessor(node);
    } else {
      if (ent.num_processors() <= 1) continue;
      EXPECT_TRUE(ent.RemoveLastProcessor().ok());
    }
    sim.Run();
    check_index_feeds_only_matches();
  }
  return log;
}

TEST_F(EntityTest, IndexedDelegationMatchesNaiveUnderChurn) {
  // The bound routes (per-stream bindings, the always-deliver list, the
  // index's binding slots, fragment handles and per-fragment remote
  // routes) are rewritten by every install, removal, move, rebalance and
  // grow/shrink. A stale entry would send a tuple to a removed or
  // recycled binding, or feed a fragment where it no longer lives: the
  // indexed entity's per-query results must equal the naive fan-out's.
  for (int batch_size : {0, 1 << 20}) {
    for (uint64_t seed : {1, 2, 3}) {
      ResultLog naive = RunChurnScript(false, batch_size, seed);
      ResultLog indexed = RunChurnScript(true, batch_size, seed);
      EXPECT_EQ(naive, indexed) << "batch " << batch_size << " seed " << seed;
      size_t results = 0;
      for (const auto& [q, rows] : naive) results += rows.size();
      EXPECT_GT(results, 50u) << "batch " << batch_size << " seed " << seed;
    }
  }
}

TEST_F(EntityTest, ShrinkRoutesPendingEmissionFromFragmentsNewHost) {
  // Regression: an emission scheduled on a processor that
  // RemoveLastProcessor then retires must reach its downstream fragment
  // exactly once, sent on from the fragment's new host (it used to abort
  // on the retired processor id).
  auto ent_ptr = MakeEntity(2, 2);
  Entity& ent = *ent_ptr;
  ASSERT_TRUE(ent.InstallQuery(PipelineQuery(1, 3), 1000.0).ok());
  int results = 0;
  ent.SetResultHandler([&](const Entity::ResultRecord& rec,
                           const engine::Tuple&) {
    EXPECT_EQ(rec.query, 1);
    ++results;
  });
  int fragments = 0;
  for (common::FragmentId f = 1; ent.FragmentLocation(f).ok(); ++f) {
    ASSERT_TRUE(ent.MoveFragment(f, f == 1 ? 1 : 0).ok());
    ++fragments;
  }
  ASSERT_GE(fragments, 2);
  sim_.Run();
  ent.OnStreamTuple(MakeTuple(50, sim_.now()));
  while (ent.processor(1)->tuples_processed() == 0) ASSERT_TRUE(sim_.Step());
  ASSERT_TRUE(ent.RemoveLastProcessor().ok());
  EXPECT_EQ(ent.FragmentLocation(1).value(), 0);
  // A processor added now takes the retired id; the pending emission must
  // not be attributed to it.
  const common::SimNodeId fresh = network_->AddNode({0.5, 0});
  network_->SetHandler(fresh, [&ent](const sim::Message& msg) {
    ent.HandleMessage(msg);
  });
  ASSERT_EQ(ent.AddProcessor(fresh), 1);
  const int64_t sent = network_->total_messages();
  sim_.Run();
  EXPECT_EQ(results, 1);
  // Fragment 1's host also hosts the rest of the pipeline, so the output
  // was submitted there directly: no LAN hop left the retired processor
  // or the newcomer.
  EXPECT_EQ(network_->total_messages(), sent);
  EXPECT_EQ(ent.processor(1)->tuples_processed(), 0);
}

TEST_F(EntityTest, BatchEngineEntityProducesSameResults) {
  Entity::Config cfg;
  cfg.distribution_limit = 2;
  Entity basic(0, network_.get(), {nodes_[0], nodes_[1]}, MakeBasic,
               policy_.get(), cfg);
  basic.InstallHandlers();
  int basic_results = 0;
  basic.SetResultHandler(
      [&](const Entity::ResultRecord&, const engine::Tuple&) {
        ++basic_results;
      });
  ASSERT_TRUE(basic.InstallQuery(FilterQuery(1, 0, 50), 100.0).ok());
  for (int i = 0; i < 32; ++i) {
    basic.OnStreamTuple(MakeTuple(i * 3.0, sim_.now()));
  }
  sim_.Run();

  sim::Simulator sim2;
  sim::Network net2(&sim2);
  std::vector<common::SimNodeId> nodes2{net2.AddNode({0, 0}),
                                        net2.AddNode({0.1, 0})};
  Entity batch(0, &net2, nodes2,
               [] {
                 return std::unique_ptr<engine::ExecutionEngine>(
                     new engine::BatchEngine(4));
               },
               policy_.get(), cfg);
  batch.InstallHandlers();
  int batch_results = 0;
  batch.SetResultHandler(
      [&](const Entity::ResultRecord&, const engine::Tuple&) {
        ++batch_results;
      });
  ASSERT_TRUE(batch.InstallQuery(FilterQuery(1, 0, 50), 100.0).ok());
  for (int i = 0; i < 32; ++i) {
    batch.OnStreamTuple(MakeTuple(i * 3.0, sim2.now()));
  }
  sim2.Run();
  EXPECT_EQ(basic_results, batch_results);
}

}  // namespace
}  // namespace dsps::entity
