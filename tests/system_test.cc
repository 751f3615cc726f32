#include <gtest/gtest.h>

#include <memory>

#include "partition/partitioner.h"
#include "partition/query_graph.h"
#include "partition/repartitioner.h"
#include "system/auditor.h"
#include "system/system.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace dsps::system {
namespace {

System::Config SmallConfig(AllocationMode mode = AllocationMode::kRoundRobin) {
  System::Config cfg;
  cfg.topology.num_entities = 4;
  cfg.topology.processors_per_entity = 2;
  cfg.topology.num_sources = 2;
  cfg.allocation = mode;
  cfg.seed = 7;
  return cfg;
}

std::vector<std::unique_ptr<workload::StreamGen>> SmallStreams(
    int n, double rate = 200.0) {
  workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = rate;
  interest::StreamCatalog scratch;
  common::Rng rng(3);
  return workload::MakeTickerStreams(n, tcfg, &scratch, &rng);
}

engine::Query WideQuery(common::QueryId id, common::StreamId stream) {
  engine::Query q;
  q.id = id;
  auto plan = std::make_shared<engine::QueryPlan>();
  // Accept all symbols/prices/volumes (wide interest so results flow).
  interest::Box box{{-1, 1000}, {-1, 1000}, {-1, 1e9}};
  auto f = plan->AddOperator(std::make_unique<engine::FilterOp>(
      std::vector<int>{0, 1, 2}, box));
  EXPECT_TRUE(plan->BindStream(stream, f, 0).ok());
  q.plan = plan;
  q.interest.Add(stream, box);
  q.load = 1.0;
  return q;
}

TEST(SystemTest, EndToEndResultsFlow) {
  System sys(SmallConfig());
  sys.AddStreams(SmallStreams(2));
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(2, 1)).ok());
  sys.GenerateTraffic(2.0);
  sys.RunUntil(3.0);
  SystemMetrics m = sys.Collect();
  EXPECT_GT(m.results, 100);
  EXPECT_GT(m.delivered_tuples, 100);
  EXPECT_GT(m.wan_bytes, 0);
  EXPECT_GT(m.latency.p50(), 0.0);
  EXPECT_GT(m.pr.p50(), 0.0);
}

TEST(SystemTest, QueriesLandOnEntities) {
  System sys(SmallConfig(AllocationMode::kCoordinatorTree));
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
    EXPECT_NE(sys.EntityOf(i), common::kInvalidEntity);
  }
  EXPECT_EQ(sys.EntityOf(99), common::kInvalidEntity);
}

TEST(SystemTest, GraphPartitionBatchAllocation) {
  System::Config cfg = SmallConfig(AllocationMode::kGraphPartition);
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  workload::QueryGen::Config qcfg;
  qcfg.join_prob = 0.0;
  workload::QueryGen gen(qcfg, &sys.catalog(), common::Rng(5));
  auto queries = gen.Batch(16);
  ASSERT_TRUE(sys.SubmitBatch(queries).ok());
  // Every query got a home; homes cover multiple entities.
  std::set<common::EntityId> homes;
  for (const auto& q : queries) {
    ASSERT_NE(sys.EntityOf(q.id), common::kInvalidEntity);
    homes.insert(sys.EntityOf(q.id));
  }
  EXPECT_GT(homes.size(), 1u);
  // Each home is the joint partition's part for that query (every entity
  // is alive, so part i is entity i).
  partition::QueryGraph graph =
      partition::QueryGraph::Build(queries, sys.catalog());
  auto parts = partition::MultilevelPartitioner().Partition(
      graph, sys.num_entities(), System::kBalanceTolerance);
  ASSERT_TRUE(parts.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(sys.EntityOf(queries[i].id), parts.value()[i]) << i;
  }
}

TEST(SystemTest, GraphPartitionBatchResultsReachClients) {
  // A graph-partitioned batch assigns clients like every other path, so
  // on a loss-free run every result reaches one.
  System::Config cfg = SmallConfig(AllocationMode::kGraphPartition);
  cfg.topology.num_entities = 8;
  cfg.num_clients = 4;
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  workload::QueryGen gen(workload::QueryGen::Config{}, &sys.catalog(),
                         common::Rng(5));
  ASSERT_TRUE(sys.SubmitBatch(gen.Batch(64)).ok());
  sys.GenerateTraffic(1.0);
  sys.RunUntil(2.0);
  SystemMetrics m = sys.Collect();
  ASSERT_GT(m.results, 0);
  EXPECT_EQ(m.client_results, m.results);
}

TEST(SystemTest, EarlyFilterCutsWanBytes) {
  auto run = [&](bool early) {
    System::Config cfg = SmallConfig();
    cfg.dissemination.early_filter = early;
    System sys(cfg);
    sys.AddStreams(SmallStreams(2));
    // One narrow query: most tuples are uninteresting.
    engine::Query q;
    q.id = 1;
    auto plan = std::make_shared<engine::QueryPlan>();
    interest::Box box{{0, 2}, {0, 100}, {0, 1e9}};
    auto f = plan->AddOperator(std::make_unique<engine::FilterOp>(
        std::vector<int>{0, 1, 2}, box));
    EXPECT_TRUE(plan->BindStream(0, f, 0).ok());
    q.plan = plan;
    q.interest.Add(0, box);
    EXPECT_TRUE(sys.SubmitQuery(q).ok());
    sys.GenerateTraffic(2.0);
    sys.RunUntil(3.0);
    return sys.Collect().wan_bytes;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(SystemTest, CoordinatorBalancesBetterThanIsolated) {
  auto imbalance = [&](AllocationMode mode) {
    System sys(SmallConfig(mode));
    sys.AddStreams(SmallStreams(2));
    workload::QueryGen gen(workload::QueryGen::Config{}, &sys.catalog(),
                           common::Rng(11));
    for (const auto& q : gen.Batch(40)) {
      EXPECT_TRUE(sys.SubmitQuery(q).ok());
    }
    return sys.Collect().entity_load_imbalance;
  };
  double coord = imbalance(AllocationMode::kCoordinatorTree);
  double isolated = imbalance(AllocationMode::kIsolatedZipf);
  EXPECT_LT(coord, isolated);
}

TEST(SystemTest, MixedEnginesInteroperate) {
  // Entities run different engine families ("mixed") yet the system
  // produces results from all of them — the loose-coupling property.
  System sys(SmallConfig(AllocationMode::kRoundRobin));
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, 0)).ok());
  }
  sys.GenerateTraffic(2.0);
  sys.RunUntil(3.5);
  // All four entities host one query each (round robin) and each produced
  // results.
  for (int e = 0; e < sys.num_entities(); ++e) {
    EXPECT_GT(sys.entity_at(e)->results_count(), 0) << "entity " << e;
  }
}

TEST(SystemTest, InterestAwareAllocationCutsWanBytes) {
  auto run = [&](AllocationMode mode) {
    System::Config cfg = SmallConfig(mode);
    cfg.topology.num_entities = 8;
    System sys(cfg);
    sys.AddStreams(SmallStreams(2));
    // Hotspot workload: heavy interest overlap between queries.
    workload::QueryGen::Config qcfg;
    qcfg.join_prob = 0;
    qcfg.agg_prob = 0;
    qcfg.num_hotspots = 2;
    qcfg.hotspot_prob = 0.95;
    qcfg.width_min_frac = 0.2;
    qcfg.width_max_frac = 0.5;
    workload::QueryGen gen(qcfg, &sys.catalog(), common::Rng(13));
    for (const auto& q : gen.Batch(48)) {
      EXPECT_TRUE(sys.SubmitQuery(q).ok());
    }
    sys.GenerateTraffic(2.0);
    sys.RunUntil(3.0);
    SystemMetrics m = sys.Collect();
    return std::make_pair(m.wan_bytes, m.entity_load_imbalance);
  };
  auto [wan_plain, imb_plain] = run(AllocationMode::kCoordinatorTree);
  auto [wan_interest, imb_interest] = run(AllocationMode::kCoordinatorInterest);
  // Co-locating overlapping queries reduces duplicate dissemination.
  EXPECT_LT(wan_interest, wan_plain);
  // Balance must not collapse.
  EXPECT_LT(imb_interest, 8.0);
}

TEST(SystemTest, RemoveQueryClearsInterest) {
  System sys(SmallConfig());
  sys.AddStreams(SmallStreams(2));
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
  common::EntityId home = sys.EntityOf(1);
  ASSERT_TRUE(sys.RemoveQuery(1).ok());
  EXPECT_EQ(sys.EntityOf(1), common::kInvalidEntity);
  EXPECT_FALSE(sys.RemoveQuery(1).ok());
  EXPECT_EQ(sys.entity_at(home)->query_count(), 0u);
  // With no interest left, traffic produces no deliveries to that entity.
  sys.GenerateTraffic(1.0);
  sys.RunUntil(2.0);
  EXPECT_EQ(sys.Collect().results, 0);
}

TEST(SystemTest, FailEntityRehomesQueries) {
  System sys(SmallConfig(AllocationMode::kRoundRobin));
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  // Fail the entity hosting query 1.
  common::EntityId victim = sys.EntityOf(1);
  auto rehomed = sys.FailEntity(victim);
  ASSERT_TRUE(rehomed.ok());
  EXPECT_GE(rehomed.value(), 1);
  EXPECT_FALSE(sys.IsAlive(victim));
  EXPECT_EQ(sys.num_alive(), 3);
  // Every query has a live home now.
  for (int i = 1; i <= 8; ++i) {
    common::EntityId home = sys.EntityOf(i);
    ASSERT_NE(home, common::kInvalidEntity) << "query " << i;
    EXPECT_NE(home, victim);
    EXPECT_TRUE(sys.IsAlive(home));
  }
  // The system still produces results after the failure.
  sys.GenerateTraffic(1.5);
  sys.RunUntil(3.0);
  EXPECT_GT(sys.Collect().results, 50);
  // Double failure is rejected; failing everyone is rejected.
  EXPECT_FALSE(sys.FailEntity(victim).ok());
  EXPECT_FALSE(sys.FailEntity(99).ok());
}

TEST(SystemTest, MaintenanceRunsAndKeepsResultsFlowing) {
  System::Config cfg = SmallConfig();
  cfg.dissemination.tree.policy = dissemination::TreePolicy::kRandom;
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  sys.EnableMaintenance(0.5, 3.0);
  sys.GenerateTraffic(3.0);
  sys.RunUntil(4.0);
  EXPECT_GE(sys.maintenance_stats().rounds, 4);
  EXPECT_GT(sys.Collect().results, 100);
}

TEST(SystemTest, MigrateQueryMovesHomeAndKeepsResults) {
  System sys(SmallConfig(AllocationMode::kRoundRobin));
  sys.AddStreams(SmallStreams(2));
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
  common::EntityId from = sys.EntityOf(1);
  common::EntityId to = (from + 1) % sys.num_entities();
  ASSERT_TRUE(sys.MigrateQuery(1, to).ok());
  EXPECT_EQ(sys.EntityOf(1), to);
  EXPECT_EQ(sys.entity_at(from)->query_count(), 0u);
  EXPECT_EQ(sys.entity_at(to)->query_count(), 1u);
  sys.GenerateTraffic(1.0);
  sys.RunUntil(2.0);
  EXPECT_GT(sys.Collect().results, 50);
  EXPECT_FALSE(sys.MigrateQuery(99, to).ok());
  EXPECT_TRUE(sys.MigrateQuery(1, to).ok());  // no-op move
}

TEST(SystemTest, LiveRepartitioningImprovesPlacement) {
  // Pile everything on one entity (isolated-zipf-like), then one hybrid
  // repartitioning round must spread it out.
  System sys(SmallConfig(AllocationMode::kRoundRobin));
  sys.AddStreams(SmallStreams(2));
  workload::QueryGen gen(workload::QueryGen::Config{}, &sys.catalog(),
                         common::Rng(21));
  auto queries = gen.Batch(24);
  for (const auto& q : queries) {
    ASSERT_TRUE(sys.SubmitQuery(q).ok());
  }
  // Force-migrate everything to entity 0 to create a degenerate start.
  for (const auto& q : queries) {
    ASSERT_TRUE(sys.MigrateQuery(q.id, 0).ok());
  }
  partition::HybridRepartitioner hybrid;
  auto report = sys.RepartitionQueries(&hybrid);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().migrations, 0);
  EXPECT_LT(report.value().imbalance, 1.5);
  // Homes now span several entities.
  std::set<common::EntityId> homes;
  for (const auto& q : queries) homes.insert(sys.EntityOf(q.id));
  EXPECT_GE(homes.size(), 3u);
}

TEST(SystemTest, ClientLatencyRecorded) {
  System::Config cfg = SmallConfig(AllocationMode::kCoordinatorTree);
  cfg.num_clients = 4;
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  sys.GenerateTraffic(1.5);
  sys.RunUntil(3.0);
  SystemMetrics m = sys.Collect();
  EXPECT_GT(m.client_results, 50);
  EXPECT_GT(m.client_latency.p50(), 0.0);
  // Client latency includes the entity->client WAN hop, so it dominates
  // the entity-side latency.
  EXPECT_GE(m.client_latency.p50(), m.latency.p50());
}

TEST(SystemTest, SubmitQueriesMatchesSerialSubmission) {
  // Outside joint graph placement a batch is the SubmitQuery loop: it
  // picks the same homes, tallies every verdict, and produces the same
  // simulation as per-query submission.
  System serial(SmallConfig(AllocationMode::kCoordinatorTree));
  serial.AddStreams(SmallStreams(2));
  System batch(SmallConfig(AllocationMode::kCoordinatorTree));
  batch.AddStreams(SmallStreams(2));
  workload::QueryGen gen(workload::QueryGen::Config{}, &serial.catalog(),
                         common::Rng(13));
  std::vector<engine::Query> queries = gen.Batch(48);
  for (const engine::Query& q : queries) {
    ASSERT_TRUE(serial.SubmitQuery(q).ok());
  }
  System::BatchSubmitResult result = batch.SubmitQueries(queries);
  EXPECT_EQ(result.admitted, 48);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_EQ(result.failed, 0);
  for (const engine::Query& q : queries) {
    EXPECT_EQ(serial.EntityOf(q.id), batch.EntityOf(q.id)) << q.id;
  }
  serial.GenerateTraffic(1.0);
  serial.RunUntil(2.0);
  batch.GenerateTraffic(1.0);
  batch.RunUntil(2.0);
  SystemMetrics ms = serial.Collect();
  SystemMetrics mb = batch.Collect();
  EXPECT_EQ(ms.results, mb.results);
  EXPECT_EQ(ms.delivered_tuples, mb.delivered_tuples);
  EXPECT_EQ(ms.wan_bytes, mb.wan_bytes);
}

TEST(SystemTest, SubmitQueriesMatchesSerialUnderAdmissionRefusals) {
  // Near-limit admission refusals: the batch tally (admitted vs
  // rejected) and every home must match the serial loop exactly.
  auto make = [] {
    System::Config cfg = SmallConfig(AllocationMode::kRoundRobin);
    cfg.admission.load_factor = 1.0;  // limit 2.0 per entity, unit loads
    return cfg;
  };
  System serial(make());
  serial.AddStreams(SmallStreams(2));
  System batch(make());
  batch.AddStreams(SmallStreams(2));
  std::vector<engine::Query> queries;
  for (int i = 1; i <= 24; ++i) queries.push_back(WideQuery(i, i % 2));
  int64_t ok = 0, refused = 0;
  for (const engine::Query& q : queries) {
    common::Status st = serial.SubmitQuery(q);
    if (st.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(st.code(), common::StatusCode::kResourceExhausted);
      ++refused;
    }
  }
  ASSERT_GT(refused, 0);  // the config must actually force refusals
  System::BatchSubmitResult result = batch.SubmitQueries(queries);
  EXPECT_EQ(result.admitted, ok);
  EXPECT_EQ(result.rejected, refused);
  EXPECT_EQ(result.failed, 0);
  for (const engine::Query& q : queries) {
    EXPECT_EQ(serial.EntityOf(q.id), batch.EntityOf(q.id)) << q.id;
  }
}

TEST(SystemTest, JointBatchWhileGraphIndexIsLiveKeepsItExact) {
  // The query-graph index exists from the first repartition on; a joint
  // batch submitted after it must apply one add delta per install, so
  // the index still equals a rebuild over the live queries.
  System sys(SmallConfig(AllocationMode::kGraphPartition));
  sys.AddStreams(SmallStreams(2));
  workload::QueryGen gen(workload::QueryGen::Config{}, &sys.catalog(),
                         common::Rng(17));
  ASSERT_TRUE(sys.SubmitBatch(gen.Batch(24)).ok());
  partition::HybridRepartitioner hybrid;
  ASSERT_TRUE(sys.RepartitionQueries(&hybrid).ok());
  const double graph_us = sys.install_profile().graph_us;
  System::BatchSubmitResult result = sys.SubmitQueries(gen.Batch(24));
  EXPECT_EQ(result.admitted, 24);
  EXPECT_GT(sys.install_profile().graph_us, graph_us);
  Auditor* auditor = sys.EnableAudit(1.0, sys.now(), /*fatal=*/false);
  EXPECT_EQ(auditor->RunOnce(), 0);
  for (const Auditor::CheckStats& check : auditor->checks()) {
    EXPECT_EQ(check.violations, 0) << check.name << ": " << check.last_detail;
  }
}

// A conservation audit sweep over `sys` finds nothing.
void ExpectCleanAudit(System* sys) {
  Auditor* auditor = sys->EnableAudit(1.0, sys->now(), /*fatal=*/false);
  EXPECT_EQ(auditor->RunOnce(), 0);
  for (const Auditor::CheckStats& check : auditor->checks()) {
    EXPECT_EQ(check.violations, 0) << check.name << ": " << check.last_detail;
  }
}

TEST(SystemTest, SecondSubmissionOfALiveIdIsRefused) {
  // One live copy per query id: a resubmitted placed id must neither move
  // its home nor leave the first entity running an untracked copy.
  System sys(SmallConfig());
  sys.AddStreams(SmallStreams(2));
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
  const common::EntityId home = sys.EntityOf(1);
  ASSERT_NE(home, common::kInvalidEntity);
  EXPECT_EQ(sys.SubmitQuery(WideQuery(1, 0)).code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_EQ(sys.EntityOf(1), home);
  ExpectCleanAudit(&sys);
}

TEST(SystemTest, JointBatchRefusesLiveAndRepeatedIds) {
  // The joint graph-partition path refuses what SubmitQuery refuses, and
  // a repeat within the batch, before partitioning.
  System sys(SmallConfig(AllocationMode::kGraphPartition));
  sys.AddStreams(SmallStreams(2));
  workload::QueryGen gen(workload::QueryGen::Config{}, &sys.catalog(),
                         common::Rng(17));
  const std::vector<engine::Query> placed = gen.Batch(8);
  ASSERT_TRUE(sys.SubmitBatch(placed).ok());
  std::vector<common::EntityId> homes;
  for (const engine::Query& q : placed) homes.push_back(sys.EntityOf(q.id));
  const std::vector<engine::Query> fresh = gen.Batch(2);
  System::BatchSubmitResult result = sys.SubmitQueries(std::vector<engine::Query>{
      placed[0], fresh[0], placed[5], fresh[1], fresh[0]});
  EXPECT_EQ(result.admitted, 2);
  EXPECT_EQ(result.failed, 3);
  EXPECT_EQ(result.first_error.code(), common::StatusCode::kAlreadyExists);
  for (size_t i = 0; i < placed.size(); ++i) {
    EXPECT_EQ(sys.EntityOf(placed[i].id), homes[i]) << i;
  }
  for (const engine::Query& q : fresh) {
    EXPECT_NE(sys.EntityOf(q.id), common::kInvalidEntity) << q.id;
  }
  ExpectCleanAudit(&sys);
}

TEST(SystemTest, DeterministicForSeed) {
  auto run = [] {
    System sys(SmallConfig());
    sys.AddStreams(SmallStreams(2));
    EXPECT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
    sys.GenerateTraffic(1.0);
    sys.RunUntil(2.0);
    SystemMetrics m = sys.Collect();
    return std::make_tuple(m.results, m.wan_bytes, m.delivered_tuples);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dsps::system
