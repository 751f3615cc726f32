#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "partition/graph_index.h"
#include "partition/query_graph.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace dsps::partition {
namespace {

/// Asserts two graphs are identical: vertex order, vertex weights, exact
/// adjacency-list order and weights, totals, and EdgeCut on a random
/// assignment. Adjacency ORDER matters — downstream partitioners break
/// ties by neighbor position, so any reordering could change placements.
void ExpectIdentical(const QueryGraph& a, const QueryGraph& b,
                     common::Rng* rng) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_DOUBLE_EQ(a.total_vertex_weight(), b.total_vertex_weight());
  EXPECT_DOUBLE_EQ(a.total_edge_weight(), b.total_edge_weight());
  for (int v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.query(v), b.query(v));
    EXPECT_DOUBLE_EQ(a.vertex_weight(v), b.vertex_weight(v));
    const auto& na = a.neighbors(v);
    const auto& nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "vertex " << v;
    for (size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].first, nb[i].first) << "vertex " << v << " slot " << i;
      EXPECT_DOUBLE_EQ(na[i].second, nb[i].second)
          << "vertex " << v << " slot " << i;
    }
  }
  if (a.num_vertices() > 0 && rng != nullptr) {
    std::vector<int> assign(a.num_vertices());
    for (int& p : assign) p = static_cast<int>(rng->NextUint64(4));
    EXPECT_DOUBLE_EQ(a.EdgeCut(assign), b.EdgeCut(assign));
  }
}

std::vector<engine::Query> MakeQueries(interest::StreamCatalog* catalog,
                                       int n, uint64_t seed) {
  common::Rng rng(seed);
  workload::MakeTickerStreams(3, workload::StockTickerGen::Config{}, catalog,
                              &rng);
  workload::QueryGen gen(workload::QueryGen::Config{}, catalog,
                         common::Rng(seed + 1));
  return gen.Batch(n);
}

/// The live set in ascending-id order (the order System feeds Build).
std::vector<engine::Query> LiveVector(
    const std::map<common::QueryId, engine::Query>& live) {
  std::vector<engine::Query> out;
  out.reserve(live.size());
  for (const auto& [id, q] : live) out.push_back(q);
  return out;
}

TEST(QueryGraphIndexTest, SequentialAddsMatchFullBuild) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    interest::StreamCatalog catalog;
    std::vector<engine::Query> queries = MakeQueries(&catalog, 60, seed);
    QueryGraph built = QueryGraph::Build(queries, catalog);
    QueryGraphIndex index(&catalog);
    for (const engine::Query& q : queries) index.AddQuery(q);
    EXPECT_EQ(index.size(), queries.size());
    common::Rng rng(seed + 9);
    ExpectIdentical(built, index.Graph(), &rng);
  }
}

TEST(QueryGraphIndexTest, ChurnWithReAddMatchesRebuild) {
  interest::StreamCatalog catalog;
  std::vector<engine::Query> queries = MakeQueries(&catalog, 80, 3);
  QueryGraphIndex index(&catalog);
  std::map<common::QueryId, engine::Query> live;
  std::vector<engine::Query> removed;
  for (const engine::Query& q : queries) {
    index.AddQuery(q);
    live[q.id] = q;
  }
  common::Rng rng(17);
  for (int round = 0; round < 6; ++round) {
    // Remove a random slice of the live set...
    std::vector<common::QueryId> ids;
    ids.reserve(live.size());
    for (const auto& [id, q] : live) ids.push_back(id);
    for (common::QueryId id : ids) {
      if (rng.Bernoulli(0.3)) {
        removed.push_back(live.at(id));
        live.erase(id);
        index.RemoveQuery(id);
      }
    }
    // ...and re-add some earlier casualties (remove-then-re-add churn,
    // the migration/eviction pattern System produces).
    std::vector<engine::Query> still_removed;
    for (const engine::Query& q : removed) {
      if (rng.Bernoulli(0.5)) {
        live[q.id] = q;
        index.AddQuery(q);
      } else {
        still_removed.push_back(q);
      }
    }
    removed = std::move(still_removed);
    QueryGraph built = QueryGraph::Build(LiveVector(live), catalog);
    EXPECT_EQ(index.size(), live.size());
    ExpectIdentical(built, index.Graph(), &rng);
  }
}

TEST(QueryGraphIndexTest, ReAddReplacesAndUnknownOpsAreNoOps) {
  interest::StreamCatalog catalog;
  std::vector<engine::Query> queries = MakeQueries(&catalog, 20, 9);
  QueryGraphIndex index(&catalog);
  for (const engine::Query& q : queries) index.AddQuery(q);
  // Re-adding an id replaces it (no duplicate vertices or edges).
  index.AddQuery(queries[4]);
  EXPECT_EQ(index.size(), queries.size());
  index.RemoveQuery(999999);  // unknown: no-op
  EXPECT_EQ(index.size(), queries.size());
  QueryGraph built = QueryGraph::Build(queries, catalog);
  common::Rng rng(31);
  ExpectIdentical(built, index.Graph(), &rng);
}

TEST(QueryGraphIndexTest, EmptyIndexMaterializesEmptyGraph) {
  interest::StreamCatalog catalog;
  common::Rng rng(1);
  workload::MakeTickerStreams(1, workload::StockTickerGen::Config{}, &catalog,
                              &rng);
  QueryGraphIndex index(&catalog);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.num_edges(), 0u);
  EXPECT_EQ(index.Graph().num_vertices(), 0);
}

}  // namespace
}  // namespace dsps::partition
