// Financial-market monitoring (the paper's motivating scenario): many
// clients watch overlapping slices of a handful of exchange feeds. The
// example shows how interest overlap drives both the query-graph
// allocation and the early-filtered dissemination, and prints a per-entity
// breakdown.
//
//   $ ./build/examples/stock_ticker

#include <cstdio>
#include <memory>

#include "engine/operators.h"
#include "system/system.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

int main() {
  dsps::system::System::Config cfg;
  cfg.topology.num_entities = 8;
  cfg.topology.processors_per_entity = 4;
  cfg.topology.num_sources = 3;
  // Batch allocation by weighted graph partitioning (Section 3.2.2):
  // queries with overlapping interest land together.
  cfg.allocation = dsps::system::AllocationMode::kGraphPartition;
  cfg.seed = 2024;
  dsps::system::System sys(cfg);

  // Three exchanges with hot symbols (Zipf trades).
  dsps::workload::StockTickerGen::Config ticker;
  ticker.num_symbols = 200;
  ticker.zipf_s = 1.1;
  ticker.tuples_per_s = 300.0;
  dsps::interest::StreamCatalog scratch;
  dsps::common::Rng rng(5);
  sys.AddStreams(dsps::workload::MakeTickerStreams(3, ticker, &scratch, &rng));

  // 64 client queries with hotspot locality: most watch the same few
  // symbol/price regions.
  dsps::workload::QueryGen::Config qcfg;
  qcfg.join_prob = 0.1;   // some cross-exchange correlation queries
  qcfg.agg_prob = 0.3;    // some per-symbol rolling averages
  qcfg.num_hotspots = 3;
  qcfg.hotspot_prob = 0.85;
  dsps::workload::QueryGen gen(qcfg, &sys.catalog(), dsps::common::Rng(17));
  auto queries = gen.Batch(64);
  dsps::common::Status s = sys.SubmitBatch(queries);
  if (!s.ok()) {
    std::fprintf(stderr, "batch submit failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("query -> entity allocation (graph partitioning):\n");
  std::vector<int> per_entity(sys.num_entities(), 0);
  for (const auto& q : queries) per_entity[sys.EntityOf(q.id)] += 1;

  sys.GenerateTraffic(5.0);
  sys.RunUntil(6.0);

  std::printf("%-8s %-8s %-10s %-12s %-12s\n", "entity", "queries", "results",
              "p50 PR", "max util");
  for (int e = 0; e < sys.num_entities(); ++e) {
    dsps::entity::Entity* ent = sys.entity_at(e);
    std::printf("%-8d %-8d %-10lld %-12.0f %-12.4f\n", e, per_entity[e],
                static_cast<long long>(ent->results_count()),
                ent->pr().p50(), ent->MaxUtilization());
  }
  dsps::system::SystemMetrics m = sys.Collect();
  std::printf(
      "\ntotal results %lld | WAN %.2f MB | source egress %.2f MB | "
      "entity load imbalance %.2f\n",
      static_cast<long long>(m.results), m.wan_bytes / 1e6,
      m.source_egress_bytes / 1e6, m.entity_load_imbalance);
  return 0;
}
