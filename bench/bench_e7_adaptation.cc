// Experiment E7 (extensions the paper flags as open issues): (a) interest
// summarization — Section 3.1 asks "how to represent the data interest ...
// as well as how to efficiently compute the aggregation"; we bound each
// subtree summary to a box budget and measure the summary-size /
// false-positive-traffic trade-off. (b) dissemination tree adaptation —
// the tree shapes "deserve further study"; we run the greedy reorganizer
// on a deliberately bad tree and measure cost and delivery latency.

#include <benchmark/benchmark.h>

#include <functional>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "dissemination/disseminator.h"
#include "dissemination/reorganizer.h"
#include "interest/summarize.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "telemetry/bench_report.h"
#include "telemetry/timeseries.h"
#include "workload/stream_gen.h"

namespace {

using dsps::common::Table;
using dsps::dissemination::Disseminator;
using dsps::dissemination::TreePolicy;

struct BudgetResult {
  int64_t total_bytes = 0;
  int64_t delivered = 0;
  int64_t summary_boxes = 0;  // boxes across all subtree summaries
};

BudgetResult RunBudget(int budget, int entities, int boxes_per_entity,
                       int tuples, uint64_t seed) {
  dsps::sim::Simulator sim;
  dsps::sim::Network net(&sim);
  dsps::common::Rng rng(seed);
  auto src = net.AddNode({500, 500});
  Disseminator::Config cfg;
  cfg.tree.policy = TreePolicy::kClosestParent;
  cfg.tree.max_fanout = 3;
  cfg.tree.interest_budget = budget;
  Disseminator dissem(&net, cfg);
  if (!dissem.AddSource(0, src).ok()) std::abort();
  dissem.SetDeliveryHandler(
      [](dsps::common::EntityId, const dsps::dissemination::TupleEnvelope&) {
      });
  for (int e = 0; e < entities; ++e) {
    auto gw = net.AddNode({rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
    if (!dissem.AddEntity(e, gw).ok()) std::abort();
    // Fragmented interest: several narrow slices per entity.
    std::vector<dsps::interest::Box> boxes;
    for (int b = 0; b < boxes_per_entity; ++b) {
      double lo = rng.Uniform(0, 98);
      boxes.push_back(
          dsps::interest::Box{{lo, lo + 1.5}, {-1e9, 1e9}, {-1e9, 1e9}});
    }
    if (!dissem.SetEntityInterest(e, 0, boxes).ok()) std::abort();
  }
  dsps::workload::StockTickerGen::Config tcfg;
  tcfg.num_symbols = 100;
  tcfg.zipf_s = 0.0;
  dsps::workload::StockTickerGen gen(tcfg, rng.Fork(2));
  for (int i = 0; i < tuples; ++i) {
    if (!dissem.Publish(gen.Next(sim.now())).ok()) std::abort();
    sim.RunUntil(sim.now() + 0.01);
  }
  sim.Run();
  BudgetResult r;
  r.total_bytes = net.total_bytes();
  r.delivered = dissem.delivered_count();
  for (int e = 0; e < entities; ++e) {
    r.summary_boxes += static_cast<int64_t>(
        dissem.tree(0)->SubtreeInterest(e).size());
  }
  return r;
}

void PrintE7Summarization(dsps::telemetry::BenchReport* report) {
  Table table({"box budget", "summary boxes", "forwarded KB", "delivered",
               "traffic overhead"});
  const int entities = 64, boxes = 6, tuples = 600;
  BudgetResult exact = RunBudget(0, entities, boxes, tuples, 11);
  for (int budget : {0, 8, 4, 2, 1}) {
    BudgetResult r = RunBudget(budget, entities, boxes, tuples, 11);
    // Correctness invariant: every exact delivery still happens.
    if (r.delivered != exact.delivered) std::abort();
    table.AddRow({budget == 0 ? "unbounded" : Table::Int(budget).c_str(),
                  Table::Int(r.summary_boxes),
                  Table::Num(r.total_bytes / 1e3, 1),
                  Table::Int(r.delivered),
                  Table::Num(static_cast<double>(r.total_bytes) /
                                 static_cast<double>(exact.total_bytes),
                             2)});
    dsps::telemetry::Labels labels = dsps::telemetry::MakeLabels(
        {{"budget", budget == 0 ? "unbounded" : std::to_string(budget)}});
    report->SetHeadline("summary_boxes", r.summary_boxes, labels);
    report->SetHeadline("forwarded_kb", r.total_bytes / 1e3, labels);
    report->SetHeadline("traffic_overhead",
                        static_cast<double>(r.total_bytes) /
                            static_cast<double>(exact.total_bytes),
                        labels);
  }
  table.Print(
      "E7a (Section 3.1 open issue): interest-summary box budget — smaller "
      "summaries ship more false-positive traffic but never lose tuples");
}

struct ReorgResult {
  double cost_before = 0.0;
  double cost_after = 0.0;
  int moves = 0;
  double p50_before = 0.0;
  double p50_after = 0.0;
};

ReorgResult RunReorg(int entities, uint64_t seed,
                     dsps::telemetry::TimeSeriesRecorder* series = nullptr) {
  dsps::sim::Simulator sim;
  dsps::sim::Network net(&sim);
  dsps::common::Rng rng(seed);
  auto src = net.AddNode({500, 500});
  Disseminator::Config cfg;
  cfg.tree.policy = TreePolicy::kRandom;  // deliberately poor shape
  cfg.tree.max_fanout = 3;
  cfg.tree.seed = seed;
  Disseminator dissem(&net, cfg);
  if (!dissem.AddSource(0, src).ok()) std::abort();
  dsps::common::Histogram* sink = nullptr;
  dsps::common::Histogram lat_before, lat_after;
  dissem.SetDeliveryHandler(
      [&](dsps::common::EntityId,
          const dsps::dissemination::TupleEnvelope& env) {
        if (sink != nullptr) sink->Add(sim.now() - env.tuple->timestamp);
      });
  for (int e = 0; e < entities; ++e) {
    auto gw = net.AddNode({rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
    if (!dissem.AddEntity(e, gw).ok()) std::abort();
    if (!dissem
             .SetEntityInterest(
                 e, 0,
                 {dsps::interest::Box{{0, 100}, {-1e9, 1e9}, {-1e9, 1e9}}})
             .ok()) {
      std::abort();
    }
  }
  dsps::workload::StockTickerGen::Config tcfg;
  dsps::workload::StockTickerGen gen(tcfg, rng.Fork(3));
  auto pump = [&](dsps::common::Histogram* h, int tuples) {
    sink = h;
    for (int i = 0; i < tuples; ++i) {
      if (!dissem.Publish(gen.Next(sim.now())).ok()) std::abort();
      sim.RunUntil(sim.now() + 0.02);
      // Trajectory sampling every 25 tuples = 0.5 simulated seconds.
      // Probes are read-only, so the sampled run's headline metrics stay
      // byte-identical to an unsampled run's.
      if (series != nullptr && (i + 1) % 25 == 0) series->Sample(sim.now());
    }
    sim.Run();
    sink = nullptr;
  };
  ReorgResult r;
  auto* tree = dissem.mutable_tree(0);
  if (series != nullptr) {
    series->AddGaugeProbe("series.tree_cost", {}, [tree] {
      return dsps::dissemination::TreeReorganizer::TreeCost(*tree);
    });
    dsps::sim::Network* net_p = &net;
    series->AddRateProbe("series.bytes_per_s", {}, [net_p] {
      return static_cast<double>(net_p->total_bytes());
    });
    Disseminator* dissem_p = &dissem;
    series->AddRateProbe("series.delivered_per_s", {}, [dissem_p] {
      return static_cast<double>(dissem_p->delivered_count());
    });
    series->Sample(sim.now());
  }
  r.cost_before = dsps::dissemination::TreeReorganizer::TreeCost(*tree);
  pump(&lat_before, 200);
  dsps::dissemination::TreeReorganizer reorganizer;
  for (int round = 0; round < 20; ++round) {
    auto stats = reorganizer.Round(tree);
    r.moves += stats.moves;
    if (stats.moves == 0) break;
  }
  r.cost_after = dsps::dissemination::TreeReorganizer::TreeCost(*tree);
  pump(&lat_after, 200);
  r.p50_before = lat_before.p50();
  r.p50_after = lat_after.p50();
  return r;
}

void PrintE7Reorganization(dsps::telemetry::BenchReport* report,
                           dsps::telemetry::TimeSeriesRecorder* series) {
  Table table({"entities", "tree cost before", "after", "moves",
               "p50 deliver ms before", "after"});
  for (int entities : {16, 64}) {
    // The 64-entity run carries the trajectory recorder: tree cost and
    // delivery rate before vs after the reorganization rounds.
    ReorgResult r =
        RunReorg(entities, 21 + entities, entities == 64 ? series : nullptr);
    table.AddRow({Table::Int(entities), Table::Num(r.cost_before, 0),
                  Table::Num(r.cost_after, 0), Table::Int(r.moves),
                  Table::Num(r.p50_before * 1e3, 1),
                  Table::Num(r.p50_after * 1e3, 1)});
    dsps::telemetry::Labels labels = dsps::telemetry::MakeLabels(
        {{"entities", std::to_string(entities)}});
    report->SetHeadline("tree_cost_before", r.cost_before, labels);
    report->SetHeadline("tree_cost_after", r.cost_after, labels);
    report->SetHeadline("reorg_moves", r.moves, labels);
  }
  table.Print(
      "E7b: adaptive tree reorganization — greedy re-attachment shrinks the "
      "tree's geographic cost and delivery latency on a random tree");
}

void BM_ReorganizerRound(benchmark::State& state) {
  dsps::dissemination::DisseminationTree::Config cfg;
  cfg.policy = TreePolicy::kRandom;
  cfg.max_fanout = 3;
  dsps::dissemination::DisseminationTree tree(0, {500, 500}, cfg);
  dsps::common::Rng rng(1);
  for (int e = 0; e < 64; ++e) {
    if (!tree.AddEntity(e, {rng.Uniform(0, 1000), rng.Uniform(0, 1000)})
             .ok()) {
      std::abort();
    }
  }
  dsps::dissemination::TreeReorganizer reorganizer;
  for (auto _ : state) {
    auto stats = reorganizer.Round(&tree);
    benchmark::DoNotOptimize(stats.moves);
  }
}
BENCHMARK(BM_ReorganizerRound);

void BM_CoarsenBoxes(benchmark::State& state) {
  dsps::common::Rng rng(2);
  std::vector<dsps::interest::Box> boxes;
  for (int i = 0; i < 32; ++i) {
    double x = rng.Uniform(0, 90);
    boxes.push_back(dsps::interest::Box{{x, x + 5}, {x, x + 5}});
  }
  for (auto _ : state) {
    auto out = dsps::interest::CoarsenBoxes(boxes, 4);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_CoarsenBoxes);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  dsps::telemetry::BenchReport report("e7_adaptation");
  dsps::telemetry::TimeSeriesRecorder::Config scfg;
  scfg.interval_s = 0.5;
  dsps::telemetry::TimeSeriesRecorder reorg_series(scfg);
  PrintE7Summarization(&report);
  PrintE7Reorganization(&report, &reorg_series);
  report.AttachSeries(&reorg_series, dsps::telemetry::MakeLabels(
                                         {{"experiment", "e7b_reorg"},
                                          {"entities", "64"}}));
  report.WriteFileOrDie();
  return 0;
}
