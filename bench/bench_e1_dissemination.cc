// Experiment E1 (Section 3.1): cooperative dissemination trees with early
// filtering vs direct source feeding. Sweeps entity count and interest
// coverage; reports total WAN bytes, source egress/fan-out, and delivery
// latency.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "dissemination/disseminator.h"
#include "index_series.h"
#include "interest/box_index.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "telemetry/bench_report.h"
#include "telemetry/sketch.h"
#include "workload/stream_gen.h"

namespace {

using dsps::common::Table;
using dsps::dissemination::Disseminator;
using dsps::dissemination::TreePolicy;

struct DissemResult {
  int64_t total_bytes = 0;
  int64_t source_bytes = 0;
  int max_fanout = 0;
  int max_depth = 0;
  double p99_delivery_latency = 0.0;
  int64_t delivered = 0;
};

DissemResult Run(int entities, double coverage, TreePolicy policy,
                 bool early_filter, int tuples, uint64_t seed,
                 dsps::telemetry::MetricsRegistry* metrics = nullptr,
                 dsps::interest::IndexStats* route_stats = nullptr,
                 dsps::common::Histogram* latency_out = nullptr) {
  dsps::sim::Simulator sim;
  dsps::sim::Network net(&sim);
  if (metrics != nullptr) net.SetMetrics(metrics);
  dsps::common::Rng rng(seed);
  auto src = net.AddNode({500, 500});
  Disseminator::Config cfg;
  cfg.tree.policy = policy;
  cfg.tree.max_fanout = 4;
  cfg.early_filter = early_filter;
  // Surfaces dissem.route_lookup_us (and per-node counters) in the JSON.
  cfg.metrics = metrics;
  Disseminator dissem(&net, cfg);
  if (!dissem.AddSource(0, src).ok()) std::abort();
  dsps::common::Histogram latency;
  dissem.SetDeliveryHandler(
      [&](dsps::common::EntityId,
          const dsps::dissemination::TupleEnvelope& env) {
        latency.Add(sim.now() - env.tuple->timestamp);
      });
  for (int e = 0; e < entities; ++e) {
    auto gw = net.AddNode({rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
    if (!dissem.AddEntity(e, gw).ok()) std::abort();
    // Interest: an interval covering `coverage` of the symbol domain.
    double width = 100.0 * coverage;
    double lo = rng.Uniform(0, 100.0 - width);
    if (!dissem
             .SetEntityInterest(
                 e, 0,
                 {dsps::interest::Box{{lo, lo + width},
                                      {-1e9, 1e9},
                                      {-1e9, 1e9}}})
             .ok()) {
      std::abort();
    }
  }
  dsps::workload::StockTickerGen::Config tcfg;
  tcfg.num_symbols = 100;
  tcfg.zipf_s = 0.0;  // uniform symbols: coverage is exact
  dsps::workload::StockTickerGen gen(tcfg, rng.Fork(2));
  for (int i = 0; i < tuples; ++i) {
    if (!dissem.Publish(gen.Next(sim.now())).ok()) std::abort();
    sim.RunUntil(sim.now() + 0.01);
  }
  sim.Run();
  if (route_stats != nullptr) *route_stats = dissem.RouteIndexStats();
  DissemResult r;
  r.total_bytes = net.total_bytes();
  r.source_bytes = net.egress_bytes(src);
  r.max_fanout = dissem.tree(0)->source_fanout();
  r.max_depth = dissem.tree(0)->MaxDepth();
  r.p99_delivery_latency = latency.p99();
  r.delivered = dissem.delivered_count();
  if (latency_out != nullptr) *latency_out = latency;
  return r;
}

void BM_Publish(benchmark::State& state) {
  int entities = static_cast<int>(state.range(0));
  for (auto _ : state) {
    DissemResult r =
        Run(entities, 0.2, TreePolicy::kClosestParent, true, 50, 1);
    benchmark::DoNotOptimize(r.delivered);
  }
}
BENCHMARK(BM_Publish)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void PrintE1() {
  const int tuples = 400;
  dsps::telemetry::BenchReport report("e1_dissemination");
  Table table({"entities", "coverage", "scheme", "total MB", "source MB",
               "src fanout", "depth", "p99 deliver ms", "delivered"});
  for (int entities : {8, 32, 128}) {
    for (double coverage : {0.05, 0.25, 1.0}) {
      struct Scheme {
        const char* name;
        TreePolicy policy;
        bool filter;
      };
      for (const Scheme& s :
           {Scheme{"direct", TreePolicy::kSourceDirect, true},
            Scheme{"tree", TreePolicy::kClosestParent, false},
            Scheme{"tree+filter", TreePolicy::kClosestParent, true}}) {
        dsps::telemetry::MetricsRegistry row_metrics;
        dsps::interest::IndexStats route_stats;
        DissemResult r = Run(entities, coverage, s.policy, s.filter, tuples,
                             77 + entities, &row_metrics, &route_stats);
        // Routing-cache index health for the tree rows (the direct rows
        // never build a route index).
        if (s.policy == TreePolicy::kClosestParent && s.filter &&
            entities == 128 && route_stats.indexes > 0) {
          // The row labels (entities/coverage/scheme) are appended when the
          // registry snapshot is merged into the report below.
          dsps::bench::ExportIndexStats(
              route_stats, &row_metrics,
              dsps::telemetry::MakeLabels({{"scope", "route"}}));
        }
        table.AddRow({Table::Int(entities), Table::Num(coverage, 2), s.name,
                      Table::Num(r.total_bytes / 1e6, 3),
                      Table::Num(r.source_bytes / 1e6, 3),
                      Table::Int(r.max_fanout), Table::Int(r.max_depth),
                      Table::Num(r.p99_delivery_latency * 1e3, 2),
                      Table::Int(r.delivered)});
        dsps::telemetry::Labels row = dsps::telemetry::MakeLabels(
            {{"entities", std::to_string(entities)},
             {"coverage", std::to_string(coverage)},
             {"scheme", s.name}});
        report.SetHeadline("total_mb", r.total_bytes / 1e6, row);
        report.SetHeadline("source_mb", r.source_bytes / 1e6, row);
        report.SetHeadline("delivered", r.delivered, row);
        report.MergeSnapshot(row_metrics.Snapshot(), row);
      }
    }
  }
  // Lookup probe over an E1-shaped box population (128 gateways, 25%
  // coverage): publishes index.lookup_us / index.build_us / index.mem_bytes
  // so this report carries per-stab latency dsps_doctor can p95.
  {
    dsps::common::Rng prng(31);
    std::vector<dsps::interest::Box> boxes;
    boxes.reserve(128);
    for (int e = 0; e < 128; ++e) {
      double lo = prng.Uniform(0, 75.0);
      boxes.push_back(dsps::interest::Box{
          {lo, lo + 25.0}, {-1e9, 1e9}, {-1e9, 1e9}});
    }
    const dsps::interest::Box domain{{0, 100}, {-1e9, 1e9}, {-1e9, 1e9}};
    dsps::telemetry::MetricsRegistry probe_metrics;
    dsps::bench::RunIndexLookupProbe(
        boxes, domain, dsps::bench::IndexProbeConfig{}, &probe_metrics,
        dsps::telemetry::MakeLabels({{"scope", "probe"}}));
    report.MergeSnapshot(probe_metrics.Snapshot());
  }
  // -- Bounded-sketch accuracy pin ---------------------------------------
  // Replays one representative row's exact delivery-latency samples into
  // a default telemetry::Sketch and verifies the mergeable-sketch error
  // contract against ground truth: at each pinned quantile, the estimate
  // must be within the sketch's kRelativeAccuracy of the exact nearest-
  // rank sample, and the target rank must fall inside the rank interval
  // of samples within that error band (the guarantee E13 leans on when
  // it swaps exact histograms for sketches at metro scale).
  {
    dsps::common::Histogram exact;
    Run(128, 0.25, TreePolicy::kClosestParent, true, tuples, 77 + 128,
        nullptr, nullptr, &exact);
    std::vector<double> sorted = exact.samples();
    std::sort(sorted.begin(), sorted.end());
    dsps::telemetry::Sketch sketch;
    for (double x : sorted) sketch.Add(x);
    const double alpha = dsps::telemetry::Sketch::kRelativeAccuracy;
    const double n = static_cast<double>(sorted.size());
    double max_rel_err = 0.0;
    double max_rank_err = 0.0;
    for (double q : {0.50, 0.90, 0.95, 0.99}) {
      size_t rank = static_cast<size_t>(std::ceil(q * n));
      rank = std::min(std::max<size_t>(rank, 1), sorted.size());
      const double truth = sorted[rank - 1];
      const double est = sketch.Percentile(q);
      const double rel =
          truth > 0.0 ? std::fabs(est - truth) / truth : std::fabs(est);
      // Rank distance from the target to the band of samples the sketch
      // is allowed to answer with (values within alpha of the estimate).
      const double below = static_cast<double>(
          std::lower_bound(sorted.begin(), sorted.end(),
                           est / (1.0 + alpha)) -
          sorted.begin());
      const double above = static_cast<double>(
          std::upper_bound(sorted.begin(), sorted.end(),
                           est / (1.0 - alpha)) -
          sorted.begin());
      const double target = q * n;
      double rank_err = 0.0;
      if (target < below) rank_err = (below - target) / n;
      if (target > above) rank_err = (target - above) / n;
      max_rel_err = std::max(max_rel_err, rel);
      max_rank_err = std::max(max_rank_err, rank_err);
    }
    report.SetHeadline("sketch_rel_error_max", max_rel_err);
    report.SetHeadline("sketch_rank_error_max", max_rank_err);
    report.SetHeadline("sketch_buckets",
                       static_cast<double>(sketch.num_buckets()));
    report.SetHeadline("sketch_mem_bytes",
                       static_cast<double>(sketch.MemoryBytes()));
    report.SetHeadline("sketch_samples", n);
    if (max_rel_err > alpha + 1e-9 || max_rank_err > 0.01) {
      std::fprintf(stderr,
                   "E1: sketch accuracy bar violated (rel err %.5f > %.3f "
                   "or rank err %.5f > 0.01 over %.0f samples)\n",
                   max_rel_err, alpha, max_rank_err, n);
      std::abort();
    }
  }
  report.WriteFileOrDie();
  table.Print(
      "E1 (Section 3.1): dissemination schemes — source fan-out stays "
      "bounded under trees; early filtering cuts bytes when coverage is "
      "narrow");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintE1();
  return 0;
}
