// Experiment E13 (metro-scale core): one System sized like a metropolitan
// deployment — a 10k-entity WAN hosting 1M standing queries routed through
// the coordinator tree with multi-tenant admission enabled — exercised end
// to end to prove the simulator event core scales: the 4-ary heap of
// small keys (callbacks in a slot arena, generation-checked cancellable
// timers), the arena-allocated network messages with inline payloads, and
// the SoA per-query runtime state in system::System.
// Standing queries are installed in chunks through System::SubmitQueries;
// with admission on, each chunk is the per-query SubmitQuery loop (one
// coordinator descent and one admission verdict per query), and the
// per-phase install costs land in the install.* gauges.
//
// Two sizes share one code path, selected by DSPS_E13_SCALE:
//  * smoke (default) — 200 entities / 5k queries. Fast enough for CI;
//    this is the size pinned against bench/baselines/BENCH_e13_metro.json.
//  * full  (=full)   — 10000 entities / 1,000,000 queries, the paper's
//    metro tier. Run locally to prove the core completes at scale.
//
// Headlines and how CI gates them (tools/bench_diff treats larger as
// worse, so the throughput pin is expressed as its inverse):
//  - headline.sim_events        exact event count of the traffic phase —
//                               deterministic, pinned at 1%: any drift
//                               means the simulation itself changed;
//  - headline.sim_us_per_event  wall-clock cost per executed event
//                               (inverse of sim.events_per_sec), gated
//                               with a wide CI-noise allowance;
//  - headline.sim_events_per_sec(+_floor) the human-facing throughput
//                               and the absolute floor tools/dsps_doctor
//                               flags regressions against;
//  - headline.peak_rss_mb       VmHWM of the whole run;
//  - partition.graph_build_us   indexed QueryGraph::Build over a QueryGen
//                               slice with *random* interests (the metro
//                               standing queries deliberately share one
//                               interest box per stream, which would make
//                               the overlap graph quadratic and measure
//                               the wrong thing);
//  - install.*_us_per_query     the batched-install phase breakdown
//                               (route / install / interest / graph);
//                               install.installs is deterministic and
//                               pinned at 1%, the wall-clock per-query
//                               cost gets a wide allowance;
//  - index.*                    interest-index health (DESIGN.md "Learned
//                               interest index") for the graph-build
//                               indexes, the live system indexes, and a
//                               deterministic lookup probe;
//  - headline.latency_p*_ms     result-latency p50/p95/p99 read from the
//                               bounded sketches (no exact sample
//                               vectors at tier scale);
//  - trace.stage_s{stage=...}   per-stage delay decomposition from the
//                               full-sampling, stage-aggregated trace
//                               (retain_spans off: zero span drops in
//                               O(stages x buckets) memory).
//
// Acceptance bars (abort on violation): every submission admitted (zero
// rejections — the tier must fit, not shed), traffic produced results,
// and the event count is nonzero.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "engine/query_builder.h"
#include "index_series.h"
#include "interest/box_index.h"
#include "partition/query_graph.h"
#include "sim/simulator.h"
#include "system/system.h"
#include "telemetry/bench_report.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace {

using dsps::common::Table;

constexpr int kTenants = 4;
constexpr double kQueryLoad = 1e-3;
/// Absolute events/sec floor tools/dsps_doctor alarms on. Deliberately
/// far below any healthy machine (CI containers included): it catches
/// order-of-magnitude collapses, while relative drift is bench_diff's
/// job via headline.sim_us_per_event.
constexpr double kEventsPerSecFloor = 20000.0;

struct Scale {
  const char* name;
  int entities;
  int queries;
  int streams;
  /// Simulated seconds of stream traffic after the install phase.
  double duration_s;
  double tuples_per_s;
  /// QueryGen slice size for the partition.graph_build_us pin.
  int graph_queries;
};

Scale PickScale() {
  const char* s = std::getenv("DSPS_E13_SCALE");
  if (s != nullptr && std::string(s) == "full") {
    return Scale{"full", 10000, 1000000, 16, 0.5, 20.0, 20000};
  }
  return Scale{"smoke", 200, 5000, 8, 2.0, 50.0, 4000};
}

struct E13Run {
  int64_t standing = 0;
  int64_t rejected = 0;
  int64_t results = 0;
  uint64_t sim_events = 0;
  double install_wall_s = 0.0;
  double run_wall_s = 0.0;
  dsps::system::System::InstallProfile install_profile;
  dsps::interest::IndexStats index_stats;
  /// Result-latency summary off the bounded sketches (the tier's whole
  /// point is O(buckets) telemetry).
  int64_t latency_count = 0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  size_t latency_sketch_buckets = 0;
  /// Per-tenant p95 ms, indexed by tenant id - 1.
  std::vector<double> tenant_p95_ms;
};

double WallSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

E13Run Run(const Scale& sc, dsps::telemetry::TraceLog* trace) {
  dsps::system::System::Config cfg;
  cfg.topology.num_entities = sc.entities;
  cfg.topology.processors_per_entity = 1;
  cfg.topology.num_sources = sc.streams;
  cfg.allocation = dsps::system::AllocationMode::kCoordinatorTree;
  cfg.seed = 13;
  // Online health layer at tier scale: result latency, per-tenant
  // latency, and entity PR land in bounded DDSketch-style sketches, and
  // the trace log aggregates per-stage sketches without retaining spans
  // — so even the full 10k-entity / 1M-query tier reports p50/p95/p99 in
  // O(buckets) memory.
  cfg.trace = trace;
  // Four equal tenants, admission ON: every submission crosses the
  // admission gate (the tier streams *through* it, per the experiment),
  // but capacity is sized so the whole tier fits — E12 owns the
  // contention scenarios, E13 owns scale.
  for (int t = 1; t <= kTenants; ++t) {
    dsps::tenant::TenantSpec spec;
    spec.id = t;
    spec.name = "metro-" + std::to_string(t);
    spec.weight = 1.0;
    cfg.tenants.push_back(spec);
  }
  cfg.admission.load_factor = 4.0;
  dsps::system::System sys(cfg);

  dsps::workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = sc.tuples_per_s;
  dsps::interest::StreamCatalog scratch;
  dsps::common::Rng srng(4);
  sys.AddStreams(dsps::workload::MakeTickerStreams(sc.streams, tcfg, &scratch,
                                                   &srng));

  // One template query per stream; the tier shares the template's plan
  // (shared_ptr) and interest box, so 1M installs cost 1M slots — not 1M
  // plan builds — and per-(entity,stream) dissemination updates hit the
  // no-change cutoff after the first resident query.
  std::vector<dsps::engine::Query> templates;
  templates.reserve(sc.streams);
  for (int s = 0; s < sc.streams; ++s) {
    auto q = dsps::engine::QueryBuilder(1000000000 + s)
                 .From(s, sys.catalog())
                 .Build();
    if (!q.ok()) {
      std::fprintf(stderr, "E13: template build failed: %s\n",
                   q.status().ToString().c_str());
      std::abort();
    }
    templates.push_back(q.value());
  }

  // The install storm: chunks of standing queries submitted via
  // SubmitQueries, which with admission on runs the per-query SubmitQuery
  // loop and tallies every verdict.
  E13Run run;
  constexpr int kInstallChunk = 8192;
  auto install_start = std::chrono::steady_clock::now();
  std::vector<dsps::engine::Query> chunk;
  chunk.reserve(std::min(sc.queries, kInstallChunk));
  for (int i = 0; i < sc.queries;) {
    chunk.clear();
    const int end = std::min(sc.queries, i + kInstallChunk);
    for (; i < end; ++i) {
      dsps::engine::Query query = templates[i % sc.streams];
      query.id = i + 1;
      query.tenant = 1 + i % kTenants;
      query.load = kQueryLoad;
      chunk.push_back(std::move(query));
    }
    dsps::system::System::BatchSubmitResult r = sys.SubmitQueries(chunk);
    run.standing += r.admitted;
    run.rejected += r.rejected;
    if (r.failed > 0) {
      std::fprintf(stderr, "E13: unexpected submit error: %s\n",
                   r.first_error.ToString().c_str());
      std::abort();
    }
  }
  run.install_wall_s = WallSince(install_start);
  run.install_profile = sys.install_profile();
  run.index_stats = sys.IndexStatsSnapshot();

  const uint64_t events_before = sys.network()->simulator()->events_executed();
  auto run_start = std::chrono::steady_clock::now();
  sys.GenerateTraffic(sc.duration_s);
  sys.RunUntil(sc.duration_s + 0.5);
  run.run_wall_s = WallSince(run_start);
  run.sim_events =
      sys.network()->simulator()->events_executed() - events_before;

  for (int t = 1; t <= kTenants; ++t) run.results += sys.TenantResults(t);
  if (!sys.admission()->CheckConservation().ok()) {
    std::fprintf(stderr, "E13: tenant conservation violated\n");
    std::abort();
  }

  dsps::system::SystemMetrics m = sys.Collect();
  run.latency_count = m.latency.count();
  run.latency_p50_ms = m.latency_quantile(0.50) * 1e3;
  run.latency_p95_ms = m.latency_quantile(0.95) * 1e3;
  run.latency_p99_ms = m.latency_quantile(0.99) * 1e3;
  run.latency_sketch_buckets = m.latency.num_buckets();
  for (int t = 1; t <= kTenants; ++t) {
    const dsps::telemetry::Sketch* sk = sys.TenantLatency(t);
    run.tenant_p95_ms.push_back(sk != nullptr && sk->count() > 0
                                    ? sk->p95() * 1e3
                                    : 0.0);
  }
  return run;
}

void CheckBars(const Scale& sc, const E13Run& run) {
  if (run.standing != sc.queries || run.rejected != 0) {
    std::fprintf(stderr,
                 "E13: tier did not fit — %lld standing / %lld rejected of "
                 "%d submitted\n",
                 static_cast<long long>(run.standing),
                 static_cast<long long>(run.rejected), sc.queries);
    std::abort();
  }
  if (run.sim_events == 0) {
    std::fprintf(stderr, "E13: traffic phase executed zero events\n");
    std::abort();
  }
  if (run.results <= 0) {
    std::fprintf(stderr, "E13: standing queries produced no results\n");
    std::abort();
  }
  if (run.latency_count <= 0 || run.latency_sketch_buckets == 0) {
    std::fprintf(stderr,
                 "E13: bounded latency sketch saw no samples "
                 "(count=%lld, buckets=%zu)\n",
                 static_cast<long long>(run.latency_count),
                 run.latency_sketch_buckets);
    std::abort();
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

/// Raw event-core microbenchmark: schedule-heavy FIFO churn through the
/// 4-ary key heap, including a cancelled-timer slice (the reliable-
/// delivery retry pattern that used to leak queue slots).
void BM_EventHeapChurn(benchmark::State& state) {
  for (auto _ : state) {
    dsps::sim::Simulator sim;
    std::vector<dsps::sim::TimerId> cancelled;
    cancelled.reserve(1000);
    for (int i = 0; i < 10000; ++i) {
      sim.ScheduleAt(i * 1e-6, []() {});
      if (i % 10 == 0) {
        cancelled.push_back(
            sim.ScheduleCancellableAt(i * 1e-6 + 5e-7, []() { std::abort(); }));
      }
    }
    for (dsps::sim::TimerId t : cancelled) sim.Cancel(t);
    sim.RunUntil(1.0);
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_EventHeapChurn)->Unit(benchmark::kMillisecond);

void PrintE13() {
  const Scale sc = PickScale();
  dsps::telemetry::BenchReport report("e13_metro");
  // Full-sampling trace in stage-aggregation mode: every traced span
  // folds into a bounded per-stage sketch and the raw span is discarded,
  // so the delay decomposition survives at any tier size in
  // O(stages * buckets) memory with zero span drops.
  dsps::telemetry::TraceLog::Config trace_cfg;
  trace_cfg.sample_every_n = 1;
  trace_cfg.aggregate_stages = true;
  trace_cfg.retain_spans = false;
  dsps::telemetry::TraceLog trace(trace_cfg);
  E13Run run = Run(sc, &trace);

  // Graph-construction pin over random-interest queries (see header
  // comment for why the metro tier's shared boxes are unusable here) —
  // same metric name as E3 so bench_diff's --metric aggregation applies.
  dsps::telemetry::MetricsRegistry metrics;
  {
    auto* build_us = metrics.histogram("partition.graph_build_us");
    dsps::interest::StreamCatalog catalog;
    dsps::common::Rng grng(5);
    auto streams = dsps::workload::MakeTickerStreams(
        4, dsps::workload::StockTickerGen::Config{}, &catalog, &grng);
    dsps::workload::QueryGen qgen(dsps::workload::QueryGen::Config{}, &catalog,
                                  dsps::common::Rng(6));
    std::vector<dsps::engine::Query> slice = qgen.Batch(sc.graph_queries);
    dsps::interest::IndexStats build_stats;
    for (int rep = 0; rep < 3; ++rep) {
      dsps::interest::IndexStats rep_stats;
      auto start = std::chrono::steady_clock::now();
      dsps::partition::QueryGraph g =
          dsps::partition::QueryGraph::Build(slice, catalog, 1e-9, &rep_stats);
      build_us->Observe(WallSince(start) * 1e6);
      benchmark::DoNotOptimize(g.total_edge_weight());
      if (rep == 2) build_stats = rep_stats;
    }
    dsps::bench::ExportIndexStats(
        build_stats, &metrics,
        dsps::telemetry::MakeLabels({{"scope", "graph_build"}}));
    // Lookup probe over the slice's own stream-0 interest boxes: at
    // smoke size this population crosses the auto spline threshold, so
    // the E13 report carries real spline lookup latency + fallback rate.
    {
      std::vector<dsps::interest::Box> probe_boxes;
      for (const dsps::engine::Query& q : slice) {
        const std::vector<dsps::interest::Box>* boxes =
            q.interest.boxes_for(0);
        if (boxes == nullptr) continue;
        probe_boxes.insert(probe_boxes.end(), boxes->begin(), boxes->end());
      }
      dsps::bench::RunIndexLookupProbe(
          probe_boxes, catalog.stats(0).domain,
          dsps::bench::IndexProbeConfig{}, &metrics,
          dsps::telemetry::MakeLabels({{"scope", "probe"}}));
    }
  }
  // Live-system index health (dissemination route caches + per-entity
  // stream indexes) after the full install + traffic phases.
  dsps::bench::ExportIndexStats(
      run.index_stats, &metrics,
      dsps::telemetry::MakeLabels({{"scope", "system"}}));

  const double events_per_sec =
      run.run_wall_s > 0 ? static_cast<double>(run.sim_events) / run.run_wall_s
                         : 0.0;
  const double us_per_event =
      run.sim_events > 0 ? run.run_wall_s * 1e6 /
                               static_cast<double>(run.sim_events)
                         : 0.0;
  const double install_us_per_query =
      sc.queries > 0 ? run.install_wall_s * 1e6 / sc.queries : 0.0;
  const double peak_rss_mb = PeakRssMb();

  Table table({"scale", "entities", "queries", "sim events", "events/s",
               "us/event", "install us/q", "results", "peak RSS MB"});
  table.AddRow({sc.name, Table::Int(sc.entities), Table::Int(sc.queries),
                Table::Int(static_cast<int64_t>(run.sim_events)),
                Table::Num(events_per_sec, 0), Table::Num(us_per_event, 3),
                Table::Num(install_us_per_query, 2), Table::Int(run.results),
                Table::Num(peak_rss_mb, 1)});
  table.Print(
      "E13: metro-tier core — " + std::string(sc.name) + " scale, " +
      std::to_string(sc.queries) + " standing queries over " +
      std::to_string(sc.entities) +
      " entities via the coordinator tree, admission on");

  // Install-phase breakdown: where each submitted query's wall time went
  // inside the batched install path (gauges in µs per query, so the full
  // and smoke tiers are comparable and bench_diff can gate drift).
  {
    const dsps::system::System::InstallProfile& p = run.install_profile;
    const double per_q = sc.queries > 0 ? 1.0 / sc.queries : 0.0;
    metrics.gauge("install.route_us_per_query")->Set(p.route_us * per_q);
    metrics.gauge("install.install_us_per_query")->Set(p.install_us * per_q);
    metrics.gauge("install.interest_us_per_query")->Set(p.interest_us * per_q);
    metrics.gauge("install.graph_us_per_query")->Set(p.graph_us * per_q);
    metrics.gauge("install.installs")->Set(static_cast<double>(p.installs));
    Table breakdown({"phase", "total ms", "us/query"});
    struct Row {
      const char* name;
      double us;
    };
    for (const Row& r : {Row{"route (coordinator descent)", p.route_us},
                         Row{"admission + entity install", p.install_us},
                         Row{"interest merge + publication", p.interest_us},
                         Row{"query-graph deltas", p.graph_us}}) {
      breakdown.AddRow({r.name, Table::Num(r.us / 1e3, 1),
                        Table::Num(r.us * per_q, 2)});
    }
    breakdown.Print("E13 install-phase breakdown (SubmitQueries, " +
                    std::to_string(sc.queries) + " queries)");
  }

  report.SetHeadline("scale_entities", sc.entities);
  report.SetHeadline("scale_queries", sc.queries);
  report.SetHeadline("standing_queries", static_cast<double>(run.standing));
  report.SetHeadline("results_delivered", static_cast<double>(run.results));
  report.SetHeadline("sim_events", static_cast<double>(run.sim_events));
  report.SetHeadline("sim_events_per_sec", events_per_sec);
  report.SetHeadline("sim_events_per_sec_floor", kEventsPerSecFloor);
  report.SetHeadline("sim_us_per_event", us_per_event);
  report.SetHeadline("install_us_per_query", install_us_per_query);
  report.SetHeadline("peak_rss_mb", peak_rss_mb);
  // Result-latency quantiles off the bounded sketches (E1 pins the rank
  // error at <= 1%).
  report.SetHeadline("latency_p50_ms", run.latency_p50_ms);
  report.SetHeadline("latency_p95_ms", run.latency_p95_ms);
  report.SetHeadline("latency_p99_ms", run.latency_p99_ms);
  report.SetHeadline("latency_sketch_buckets",
                     static_cast<double>(run.latency_sketch_buckets));
  for (int t = 1; t <= kTenants; ++t) {
    report.SetHeadline("tenant_latency_p95_ms", run.tenant_p95_ms[t - 1],
                       dsps::telemetry::MakeLabels(
                           {{"tenant", "metro-" + std::to_string(t)}}));
  }
  report.AttachTrace(&trace);
  report.MergeSnapshot(metrics.Snapshot());
  report.WriteFileOrDie();

  // Bars last: a violated bar still leaves the table and the report on
  // disk for diagnosis before the abort fails the CI leg.
  CheckBars(sc, run);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintE13();
  return 0;
}
