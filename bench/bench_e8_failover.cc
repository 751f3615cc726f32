// Experiment E8 (loose-coupling payoff under churn): an entity fails
// mid-run; the coordinator tree repairs, the dissemination trees detach
// it, and its queries are re-homed on the survivors. Three scenarios:
//
//  * healthy          — no failure, the baseline result rate;
//  * oracle failure   — FailEntity announced to the system (the seed's
//                       scenario: repair cost without detection cost);
//  * detected failure — the full pipeline: a crash is *injected* at the
//                       network level (plus background message loss),
//                       heartbeats stop arriving, the sweep detects the
//                       silence, the repair path re-homes the orphans,
//                       and the entity re-joins after its crash window.
//
// Headlines cover detection latency, messages-to-repair, heartbeat cost,
// recovery time of the result rate, and the orphan accounting invariant:
// every orphaned query is re-homed or explicitly reported as unplaced.
//
// The declustered-placement sections extend the experiment:
//
//  * survivor sweep    — placement-map clusters of 4/6/8/12 entities lose
//                        one entity; orphans fan out to their precomputed
//                        standbys in parallel. Recovery time must shrink
//                        as the survivor count grows, and the parallel
//                        fan-out must beat the serial re-home chain;
//  * domain crash      — a whole fault domain (2 of 8 entities) dies as
//                        one correlated event; heartbeat detection plus
//                        declustered recovery must lose zero queries;
//  * strategy table    — cut/imbalance/survivor-migrations of the
//                        post-failure assignment: placement_map vs the
//                        scratch/incremental/hybrid repartitioners.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/table.h"
#include "engine/query_builder.h"
#include "partition/partitioner.h"
#include "partition/repartitioner.h"
#include "placement/placement_map.h"
#include "system/auditor.h"
#include "system/system.h"
#include "telemetry/bench_report.h"
#include "telemetry/timeseries.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace {

using dsps::common::Table;

constexpr double kDuration = 8.0;
constexpr double kFailAt = 3.0;
constexpr double kRecoverAt = 6.0;
constexpr int kNumQueries = 24;

enum class Scenario { kHealthy, kOracleFailure, kDetectedFailure };

struct FailoverRun {
  std::vector<int64_t> results_per_interval;
  int orphans = 0;
  int rehomed = 0;
  int unplaced = 0;
  int64_t lost_queries = 0;
  dsps::system::System::FailureStats failure_stats;
  int64_t dropped_messages = 0;
  int64_t dissemination_retries = 0;
  double recovery_time_s = -1.0;
  /// Anomaly-watchdog accounting (DSPS_WATCHDOG legs only).
  bool watchdog_on = false;
  int64_t anomalies_pre_fail = 0;
  int64_t anomalies = 0;
  int64_t entity_loss_triggers = 0;
  int64_t retry_storm_triggers = 0;
};

FailoverRun Run(Scenario scenario,
                dsps::telemetry::MetricsRegistry* metrics = nullptr,
                dsps::telemetry::TimeSeriesRecorder* series = nullptr,
                std::string* audit_report = nullptr) {
  dsps::system::System::Config cfg;
  cfg.topology.num_entities = 8;
  cfg.topology.processors_per_entity = 2;
  cfg.topology.num_sources = 2;
  cfg.allocation = dsps::system::AllocationMode::kCoordinatorTree;
  cfg.seed = 99;
  cfg.metrics = metrics;
  if (scenario == Scenario::kDetectedFailure) {
    cfg.inject_faults = true;
    cfg.faults.seed = 17;
    cfg.faults.loss_probability = 0.02;  // background WAN loss
    cfg.dissemination.reliable = true;   // exactly-once hops on top of it
  }
  dsps::system::System sys(cfg);
  dsps::workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = 200.0;
  dsps::interest::StreamCatalog scratch;
  dsps::common::Rng rng(4);
  sys.AddStreams(dsps::workload::MakeTickerStreams(2, tcfg, &scratch, &rng));

  // Wide filter queries so results flow steadily.
  for (int i = 1; i <= kNumQueries; ++i) {
    auto q = dsps::engine::QueryBuilder(i).From(i % 2, sys.catalog()).Build();
    if (!q.ok()) std::abort();
    if (!sys.SubmitQuery(q.value()).ok()) std::abort();
  }

  if (scenario == Scenario::kDetectedFailure) {
    dsps::system::System::FailureDetectionConfig det;
    det.heartbeat_period_s = 0.25;
    det.timeout_s = 0.75;
    det.sweep_period_s = 0.25;
    sys.EnableFailureDetection(det, kDuration + 2.0);
    sys.ScheduleCrash(0, kFailAt, kRecoverAt);
  }
  // Adaptation-trajectory sampling and the invariant auditor are both
  // read-only observers: enabling them cannot change the run's results.
  if (series != nullptr) {
    sys.EnableTimeSeries(series, series->config().interval_s,
                         kDuration + 1.0);
  }
  double audit_s = dsps::system::AuditIntervalFromEnv();
  if (audit_report != nullptr && audit_s > 0) {
    sys.EnableAudit(audit_s, kDuration + 1.0);
  }
  // DSPS_WATCHDOG legs run every scenario under the anomaly watchdog:
  // silent while healthy, while the detected scenario must flag both its
  // reliable-delivery retry storm (2% WAN loss) and the entity_loss
  // eviction when the sweep notices the crashed entity's silence.
  double watchdog_s = dsps::system::WatchdogIntervalFromEnv();
  if (watchdog_s > 0) {
    sys.EnableWatchdog(watchdog_s, kDuration + 1.0);
  }
  sys.GenerateTraffic(kDuration);

  FailoverRun run;
  int64_t pre_fail_anomalies = 0;
  int64_t last_results = 0;
  for (int interval = 0; interval < static_cast<int>(kDuration); ++interval) {
    double t_end = interval + 1.0;
    if (scenario != Scenario::kHealthy && t_end > kFailAt &&
        static_cast<double>(interval) <= kFailAt) {
      // Run to the failure instant; count the orphans-to-be, then fail
      // (oracle) or let the injected crash + heartbeat sweep do it.
      sys.RunUntil(kFailAt);
      if (sys.watchdog() != nullptr) {
        pre_fail_anomalies = sys.watchdog()->anomalies();
      }
      for (int i = 1; i <= kNumQueries; ++i) {
        if (sys.EntityOf(i) == 0) ++run.orphans;
      }
      if (scenario == Scenario::kOracleFailure) {
        auto rehomed = sys.FailEntity(0);
        if (rehomed.ok()) run.rehomed = rehomed.value();
      }
    }
    sys.RunUntil(t_end);
    int64_t now_results = sys.Collect().results;
    run.results_per_interval.push_back(now_results - last_results);
    last_results = now_results;
  }
  sys.RunUntil(kDuration + 1.0);

  run.failure_stats = sys.failure_stats();
  if (scenario == Scenario::kDetectedFailure) {
    run.rehomed = run.failure_stats.queries_rehomed;
  }
  run.unplaced = sys.unplaced_count();
  run.dropped_messages = sys.Collect().dropped_messages;
  run.dissemination_retries = sys.disseminator()->retries_count();
  if (sys.watchdog() != nullptr) {
    run.watchdog_on = true;
    run.anomalies_pre_fail = pre_fail_anomalies;
    run.anomalies = sys.watchdog()->anomalies();
    run.entity_loss_triggers = sys.watchdog()->triggers("entity_loss");
    run.retry_storm_triggers = sys.watchdog()->triggers("retry_storm");
  }

  // Recovery time: from the failure instant until the per-second result
  // rate is back to >= 90% of the pre-failure average.
  if (scenario != Scenario::kHealthy) {
    double before = 0.0;
    for (int i = 0; i < static_cast<int>(kFailAt); ++i) {
      before += static_cast<double>(run.results_per_interval[i]);
    }
    before /= kFailAt;
    for (size_t i = static_cast<size_t>(kFailAt);
         i < run.results_per_interval.size(); ++i) {
      if (static_cast<double>(run.results_per_interval[i]) >= 0.9 * before) {
        run.recovery_time_s = (static_cast<double>(i) + 1.0) - kFailAt;
        break;
      }
    }
  }

  // Queries without a live home at the end. Unplaced ones are reported —
  // the failure-accounting invariant is: every orphan is either re-homed
  // or sitting in the unplaced queue; none may simply vanish.
  for (int i = 1; i <= kNumQueries; ++i) {
    if (sys.EntityOf(i) == dsps::common::kInvalidEntity) ++run.lost_queries;
  }
  if (run.lost_queries != run.unplaced ||
      run.rehomed + run.unplaced < run.orphans) {
    std::fprintf(stderr,
                 "E8: orphan accounting violated: orphans=%d rehomed=%d "
                 "unplaced=%d lost=%lld\n",
                 run.orphans, run.rehomed, run.unplaced,
                 static_cast<long long>(run.lost_queries));
    std::abort();
  }
  if (audit_report != nullptr && sys.auditor() != nullptr) {
    *audit_report = sys.auditor()->ReportJson();
  }
  return run;
}

// ---------------------------------------------------------------------------
// Declustered placement-map recovery.

/// Queries admitted to every placement-map scenario: fixed across the
/// survivor sweep so only the cluster size varies.
constexpr int kMapQueries = 48;
constexpr double kMapFailAt = 1.0;

dsps::engine::Query MapQuery(int id, dsps::system::System* sys) {
  auto q = dsps::engine::QueryBuilder(id).From(id % 2, sys->catalog()).Build();
  if (!q.ok()) std::abort();
  dsps::engine::Query query = q.value();
  query.load = 0.1;  // 48 queries fit on 3 survivors of 2.0 capacity each
  return query;
}

struct MapRecoveryRun {
  int survivors = 0;
  int orphans = 0;
  int unplaced = 0;
  /// Eviction instant -> last orphan re-installed.
  double recovery_time_s = -1.0;
  int64_t rehome_batches = 0;
  /// Distinct survivors the orphans landed on (declustering width).
  int fallback_entities = 0;
};

MapRecoveryRun RunMapRecovery(
    int num_entities, bool parallel,
    dsps::telemetry::TimeSeriesRecorder* series = nullptr) {
  dsps::system::System::Config cfg;
  cfg.topology.num_entities = num_entities;
  cfg.topology.processors_per_entity = 2;
  cfg.topology.num_sources = 2;
  cfg.topology.num_fault_domains = num_entities / 2;
  cfg.allocation = dsps::system::AllocationMode::kPlacementMap;
  cfg.recovery.parallel = parallel;
  cfg.seed = 99;
  dsps::system::System sys(cfg);
  dsps::workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = 200.0;
  dsps::interest::StreamCatalog scratch;
  dsps::common::Rng rng(4);
  sys.AddStreams(dsps::workload::MakeTickerStreams(2, tcfg, &scratch, &rng));
  for (int i = 1; i <= kMapQueries; ++i) {
    if (!sys.SubmitQuery(MapQuery(i, &sys)).ok()) std::abort();
  }
  if (series != nullptr) {
    sys.EnableTimeSeries(series, series->config().interval_s, kMapFailAt + 4.0);
  }
  sys.RunUntil(kMapFailAt);

  MapRecoveryRun run;
  run.survivors = num_entities - 1;
  std::vector<int> orphan_ids;
  for (int i = 1; i <= kMapQueries; ++i) {
    if (sys.EntityOf(i) == 0) orphan_ids.push_back(i);
  }
  run.orphans = static_cast<int>(orphan_ids.size());
  if (!sys.FailEntity(0).ok()) std::abort();
  // Recovery is asynchronous: step the clock in fine increments and stop
  // the watch when the last orphan is re-installed.
  while (sys.now() < kMapFailAt + 10.0 && sys.unplaced_count() > 0) {
    sys.RunUntil(sys.now() + 0.002);
  }
  run.recovery_time_s = sys.now() - kMapFailAt;
  sys.RunUntil(sys.now() + 0.5);  // let the series window flush
  run.unplaced = sys.unplaced_count();
  run.rehome_batches = sys.failure_stats().rehome_batches;
  std::set<dsps::common::EntityId> fallbacks;
  for (int id : orphan_ids) {
    dsps::common::EntityId home = sys.EntityOf(id);
    if (home == dsps::common::kInvalidEntity || !sys.IsAlive(home)) {
      std::fprintf(stderr, "E8 map: orphan %d lost after recovery\n", id);
      std::abort();
    }
    fallbacks.insert(home);
  }
  run.fallback_entities = static_cast<int>(fallbacks.size());
  if (run.unplaced != 0) {
    std::fprintf(stderr, "E8 map: %d queries still unplaced\n", run.unplaced);
    std::abort();
  }
  return run;
}

struct DomainCrashRun {
  int orphans = 0;
  int rehomed = 0;
  int unplaced = 0;
  int lost = 0;
  int64_t correlated_events = 0;
  /// Crash instant -> detection + declustered re-home all done.
  double recovery_time_s = -1.0;
  dsps::system::System::FailureStats failure_stats;
};

/// Fault domain 0 — two of eight entities — dies as one correlated event
/// at t=3s. Nothing is announced: heartbeats go silent, the sweep evicts
/// both members, and the placement map fans their orphans out to the six
/// survivors. The acceptance bar is zero lost queries.
DomainCrashRun RunDomainCrash(
    dsps::telemetry::TimeSeriesRecorder* series = nullptr) {
  dsps::system::System::Config cfg;
  cfg.topology.num_entities = 8;
  cfg.topology.processors_per_entity = 2;
  cfg.topology.num_sources = 2;
  cfg.topology.num_fault_domains = 4;
  cfg.allocation = dsps::system::AllocationMode::kPlacementMap;
  cfg.seed = 99;
  cfg.inject_faults = true;
  cfg.faults.seed = 17;
  dsps::system::System sys(cfg);
  dsps::workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = 200.0;
  dsps::interest::StreamCatalog scratch;
  dsps::common::Rng rng(4);
  sys.AddStreams(dsps::workload::MakeTickerStreams(2, tcfg, &scratch, &rng));
  for (int i = 1; i <= kMapQueries; ++i) {
    if (!sys.SubmitQuery(MapQuery(i, &sys)).ok()) std::abort();
  }
  dsps::system::System::FailureDetectionConfig det;
  det.heartbeat_period_s = 0.25;
  det.timeout_s = 0.75;
  det.sweep_period_s = 0.25;
  sys.EnableFailureDetection(det, kDuration + 2.0);
  if (series != nullptr) {
    sys.EnableTimeSeries(series, series->config().interval_s, kDuration + 1.0);
  }
  sys.GenerateTraffic(kDuration);
  sys.ScheduleDomainCrash(/*domain=*/0, /*crash_at=*/kFailAt,
                          /*recover_at=*/kDuration + 50.0);

  sys.RunUntil(kFailAt);
  DomainCrashRun run;
  std::vector<dsps::common::EntityId> domain0 = sys.EntitiesInDomain(0);
  for (int i = 1; i <= kMapQueries; ++i) {
    for (dsps::common::EntityId e : domain0) {
      if (sys.EntityOf(i) == e) ++run.orphans;
    }
  }
  // Detection + recovery completion: both members evicted and every
  // orphan re-installed (the clock includes the heartbeat silence).
  while (sys.now() < kDuration) {
    int evicted = 0;
    for (dsps::common::EntityId e : domain0) {
      if (!sys.IsAlive(e)) ++evicted;
    }
    if (evicted == static_cast<int>(domain0.size()) &&
        sys.unplaced_count() == 0 && run.recovery_time_s < 0) {
      run.recovery_time_s = sys.now() - kFailAt;
      break;
    }
    sys.RunUntil(sys.now() + 0.01);
  }
  sys.RunUntil(kDuration + 1.0);

  run.failure_stats = sys.failure_stats();
  run.rehomed = run.failure_stats.queries_rehomed;
  run.unplaced = sys.unplaced_count();
  run.correlated_events = sys.fault_injector()->correlated_crash_events();
  for (int i = 1; i <= kMapQueries; ++i) {
    dsps::common::EntityId home = sys.EntityOf(i);
    if (home == dsps::common::kInvalidEntity || !sys.IsAlive(home)) ++run.lost;
  }
  if (run.lost != 0 || run.unplaced != 0) {
    std::fprintf(stderr,
                 "E8 domain crash: %d lost / %d unplaced queries "
                 "(acceptance bar is zero)\n",
                 run.lost, run.unplaced);
    std::abort();
  }
  return run;
}

// ---------------------------------------------------------------------------
// Post-failure assignment quality: placement map vs repartitioners.

std::vector<int> BlockDomains(int entities, int domains) {
  std::vector<int> d(entities);
  for (int e = 0; e < entities; ++e) {
    d[e] = static_cast<int>(static_cast<int64_t>(e) * domains / entities);
  }
  return d;
}

struct StrategyRow {
  std::string name;
  double edge_cut = 0.0;
  double imbalance = 1.0;
  /// Surviving queries whose home changed because of the failure — the
  /// repartitioners may shuffle survivors to restore balance; the
  /// placement map's minimal-disruption property keeps this at zero.
  int survivor_migrations = 0;
};

std::vector<StrategyRow> CompareStrategies() {
  const int kEntities = 8, kDomains = 4, kGraphQueries = 256;
  dsps::interest::StreamCatalog catalog;
  dsps::common::Rng rng(5);
  dsps::workload::MakeTickerStreams(4, dsps::workload::StockTickerGen::Config{},
                                    &catalog, &rng);
  dsps::workload::QueryGen::Config qcfg;
  qcfg.join_prob = 0.0;
  qcfg.hotspot_prob = 0.8;
  qcfg.num_hotspots = 6;
  dsps::workload::QueryGen gen(qcfg, &catalog, dsps::common::Rng(6));
  std::vector<dsps::engine::Query> queries = gen.Batch(kGraphQueries);
  dsps::partition::QueryGraph graph =
      dsps::partition::QueryGraph::Build(queries, catalog);

  // The pre-failure baseline both sides adapt from.
  dsps::partition::MultilevelPartitioner initial;
  auto part = initial.Partition(graph, kEntities, 1.15);
  if (!part.ok()) std::abort();
  std::vector<int> before = part.value();

  // Entity 0 dies. Survivor parts relabel to [0, k-1); its vertices are
  // orphans (-1) that every strategy must place somewhere.
  std::vector<int> old_assignment(before.size());
  for (size_t v = 0; v < before.size(); ++v) {
    old_assignment[v] = before[v] == 0 ? -1 : before[v] - 1;
  }

  std::vector<StrategyRow> rows;
  for (const char* name : {"scratch", "incremental", "hybrid"}) {
    auto rp = dsps::partition::MakeRepartitioner(name);
    if (rp == nullptr) std::abort();
    auto result =
        rp->Repartition(graph, old_assignment, kEntities - 1, 1.15);
    StrategyRow row;
    row.name = name;
    row.edge_cut = result.edge_cut;
    row.imbalance = result.imbalance;
    row.survivor_migrations =
        dsps::partition::CountMigrations(old_assignment, result.assignment);
    rows.push_back(row);
  }

  // Placement map: same queries, same failure. Survivor homes are
  // untouched by construction — only the dead entity's targets change.
  dsps::placement::PlacementMap map(BlockDomains(kEntities, kDomains));
  std::vector<int> map_before(queries.size());
  for (size_t v = 0; v < queries.size(); ++v) {
    map_before[v] = static_cast<int>(map.Primary(queries[v].id));
  }
  map.SetAlive(0, false);
  StrategyRow row;
  row.name = "placement_map";
  std::vector<int> map_after(queries.size());
  for (size_t v = 0; v < queries.size(); ++v) {
    int home = static_cast<int>(map.Primary(queries[v].id));
    if (map_before[v] != 0 && home != map_before[v]) {
      ++row.survivor_migrations;
    }
    map_after[v] = home - 1;  // entity 0 is dead: homes are 1..7
  }
  dsps::partition::AssignmentQuality q =
      dsps::partition::EvaluateAssignment(graph, map_after, kEntities - 1);
  row.edge_cut = q.edge_cut;
  row.imbalance = q.imbalance;
  rows.push_back(row);
  return rows;
}

void BM_Failover(benchmark::State& state) {
  for (auto _ : state) {
    FailoverRun r = Run(Scenario::kOracleFailure);
    benchmark::DoNotOptimize(r.rehomed);
  }
}
BENCHMARK(BM_Failover)->Unit(benchmark::kMillisecond);

void BM_DetectedFailover(benchmark::State& state) {
  for (auto _ : state) {
    FailoverRun r = Run(Scenario::kDetectedFailure);
    benchmark::DoNotOptimize(r.rehomed);
  }
}
BENCHMARK(BM_DetectedFailover)->Unit(benchmark::kMillisecond);

void BM_MapFailover(benchmark::State& state) {
  int num_entities = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MapRecoveryRun r = RunMapRecovery(num_entities, /*parallel=*/true);
    benchmark::DoNotOptimize(r.recovery_time_s);
  }
}
BENCHMARK(BM_MapFailover)->Arg(4)->Arg(8)->Arg(12)->Unit(
    benchmark::kMillisecond);

void PrintE8() {
  dsps::telemetry::BenchReport report("e8_failover");
  dsps::telemetry::MetricsRegistry failed_metrics;
  // Half-second trajectory sampling: fine enough to show the result-rate
  // dip at t=3s, the repair, and the re-join at t=6s.
  dsps::telemetry::TimeSeriesRecorder::Config scfg;
  scfg.interval_s = 0.5;
  dsps::telemetry::TimeSeriesRecorder healthy_series(scfg);
  dsps::telemetry::TimeSeriesRecorder detected_series(scfg);
  std::string audit_report;
  FailoverRun healthy = Run(Scenario::kHealthy, nullptr, &healthy_series);
  FailoverRun failed = Run(Scenario::kOracleFailure, &failed_metrics);
  FailoverRun detected =
      Run(Scenario::kDetectedFailure, nullptr, &detected_series,
          &audit_report);
  Table table({"interval (s)", "results/s healthy", "results/s oracle fail",
               "results/s detected fail"});
  for (size_t i = 0; i < healthy.results_per_interval.size(); ++i) {
    table.AddRow({Table::Int(static_cast<int64_t>(i)),
                  Table::Int(healthy.results_per_interval[i]),
                  Table::Int(failed.results_per_interval[i]),
                  Table::Int(detected.results_per_interval[i])});
    dsps::telemetry::Labels labels =
        dsps::telemetry::MakeLabels({{"interval", std::to_string(i)}});
    report.SetHeadline("results_healthy", healthy.results_per_interval[i],
                       labels);
    report.SetHeadline("results_failed", failed.results_per_interval[i],
                       labels);
    report.SetHeadline("results_detected", detected.results_per_interval[i],
                       labels);
  }
  report.SetHeadline("rehomed", failed.rehomed);
  report.SetHeadline("lost_queries", failed.lost_queries);
  // The detection pipeline: crash -> heartbeat silence -> sweep -> repair.
  const dsps::system::System::FailureStats& fs = detected.failure_stats;
  report.SetHeadline("detected_orphans", detected.orphans);
  report.SetHeadline("detected_rehomed", detected.rehomed);
  report.SetHeadline("detected_unplaced", detected.unplaced);
  report.SetHeadline("detections", fs.detections);
  report.SetHeadline("readmissions", fs.readmissions);
  report.SetHeadline("detection_latency_ms",
                     fs.detection_latency.mean() * 1e3);
  report.SetHeadline("heartbeat_messages",
                     static_cast<double>(fs.heartbeat_messages));
  report.SetHeadline("repair_messages",
                     static_cast<double>(fs.repair_messages));
  report.SetHeadline("recovery_time_s", detected.recovery_time_s);
  report.SetHeadline("dropped_messages",
                     static_cast<double>(detected.dropped_messages));
  report.SetHeadline("dissemination_retries",
                     static_cast<double>(detected.dissemination_retries));
  // DSPS_WATCHDOG legs: the healthy run must be anomaly-free end to end
  // and the oracle run quiet up to the announced failure (those phases
  // are unperturbed), while the detected run — a lossy WAN plus a real
  // crash — must flag both pathologies it actually contains: the
  // reliable-delivery retry storm and the sweep's eviction of the silent
  // entity. Headlines exist only when the watchdog ran, so the default
  // report stays bit-identical with the health layer off.
  if (detected.watchdog_on) {
    report.SetHeadline("watchdog_anomalies_healthy",
                       static_cast<double>(healthy.anomalies));
    report.SetHeadline("watchdog_anomalies_detected",
                       static_cast<double>(detected.anomalies));
    report.SetHeadline("watchdog_entity_loss_triggers",
                       static_cast<double>(detected.entity_loss_triggers));
    report.SetHeadline("watchdog_retry_storm_triggers",
                       static_cast<double>(detected.retry_storm_triggers));
    if (healthy.anomalies != 0) {
      std::fprintf(stderr,
                   "E8: watchdog raised %lld anomalies on the healthy run "
                   "(quiet runs must be silent)\n",
                   static_cast<long long>(healthy.anomalies));
      std::abort();
    }
    if (failed.anomalies_pre_fail != 0) {
      std::fprintf(stderr,
                   "E8: watchdog raised %lld anomalies before the oracle "
                   "failure (the unperturbed phase must be silent)\n",
                   static_cast<long long>(failed.anomalies_pre_fail));
      std::abort();
    }
    if (detected.entity_loss_triggers < 1) {
      std::fprintf(stderr,
                   "E8: watchdog missed the detected crash (0 entity_loss "
                   "anomalies)\n");
      std::abort();
    }
    if (detected.retry_storm_triggers < 1) {
      std::fprintf(stderr,
                   "E8: watchdog missed the retry storm (0 retry_storm "
                   "anomalies on a 2%% lossy WAN with reliable hops)\n");
      std::abort();
    }
  }
  report.MergeSnapshot(failed_metrics.Snapshot());
  report.AttachSeries(&healthy_series,
                      dsps::telemetry::MakeLabels({{"scenario", "healthy"}}));
  report.AttachSeries(
      &detected_series,
      dsps::telemetry::MakeLabels({{"scenario", "detected_failure"}}));

  // -- Declustered placement-map survivor sweep --------------------------
  Table sweep_table({"entities", "survivors", "orphans", "batches",
                     "fallback entities", "parallel recovery s",
                     "serial recovery s"});
  std::vector<double> parallel_times;
  for (int entities : {4, 6, 8, 12}) {
    MapRecoveryRun par = RunMapRecovery(entities, /*parallel=*/true);
    MapRecoveryRun ser = RunMapRecovery(entities, /*parallel=*/false);
    dsps::telemetry::Labels survivors = dsps::telemetry::MakeLabels(
        {{"survivors", std::to_string(par.survivors)}});
    report.SetHeadline("map_recovery_time_s", par.recovery_time_s,
                       dsps::telemetry::MakeLabels(
                           {{"survivors", std::to_string(par.survivors)},
                            {"mode", "parallel"}}));
    report.SetHeadline("map_recovery_time_s", ser.recovery_time_s,
                       dsps::telemetry::MakeLabels(
                           {{"survivors", std::to_string(ser.survivors)},
                            {"mode", "serial"}}));
    report.SetHeadline("map_orphans", par.orphans, survivors);
    report.SetHeadline("map_rehome_batches",
                       static_cast<double>(par.rehome_batches), survivors);
    report.SetHeadline("map_fallback_entities", par.fallback_entities,
                       survivors);
    report.SetHeadline("map_unplaced", par.unplaced + ser.unplaced,
                       survivors);
    sweep_table.AddRow({Table::Int(entities), Table::Int(par.survivors),
                        Table::Int(par.orphans),
                        Table::Int(par.rehome_batches),
                        Table::Int(par.fallback_entities),
                        Table::Num(par.recovery_time_s, 3),
                        Table::Num(ser.recovery_time_s, 3)});
    // The parallel fan-out must beat the serial re-home chain whenever
    // more than one survivor shares the rebuild.
    if (par.recovery_time_s >= ser.recovery_time_s) {
      std::fprintf(stderr,
                   "E8 map: parallel recovery (%f s) did not beat serial "
                   "(%f s) at %d survivors\n",
                   par.recovery_time_s, ser.recovery_time_s, par.survivors);
      std::abort();
    }
    parallel_times.push_back(par.recovery_time_s);
  }
  // Declustering's headline claim: recovery time shrinks as the rebuild
  // spreads over more survivors (endpoints of the sweep, fixed queries).
  if (parallel_times.back() >= parallel_times.front()) {
    std::fprintf(stderr,
                 "E8 map: recovery did not speed up with survivors "
                 "(3 survivors: %f s, 11 survivors: %f s)\n",
                 parallel_times.front(), parallel_times.back());
    std::abort();
  }
  sweep_table.Print(
      "E8: declustered placement-map recovery — one entity of N fails, "
      "orphans fan out to precomputed standbys in parallel (fixed " +
      std::to_string(kMapQueries) + "-query workload)");

  // -- Correlated domain crash -------------------------------------------
  dsps::telemetry::TimeSeriesRecorder::Config mcfg;
  mcfg.interval_s = 0.5;
  dsps::telemetry::TimeSeriesRecorder domain_series(mcfg);
  DomainCrashRun domain = RunDomainCrash(&domain_series);
  report.SetHeadline("domain_crash_orphans", domain.orphans);
  report.SetHeadline("domain_crash_rehomed", domain.rehomed);
  report.SetHeadline("domain_crash_unplaced", domain.unplaced);
  report.SetHeadline("domain_crash_lost", domain.lost);
  report.SetHeadline("domain_crash_recovery_time_s", domain.recovery_time_s);
  report.SetHeadline("domain_crash_detections",
                     domain.failure_stats.detections);
  report.SetHeadline("correlated_crash_events",
                     static_cast<double>(domain.correlated_events));
  report.AttachSeries(
      &domain_series,
      dsps::telemetry::MakeLabels({{"scenario", "domain_crash_map"}}));
  std::printf(
      "E8: correlated crash of fault domain 0 (2/8 entities) at t=%gs — "
      "%d orphans, %d re-homed, %d unplaced, %d lost, detection+recovery "
      "%.3f s\n\n",
      kFailAt, domain.orphans, domain.rehomed, domain.unplaced, domain.lost,
      domain.recovery_time_s);

  // -- Post-failure assignment quality -----------------------------------
  Table strategy_table({"strategy", "edge cut B/s", "imbalance",
                        "survivor migrations"});
  for (const StrategyRow& row : CompareStrategies()) {
    dsps::telemetry::Labels labels =
        dsps::telemetry::MakeLabels({{"strategy", row.name}});
    report.SetHeadline("strategy_edge_cut", row.edge_cut, labels);
    report.SetHeadline("strategy_imbalance", row.imbalance, labels);
    report.SetHeadline("strategy_survivor_migrations",
                       row.survivor_migrations, labels);
    strategy_table.AddRow({row.name, Table::Num(row.edge_cut, 0),
                           Table::Num(row.imbalance, 3),
                           Table::Int(row.survivor_migrations)});
  }
  strategy_table.Print(
      "E8: post-failure assignment quality — repartitioners shuffle "
      "survivors to restore balance; the placement map moves only the "
      "dead entity's queries");

  report.WriteFileOrDie();
  if (!audit_report.empty()) {
    const char* dir = std::getenv("DSPS_BENCH_DIR");
    std::string path = (dir != nullptr && dir[0] != '\0')
                           ? std::string(dir) + "/AUDIT_e8_failover.json"
                           : std::string("AUDIT_e8_failover.json");
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr || std::fputs((audit_report + "\n").c_str(), f) < 0) {
      std::fprintf(stderr, "E8: cannot write %s\n", path.c_str());
      std::abort();
    }
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }
  table.Print(
      "E8: entity failure at t=3s — oracle vs heartbeat-detected "
      "(detection latency " +
      std::to_string(fs.detection_latency.mean() * 1e3) + " ms, " +
      std::to_string(detected.rehomed) + "/" +
      std::to_string(detected.orphans) + " orphans re-homed, " +
      std::to_string(detected.unplaced) + " unplaced, recovery " +
      std::to_string(detected.recovery_time_s) +
      " s after the crash; the entity re-joins at t=6s)");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintE8();
  return 0;
}
