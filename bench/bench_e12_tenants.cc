// Experiment E12 (multi-tenant isolation): a well-behaved "gold" tenant
// with a result-latency SLO shares the cluster with a "bronze" aggressor
// that launches a flash crowd of heavy standing queries mid-run. Three
// scenarios over an identical workload:
//
//  * passthrough — admission gate off (load_factor 0, no quotas): the
//                  pre-tenant over-commit behavior. The flash crowd lands
//                  in full and the victim's p95 blows through its SLO —
//                  the isolation failure the subsystem exists to prevent;
//  * admission   — per-tenant weighted-fair admission: the aggressor is
//                  queued (bounded wait), degraded to a coarser interest
//                  box, or rejected against its quota; the victim's p95
//                  stays within SLO;
//  * elastic     — admission plus the ElasticityManager: sustained
//                  pressure grows per-entity capacity, so queued
//                  aggressor queries drain into the new processors while
//                  the victim stays protected.
//
// Acceptance bars (abort on violation):
//  - passthrough: victim p95 > SLO (the experiment must exhibit the
//    problem, or the admission result is vacuous);
//  - admission: victim p95 <= SLO, zero victim rejections, and the
//    aggressor visibly arbitrated (queued + degraded + rejected > 0);
//  - elastic: at least one grow event, and at least as many aggressor
//    queries standing as under admission alone;
//  - per-tenant conservation holds in every tenant-enabled scenario.
//
// BENCH_e12_tenants.json carries per-tenant latency trajectories
// (series.tenant_recent_p95_ms et al. labeled {tenant, scenario}) plus
// headline.tenant_* gauges that tools/dsps_doctor turns into its
// per-tenant health table; headline.victim_p95_ms is the bench_diff CI
// gate. With DSPS_AUDIT_INTERVAL set the admission scenario runs under
// the invariant auditor and writes AUDIT_e12_tenants.json. With
// DSPS_WATCHDOG set every scenario runs under the anomaly watchdog;
// CheckBars then requires silence before the flash crowd, at least one
// anomaly on the passthrough SLO burn, and zero gold SLO-burn triggers
// under admission.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.h"
#include "engine/query_builder.h"
#include "system/auditor.h"
#include "system/system.h"
#include "telemetry/bench_report.h"
#include "telemetry/timeseries.h"
#include "workload/stream_gen.h"

namespace {

using dsps::common::Table;

constexpr double kDuration = 8.0;
/// Flash-crowd onset: the aggressor's standing queries all arrive here.
constexpr double kFlashAt = 1.5;
constexpr double kVictimSloS = 0.05;
constexpr int kVictimQueries = 4;
constexpr int kAggressorQueries = 24;
constexpr int kAggressorQuota = 10;

constexpr dsps::tenant::TenantId kVictim = 1;
constexpr dsps::tenant::TenantId kAggressor = 2;

enum class Scenario { kPassthrough, kAdmission, kElastic };

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kPassthrough:
      return "passthrough";
    case Scenario::kAdmission:
      return "admission";
    case Scenario::kElastic:
      return "elastic";
  }
  return "?";
}

struct TenantOutcome {
  dsps::tenant::AdmissionController::Counters counters;
  double p95_ms = 0.0;
  double slo_attainment = 1.0;
  int64_t results = 0;
};

struct E12Run {
  TenantOutcome victim;
  TenantOutcome aggressor;
  dsps::system::System::ElasticityStats elasticity;
  int queued_at_end = 0;
  /// Anomaly-watchdog accounting (DSPS_WATCHDOG legs only).
  bool watchdog_on = false;
  int64_t anomalies_pre_flash = 0;
  int64_t anomalies = 0;
  int64_t victim_slo_burn = 0;
};

dsps::engine::Query TenantQuery(int id, dsps::tenant::TenantId tenant,
                                double load, double cost_per_tuple,
                                dsps::system::System* sys) {
  auto q = dsps::engine::QueryBuilder(id).From(id % 2, sys->catalog()).Build();
  if (!q.ok()) std::abort();
  dsps::engine::Query query = q.value();
  query.tenant = tenant;
  query.load = load;
  // The aggressor's queries are genuinely expensive, not just declared
  // heavy: every tuple charges this much simulated CPU, so over-admitting
  // them saturates the shared processors and backs up the victim.
  std::shared_ptr<dsps::engine::QueryPlan> plan = query.plan->Clone();
  for (int op = 0; op < plan->num_operators(); ++op) {
    plan->mutable_op(op)->set_cost_per_tuple(cost_per_tuple);
  }
  query.plan = std::move(plan);
  return query;
}

E12Run Run(Scenario scenario,
           dsps::telemetry::MetricsRegistry* metrics = nullptr,
           dsps::telemetry::TimeSeriesRecorder* series = nullptr,
           std::string* audit_report = nullptr) {
  dsps::system::System::Config cfg;
  cfg.topology.num_entities = 2;
  cfg.topology.processors_per_entity = 1;
  cfg.topology.num_sources = 2;
  cfg.allocation = dsps::system::AllocationMode::kRoundRobin;
  cfg.seed = 23;
  cfg.metrics = metrics;
  // Both tenants are always registered — per-tenant latency accounting is
  // the measurement instrument of all three scenarios. What varies is the
  // POLICY: passthrough zeroes the capacity gate and the quota, restoring
  // the pre-tenant over-commit behavior under tenant-labeled telemetry.
  dsps::tenant::TenantSpec victim;
  victim.id = kVictim;
  victim.name = "gold";
  victim.weight = 4.0;
  victim.latency_slo_s = kVictimSloS;
  dsps::tenant::TenantSpec aggressor;
  aggressor.id = kAggressor;
  aggressor.name = "bronze";
  aggressor.weight = 1.0;
  if (scenario != Scenario::kPassthrough) {
    aggressor.max_standing_queries = kAggressorQuota;
  }
  cfg.tenants = {victim, aggressor};
  cfg.admission.load_factor = scenario == Scenario::kPassthrough ? 0.0 : 1.0;
  cfg.admission.max_queue_wait_s = 2.0;
  cfg.admission.slo_window_s = kDuration + 1.0;
  dsps::system::System sys(cfg);

  dsps::workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = 400.0;
  dsps::interest::StreamCatalog scratch;
  dsps::common::Rng rng(4);
  sys.AddStreams(dsps::workload::MakeTickerStreams(2, tcfg, &scratch, &rng));

  if (scenario == Scenario::kElastic) {
    dsps::tenant::ElasticityManager::Config ecfg;
    // Admitted pressure sits near 0.4 of capacity (the gate keeps it
    // there); the watermark must be below that or elasticity never sees
    // the queued demand it exists to absorb.
    ecfg.high_watermark = 0.3;
    ecfg.low_watermark = 0.05;
    ecfg.max_processors = 4;
    sys.EnableElasticity(ecfg, /*period_s=*/0.5, /*until=*/kDuration);
  }
  if (series != nullptr) {
    sys.EnableTimeSeries(series, series->config().interval_s, kDuration + 1.0);
  }
  double audit_s = dsps::system::AuditIntervalFromEnv();
  if (audit_report != nullptr && audit_s > 0) {
    sys.EnableAudit(audit_s, kDuration + 1.0);
  }
  // The anomaly watchdog is the same kind of read-only observer: CI's
  // DSPS_WATCHDOG legs assert it stays silent before the flash crowd and
  // flags the passthrough SLO burn after it.
  double watchdog_s = dsps::system::WatchdogIntervalFromEnv();
  if (watchdog_s > 0) {
    sys.EnableWatchdog(watchdog_s, kDuration + 1.0);
  }

  // The victim's steady standing queries are in place before t=0.
  for (int i = 1; i <= kVictimQueries; ++i) {
    if (!sys.SubmitQuery(TenantQuery(i, kVictim, 0.15, 2e-5, &sys)).ok()) {
      std::abort();
    }
  }
  sys.GenerateTraffic(kDuration);
  sys.RunUntil(kFlashAt);
  int64_t anomalies_pre_flash =
      sys.watchdog() != nullptr ? sys.watchdog()->anomalies() : 0;
  // Flash crowd: the aggressor demands ~2.7x the whole cluster's admission
  // limit in one burst. Submission outcomes vary by scenario; none may
  // error except the quota/queue-bound rejections the policy intends.
  for (int i = 101; i <= 100 + kAggressorQueries; ++i) {
    dsps::common::Status st =
        sys.SubmitQuery(TenantQuery(i, kAggressor, 0.2, 5e-4, &sys));
    if (!st.ok() &&
        st.code() != dsps::common::StatusCode::kResourceExhausted) {
      std::fprintf(stderr, "E12: unexpected submit error: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
  }
  sys.RunUntil(kDuration + 1.0);

  E12Run run;
  auto outcome = [&sys](dsps::tenant::TenantId t) {
    TenantOutcome o;
    o.counters = sys.admission()->counters(t);
    const dsps::telemetry::Sketch* lat = sys.TenantLatency(t);
    o.p95_ms = lat != nullptr ? lat->p95() * 1e3 : 0.0;
    o.slo_attainment = sys.TenantSloAttainment(t);
    o.results = sys.TenantResults(t);
    return o;
  };
  run.victim = outcome(kVictim);
  run.aggressor = outcome(kAggressor);
  run.elasticity = sys.elasticity_stats();
  run.queued_at_end = static_cast<int>(sys.QueuedAdmissions().size());
  if (sys.watchdog() != nullptr) {
    run.watchdog_on = true;
    run.anomalies_pre_flash = anomalies_pre_flash;
    run.anomalies = sys.watchdog()->anomalies();
    run.victim_slo_burn = sys.watchdog()->triggers("slo_burn.gold");
  }
  if (!sys.admission()->CheckConservation().ok()) {
    std::fprintf(stderr, "E12: tenant conservation violated (%s)\n",
                 ScenarioName(scenario));
    std::abort();
  }
  if (audit_report != nullptr && sys.auditor() != nullptr) {
    *audit_report = sys.auditor()->ReportJson();
  }
  return run;
}

void CheckBars(const E12Run& passthrough, const E12Run& admission,
               const E12Run& elastic) {
  if (passthrough.victim.p95_ms <= kVictimSloS * 1e3) {
    std::fprintf(stderr,
                 "E12: passthrough victim p95 %.2f ms within the %.0f ms "
                 "SLO — the flash crowd failed to exhibit the isolation "
                 "problem\n",
                 passthrough.victim.p95_ms, kVictimSloS * 1e3);
    std::abort();
  }
  if (admission.victim.p95_ms > kVictimSloS * 1e3) {
    std::fprintf(stderr,
                 "E12: admission victim p95 %.2f ms exceeds the %.0f ms "
                 "SLO — isolation failed\n",
                 admission.victim.p95_ms, kVictimSloS * 1e3);
    std::abort();
  }
  if (admission.victim.counters.rejected != 0) {
    std::fprintf(stderr, "E12: %lld victim rejections under admission\n",
                 static_cast<long long>(admission.victim.counters.rejected));
    std::abort();
  }
  const dsps::tenant::AdmissionController::Counters& agg =
      admission.aggressor.counters;
  int64_t arbitrated = (agg.submitted - agg.admitted);
  if (arbitrated <= 0 || agg.degraded + agg.rejected + agg.evicted +
                                 agg.queued_now ==
                             0) {
    std::fprintf(stderr,
                 "E12: the aggressor was not arbitrated (admitted %lld of "
                 "%lld)\n",
                 static_cast<long long>(agg.admitted),
                 static_cast<long long>(agg.submitted));
    std::abort();
  }
  if (elastic.elasticity.grow_events < 1) {
    std::fprintf(stderr, "E12: elastic scenario never grew capacity\n");
    std::abort();
  }
  if (elastic.aggressor.counters.standing <
      admission.aggressor.counters.standing) {
    std::fprintf(stderr,
                 "E12: elastic capacity served fewer aggressor queries "
                 "(%d) than static admission (%d)\n",
                 elastic.aggressor.counters.standing,
                 admission.aggressor.counters.standing);
    std::abort();
  }
  // DSPS_WATCHDOG legs: the watchdog must be silent on every quiet
  // pre-flash phase, flag the passthrough SLO burn after the crowd
  // arrives, and agree with the isolation bar that the protected victim
  // never burned its SLO under admission.
  if (passthrough.watchdog_on) {
    int64_t pre_flash = passthrough.anomalies_pre_flash +
                        admission.anomalies_pre_flash +
                        elastic.anomalies_pre_flash;
    if (pre_flash != 0) {
      std::fprintf(stderr,
                   "E12: watchdog raised %lld anomalies before the flash "
                   "crowd (quiet phases must be silent)\n",
                   static_cast<long long>(pre_flash));
      std::abort();
    }
    if (passthrough.anomalies < 1) {
      std::fprintf(stderr,
                   "E12: watchdog missed the passthrough flash crowd "
                   "(0 anomalies on an unprotected SLO burn)\n");
      std::abort();
    }
    if (admission.victim_slo_burn != 0) {
      std::fprintf(stderr,
                   "E12: watchdog reported %lld gold SLO-burn anomalies "
                   "under admission — isolation and watchdog disagree\n",
                   static_cast<long long>(admission.victim_slo_burn));
      std::abort();
    }
  }
}

void EmitTenantHeadlines(dsps::telemetry::BenchReport* report,
                         const char* name, const TenantOutcome& o,
                         int quota) {
  dsps::telemetry::Labels labels =
      dsps::telemetry::MakeLabels({{"tenant", name}});
  report->SetHeadline("tenant_submitted",
                      static_cast<double>(o.counters.submitted), labels);
  report->SetHeadline("tenant_admitted",
                      static_cast<double>(o.counters.admitted), labels);
  report->SetHeadline("tenant_queued",
                      static_cast<double>(o.counters.queued_now), labels);
  report->SetHeadline("tenant_degraded",
                      static_cast<double>(o.counters.degraded), labels);
  report->SetHeadline("tenant_rejected",
                      static_cast<double>(o.counters.rejected), labels);
  report->SetHeadline("tenant_evicted",
                      static_cast<double>(o.counters.evicted), labels);
  report->SetHeadline("tenant_slo_attainment", o.slo_attainment, labels);
  report->SetHeadline("tenant_p95_ms", o.p95_ms, labels);
  // Reject budget for tools/dsps_doctor: submissions beyond the standing
  // quota may legitimately bounce; anything more (and any victim reject,
  // whose headroom is 0) flags the report unhealthy.
  double headroom =
      quota > 0
          ? std::max<double>(0.0,
                             static_cast<double>(o.counters.submitted - quota))
          : 0.0;
  report->SetHeadline("tenant_quota_headroom", headroom, labels);
}

void BM_TenantAdmission(benchmark::State& state) {
  for (auto _ : state) {
    E12Run r = Run(Scenario::kAdmission);
    benchmark::DoNotOptimize(r.victim.p95_ms);
  }
}
BENCHMARK(BM_TenantAdmission)->Unit(benchmark::kMillisecond);

void BM_TenantElastic(benchmark::State& state) {
  for (auto _ : state) {
    E12Run r = Run(Scenario::kElastic);
    benchmark::DoNotOptimize(r.aggressor.counters.standing);
  }
}
BENCHMARK(BM_TenantElastic)->Unit(benchmark::kMillisecond);

void PrintE12() {
  dsps::telemetry::BenchReport report("e12_tenants");
  dsps::telemetry::TimeSeriesRecorder::Config scfg;
  scfg.interval_s = 0.5;
  dsps::telemetry::TimeSeriesRecorder passthrough_series(scfg);
  dsps::telemetry::TimeSeriesRecorder admission_series(scfg);
  dsps::telemetry::TimeSeriesRecorder elastic_series(scfg);
  dsps::telemetry::MetricsRegistry admission_metrics;
  std::string audit_report;
  E12Run passthrough =
      Run(Scenario::kPassthrough, nullptr, &passthrough_series);
  E12Run admission = Run(Scenario::kAdmission, &admission_metrics,
                         &admission_series, &audit_report);
  E12Run elastic = Run(Scenario::kElastic, nullptr, &elastic_series);

  Table table({"scenario", "victim p95 ms", "victim SLO attain",
               "victim results", "aggr admitted", "aggr degraded",
               "aggr rejected", "aggr evicted", "aggr standing",
               "grow events"});
  struct NamedRun {
    const char* name;
    const E12Run* run;
  };
  for (const NamedRun& row :
       {NamedRun{"passthrough", &passthrough}, NamedRun{"admission", &admission},
        NamedRun{"elastic", &elastic}}) {
    const E12Run& r = *row.run;
    table.AddRow({row.name, Table::Num(r.victim.p95_ms, 2),
                  Table::Num(r.victim.slo_attainment, 3),
                  Table::Int(r.victim.results),
                  Table::Int(r.aggressor.counters.admitted),
                  Table::Int(r.aggressor.counters.degraded),
                  Table::Int(r.aggressor.counters.rejected),
                  Table::Int(r.aggressor.counters.evicted),
                  Table::Int(r.aggressor.counters.standing),
                  Table::Int(r.elasticity.grow_events)});
    dsps::telemetry::Labels labels =
        dsps::telemetry::MakeLabels({{"scenario", row.name}});
    report.SetHeadline("scenario_victim_p95_ms", r.victim.p95_ms, labels);
    report.SetHeadline("scenario_victim_slo_attainment",
                       r.victim.slo_attainment, labels);
    report.SetHeadline("scenario_aggressor_standing",
                       r.aggressor.counters.standing, labels);
    // Watchdog headlines exist only on DSPS_WATCHDOG legs, so the
    // default report stays bit-identical with the health layer off.
    if (r.watchdog_on) {
      report.SetHeadline("watchdog_anomalies",
                         static_cast<double>(r.anomalies), labels);
      report.SetHeadline("watchdog_anomalies_pre_flash",
                         static_cast<double>(r.anomalies_pre_flash), labels);
    }
  }
  table.Print(
      "E12: tenant isolation under a flash crowd — bronze submits " +
      std::to_string(kAggressorQueries) +
      " heavy queries at t=" + std::to_string(kFlashAt) +
      "s; gold's SLO is " + std::to_string(kVictimSloS * 1e3) + " ms p95");

  // The CI gate and the doctor's per-tenant table come from the
  // admission scenario — the subsystem's intended operating point.
  report.SetHeadline("victim_p95_ms", admission.victim.p95_ms);
  report.SetHeadline("victim_slo_attainment", admission.victim.slo_attainment);
  report.SetHeadline("passthrough_victim_p95_ms", passthrough.victim.p95_ms);
  report.SetHeadline("elastic_grow_events", elastic.elasticity.grow_events);
  report.SetHeadline("elastic_processors_added",
                     elastic.elasticity.processors_added);
  EmitTenantHeadlines(&report, "gold", admission.victim, /*quota=*/0);
  EmitTenantHeadlines(&report, "bronze", admission.aggressor,
                      kAggressorQuota);
  report.MergeSnapshot(admission_metrics.Snapshot());
  report.AttachSeries(
      &passthrough_series,
      dsps::telemetry::MakeLabels({{"scenario", "passthrough"}}));
  report.AttachSeries(&admission_series, dsps::telemetry::MakeLabels(
                                             {{"scenario", "admission"}}));
  report.AttachSeries(&elastic_series,
                      dsps::telemetry::MakeLabels({{"scenario", "elastic"}}));
  report.WriteFileOrDie();

  if (!audit_report.empty()) {
    const char* dir = std::getenv("DSPS_BENCH_DIR");
    std::string path = (dir != nullptr && dir[0] != '\0')
                           ? std::string(dir) + "/AUDIT_e12_tenants.json"
                           : std::string("AUDIT_e12_tenants.json");
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr || std::fputs((audit_report + "\n").c_str(), f) < 0) {
      std::fprintf(stderr, "E12: cannot write %s\n", path.c_str());
      std::abort();
    }
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }
  // Bars last: a violated bar still leaves the table and the report on
  // disk for diagnosis before the abort fails the CI leg.
  CheckBars(passthrough, admission, elastic);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintE12();
  return 0;
}
