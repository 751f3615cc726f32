// Tests for the continuous invariant auditor (system/auditor.h): healthy
// runs — including fault-injected crash/recover cycles — must sweep with
// zero violations; a deliberately corrupted system must be caught and
// reported through counters and the JSON report.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "engine/query_builder.h"
#include "system/auditor.h"
#include "system/system.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/json.h"
#include "telemetry/registry.h"
#include "workload/stream_gen.h"

namespace dsps::system {
namespace {

System::Config SmallConfig(int num_entities = 4) {
  System::Config cfg;
  cfg.topology.num_entities = num_entities;
  cfg.topology.processors_per_entity = 2;
  cfg.topology.num_sources = 2;
  cfg.allocation = AllocationMode::kCoordinatorTree;
  cfg.seed = 7;
  return cfg;
}

void AddStreams(System* sys, int n) {
  workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = 150.0;
  interest::StreamCatalog scratch;
  common::Rng rng(3);
  sys->AddStreams(workload::MakeTickerStreams(n, tcfg, &scratch, &rng));
}

engine::Query MakeQuery(const System& sys, common::QueryId id,
                        common::StreamId stream) {
  auto q = engine::QueryBuilder(id).From(stream, sys.catalog()).Build();
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q.value();
}

TEST(AuditorTest, HealthyFaultRunSweepsWithZeroViolations) {
  System::Config cfg = SmallConfig();
  cfg.inject_faults = true;
  cfg.faults.seed = 17;
  cfg.faults.loss_probability = 0.02;
  System sys(cfg);
  AddStreams(&sys, 2);
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(MakeQuery(sys, i, i % 2)).ok());
  }
  System::FailureDetectionConfig det;
  det.heartbeat_period_s = 0.1;
  sys.EnableFailureDetection(det, /*until=*/6.0);
  sys.ScheduleCrash(1, /*crash_at=*/1.0, /*recover_at=*/3.0);
  // fatal (the default here) would abort on the first violation, so a
  // green test proves every sweep across crash, repair, and re-join held.
  Auditor* auditor = sys.EnableAudit(/*period_s=*/0.25, /*until=*/5.0);
  sys.GenerateTraffic(4.0);
  sys.RunUntil(5.0);

  EXPECT_GE(auditor->sweeps(), 10);
  EXPECT_EQ(auditor->violations(), 0);
  ASSERT_EQ(auditor->checks().size(), 6u);
  for (const Auditor::CheckStats& check : auditor->checks()) {
    EXPECT_EQ(check.runs, auditor->sweeps()) << check.name;
    EXPECT_EQ(check.violations, 0) << check.name;
  }
}

TEST(AuditorTest, AuditCountersFlowIntoMetricsRegistry) {
  telemetry::MetricsRegistry metrics;
  System::Config cfg = SmallConfig();
  cfg.metrics = &metrics;
  System sys(cfg);
  AddStreams(&sys, 2);
  ASSERT_TRUE(sys.SubmitQuery(MakeQuery(sys, 1, 0)).ok());
  sys.EnableAudit(/*period_s=*/0.5, /*until=*/2.0);
  sys.GenerateTraffic(1.0);
  sys.RunUntil(2.0);

  telemetry::MetricsSnapshot snap = metrics.Snapshot();
  const telemetry::MetricSample* sweeps = snap.Find("audit.sweeps");
  ASSERT_NE(sweeps, nullptr);
  EXPECT_GE(sweeps->value, 4.0);
  const telemetry::MetricSample* violations = snap.Find("audit.violations");
  ASSERT_NE(violations, nullptr);
  EXPECT_EQ(violations->value, 0.0);
}

TEST(AuditorTest, GhostQueryOnEntityViolatesConservation) {
  System sys(SmallConfig());
  AddStreams(&sys, 2);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(MakeQuery(sys, i, i % 2)).ok());
  }
  // until=0 creates the auditor without scheduling sweeps; fatal=false so
  // the violation is reported instead of aborting the process.
  Auditor* auditor =
      sys.EnableAudit(/*period_s=*/1.0, /*until=*/0.0, /*fatal=*/false);
  EXPECT_EQ(auditor->RunOnce(), 0);

  // Install a query on an entity behind the System's back: the entity now
  // hosts a query the home map has never heard of.
  ASSERT_TRUE(sys.entity_at(0)
                  ->InstallQuery(MakeQuery(sys, 99, 0), /*tps=*/100.0)
                  .ok());
  EXPECT_GT(auditor->RunOnce(), 0);
  EXPECT_GT(auditor->violations(), 0);
  bool conservation_flagged = false;
  for (const Auditor::CheckStats& check : auditor->checks()) {
    if (check.name == "conservation" && check.violations > 0) {
      conservation_flagged = true;
      EXPECT_FALSE(check.last_detail.empty());
    }
  }
  EXPECT_TRUE(conservation_flagged);
}

TEST(AuditorTest, InjectedViolationTriggersDeterministicFlightDump) {
  // One corrupted run: the conservation violation must auto-dump the
  // flight recorder exactly once, and an identical second run must
  // produce a byte-identical dump — post-mortems are reproducible.
  auto corrupt_and_dump = [](const std::string& path) {
    telemetry::FlightRecorder::Config fr_cfg;
    fr_cfg.dump_path = path;
    telemetry::FlightRecorder flight(fr_cfg);
    System::Config cfg = SmallConfig();
    cfg.flight = &flight;
    System sys(cfg);
    AddStreams(&sys, 2);
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(sys.SubmitQuery(MakeQuery(sys, i, i % 2)).ok());
    }
    Auditor* auditor =
        sys.EnableAudit(/*period_s=*/1.0, /*until=*/0.0, /*fatal=*/false);
    EXPECT_EQ(auditor->RunOnce(), 0);
    ASSERT_TRUE(sys.entity_at(0)
                    ->InstallQuery(MakeQuery(sys, 99, 0), /*tps=*/100.0)
                    .ok());
    EXPECT_GT(auditor->RunOnce(), 0);
    // The violation recorded an audit event and fired the one-shot dump.
    EXPECT_GT(flight.recorded(), 0);
    // A later sweep finding the same violation must not clobber the
    // first post-mortem.
    EXPECT_GT(auditor->RunOnce(), 0);
  };
  std::string path_a = ::testing::TempDir() + "/audit_flight_a.jsonl";
  std::string path_b = ::testing::TempDir() + "/audit_flight_b.jsonl";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  corrupt_and_dump(path_a);
  corrupt_and_dump(path_b);
  std::ifstream a(path_a), b(path_b);
  ASSERT_TRUE(a.good()) << "auditor violation did not dump to " << path_a;
  ASSERT_TRUE(b.good());
  std::stringstream abuf, bbuf;
  abuf << a.rdbuf();
  bbuf << b.rdbuf();
  EXPECT_FALSE(abuf.str().empty());
  EXPECT_NE(abuf.str().find("audit.violation.conservation"),
            std::string::npos);
  EXPECT_EQ(abuf.str(), bbuf.str());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(AuditorTest, ReportJsonCarriesSweepsViolationsAndChecks) {
  System sys(SmallConfig());
  AddStreams(&sys, 2);
  ASSERT_TRUE(sys.SubmitQuery(MakeQuery(sys, 1, 0)).ok());
  Auditor* auditor =
      sys.EnableAudit(/*period_s=*/1.0, /*until=*/0.0, /*fatal=*/false);
  auditor->RunOnce();
  auditor->RunOnce();

  auto parsed = telemetry::ParseJson(auditor->ReportJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const telemetry::JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.StringOr("report", ""), "audit");
  EXPECT_EQ(doc.NumberOr("sweeps", -1), 2.0);
  EXPECT_EQ(doc.NumberOr("violations", -1), 0.0);
  const telemetry::JsonValue* checks = doc.Find("checks");
  ASSERT_NE(checks, nullptr);
  ASSERT_TRUE(checks->is_array());
  ASSERT_EQ(checks->items.size(), 6u);
  for (const telemetry::JsonValue& check : checks->items) {
    EXPECT_FALSE(check.StringOr("name", "").empty());
    EXPECT_EQ(check.NumberOr("runs", -1), 2.0);
    EXPECT_EQ(check.NumberOr("violations", -1), 0.0);
  }
}

TEST(AuditorTest, AuditIntervalFromEnvParsing) {
  ASSERT_EQ(unsetenv("DSPS_AUDIT_INTERVAL"), 0);
  EXPECT_EQ(AuditIntervalFromEnv(), 0.0);
  ASSERT_EQ(setenv("DSPS_AUDIT_INTERVAL", "0.5", 1), 0);
  EXPECT_EQ(AuditIntervalFromEnv(), 0.5);
  ASSERT_EQ(setenv("DSPS_AUDIT_INTERVAL", "0", 1), 0);
  EXPECT_EQ(AuditIntervalFromEnv(), 0.0);
  ASSERT_EQ(setenv("DSPS_AUDIT_INTERVAL", "-1", 1), 0);
  EXPECT_EQ(AuditIntervalFromEnv(), 0.0);
  ASSERT_EQ(setenv("DSPS_AUDIT_INTERVAL", "bogus", 1), 0);
  EXPECT_EQ(AuditIntervalFromEnv(), 0.0);
  ASSERT_EQ(unsetenv("DSPS_AUDIT_INTERVAL"), 0);
}

}  // namespace
}  // namespace dsps::system
