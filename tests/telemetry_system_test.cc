// End-to-end telemetry integration: traces recorded by a full System run
// must decompose each result's latency exactly into its per-stage spans,
// and enabling telemetry must not perturb the simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/query_builder.h"
#include "system/system.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/registry.h"
#include "telemetry/sinks.h"
#include "telemetry/trace.h"
#include "workload/stream_gen.h"

namespace dsps::system {
namespace {

System::Config BaseConfig() {
  System::Config cfg;
  cfg.topology.num_entities = 2;
  cfg.topology.processors_per_entity = 2;
  cfg.topology.num_sources = 1;
  cfg.allocation = AllocationMode::kCoordinatorTree;
  cfg.engine_family = "basic";
  cfg.seed = 7;
  return cfg;
}

void RunWorkload(System* sys) {
  workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = 100.0;
  interest::StreamCatalog scratch;
  common::Rng rng(3);
  sys->AddStreams(workload::MakeTickerStreams(1, tcfg, &scratch, &rng));
  // One wide filter query: each traced tuple follows exactly one causal
  // path (several matching queries would record several execute spans).
  auto q = engine::QueryBuilder(1).From(0, sys->catalog()).Build();
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(sys->SubmitQuery(q.value()).ok());
  sys->GenerateTraffic(1.0);
  sys->RunUntil(2.0);
}

TEST(TelemetrySystemTest, StageSpansSumToEndToEndLatency) {
  telemetry::TraceLog::Config tcfg;
  tcfg.sample_every_n = 1;  // trace every tuple
  telemetry::TraceLog trace(tcfg);
  System::Config cfg = BaseConfig();
  cfg.trace = &trace;
  System sys(cfg);
  RunWorkload(&sys);

  ASSERT_GT(trace.traces_started(), 10);
  EXPECT_EQ(trace.dropped_spans(), 0);

  struct PerTrace {
    double stage_sum = 0.0;
    std::vector<double> end_to_end;
    std::map<telemetry::Stage, int> stage_count;
  };
  std::map<int64_t, PerTrace> traces;
  for (const telemetry::Span& span : trace.spans()) {
    PerTrace& t = traces[span.trace];
    t.stage_count[span.stage] += 1;
    if (span.stage == telemetry::Stage::kResult) {
      t.end_to_end.push_back(span.duration());
    } else {
      EXPECT_GE(span.duration(), 0.0);
      t.stage_sum += span.duration();
    }
  }

  int complete = 0;
  for (const auto& [id, t] : traces) {
    if (t.end_to_end.empty()) continue;  // filtered out before any result
    ++complete;
    // With a single installed query every traced tuple yields one result,
    // and the instrumented stages partition [source timestamp, result
    // completion]: emission, WAN hops, entity ingress, queue wait, and
    // execution, with no gaps (handlers fire at span boundaries).
    ASSERT_EQ(t.end_to_end.size(), 1u);
    EXPECT_NEAR(t.stage_sum, t.end_to_end[0], 1e-9)
        << "trace " << id << " spans do not tile its end-to-end latency";
    EXPECT_EQ(t.stage_count.count(telemetry::Stage::kOther), 0u);
  }
  ASSERT_GT(complete, 10);

  // The decomposition touches every expected stage somewhere in the run.
  std::map<telemetry::Stage, int> total;
  for (const telemetry::Span& span : trace.spans()) total[span.stage] += 1;
  EXPECT_GT(total[telemetry::Stage::kSourceEmit], 0);
  EXPECT_GT(total[telemetry::Stage::kDisseminationHop], 0);
  EXPECT_GT(total[telemetry::Stage::kEntityIngress], 0);
  EXPECT_GT(total[telemetry::Stage::kQueueWait], 0);
  EXPECT_GT(total[telemetry::Stage::kExecute], 0);
  EXPECT_GT(total[telemetry::Stage::kResult], 0);
}

TEST(TelemetrySystemTest, CollectedLatencyQuantilesMatchResultSpans) {
  // Every result records one kResult span whose duration is that result's
  // latency, so the spans are the exact reference for the sketch-backed
  // SystemMetrics::latency.
  telemetry::TraceLog::Config tcfg;
  tcfg.sample_every_n = 1;
  telemetry::TraceLog trace(tcfg);
  System::Config cfg = BaseConfig();
  cfg.trace = &trace;
  System sys(cfg);
  RunWorkload(&sys);
  ASSERT_EQ(trace.dropped_spans(), 0);

  std::vector<double> exact;
  for (const telemetry::Span& span : trace.spans()) {
    if (span.stage == telemetry::Stage::kResult) {
      exact.push_back(span.duration());
    }
  }
  ASSERT_GT(exact.size(), 10u);
  std::sort(exact.begin(), exact.end());
  const SystemMetrics m = sys.Collect();
  EXPECT_EQ(m.latency.count(), static_cast<int64_t>(exact.size()));
  const double alpha = m.latency.config().relative_accuracy;
  for (double q : {0.50, 0.95, 0.99}) {
    // Exact nearest rank in [1, n].
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(q * static_cast<double>(exact.size()))),
        1, exact.size());
    const double truth = exact[rank - 1];
    EXPECT_NEAR(m.latency.Percentile(q), truth, alpha * truth) << "q=" << q;
  }
}

TEST(TelemetrySystemTest, MetricsAgreeWithSystemCounters) {
  telemetry::MetricsRegistry metrics;
  System::Config cfg = BaseConfig();
  cfg.metrics = &metrics;
  System sys(cfg);
  RunWorkload(&sys);

  SystemMetrics collected = sys.Collect();
  telemetry::MetricsSnapshot snap = metrics.Snapshot();
  const telemetry::MetricSample* results = snap.Find("system.results");
  ASSERT_NE(results, nullptr);
  EXPECT_EQ(static_cast<int64_t>(results->value), collected.results);
  const telemetry::MetricSample* net_bytes = snap.Find("net.bytes");
  ASSERT_NE(net_bytes, nullptr);
  EXPECT_GT(net_bytes->value, 0.0);
}

TEST(TelemetrySystemTest, CrashRunRecordsControlPlaneInstants) {
  telemetry::TraceLog::Config tcfg;
  // Tracing on (instants need an enabled log), but the sampling stride
  // outruns the run: control-plane instants without per-tuple spans.
  tcfg.sample_every_n = 1 << 20;
  telemetry::TraceLog trace(tcfg);
  System::Config cfg = BaseConfig();
  cfg.topology.num_entities = 3;
  cfg.trace = &trace;
  cfg.inject_faults = true;
  cfg.faults.seed = 5;
  System sys(cfg);
  workload::StockTickerGen::Config scfg;
  scfg.tuples_per_s = 100.0;
  interest::StreamCatalog scratch;
  common::Rng rng(3);
  sys.AddStreams(workload::MakeTickerStreams(1, scfg, &scratch, &rng));
  for (int i = 1; i <= 3; ++i) {
    auto q = engine::QueryBuilder(i).From(0, sys.catalog()).Build();
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(sys.SubmitQuery(q.value()).ok());
  }
  System::FailureDetectionConfig det;
  det.heartbeat_period_s = 0.1;
  det.timeout_s = 0.35;
  det.sweep_period_s = 0.1;
  sys.EnableFailureDetection(det, /*until=*/5.0);
  sys.ScheduleCrash(1, /*crash_at=*/1.0, /*recover_at=*/2.5);
  sys.GenerateTraffic(3.0);
  sys.RunUntil(4.0);

  // The crash/detect/evict/recover/readmit lifecycle left markers, in
  // simulated-time order.
  std::set<std::string> names;
  double prev = 0.0;
  for (const telemetry::Instant& instant : trace.instants()) {
    names.insert(instant.name);
    EXPECT_GE(instant.t, prev);
    prev = instant.t;
  }
  for (const char* expected :
       {"crash", "detect", "evict", "recover", "readmit"}) {
    EXPECT_TRUE(names.count(expected)) << "missing instant: " << expected;
  }

  // The JSONL round-trip and the Chrome export both carry the instants.
  std::ostringstream os;
  WriteSpansJsonLines(trace, os);
  std::istringstream is(os.str());
  auto records = telemetry::ReadTraceJsonLines(is);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records.value().instants.size(), trace.instants().size());
  std::string chrome = telemetry::ToChromeTraceJson(records.value());
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"crash\""), std::string::npos);
}

TEST(TelemetrySystemTest, TelemetryDoesNotPerturbTheSimulation) {
  SystemMetrics plain, instrumented;
  {
    System sys(BaseConfig());
    RunWorkload(&sys);
    plain = sys.Collect();
  }
  {
    telemetry::MetricsRegistry metrics;
    telemetry::TraceLog::Config tcfg;
    tcfg.sample_every_n = 2;
    telemetry::TraceLog trace(tcfg);
    System::Config cfg = BaseConfig();
    cfg.metrics = &metrics;
    cfg.trace = &trace;
    cfg.per_link_metrics = true;
    System sys(cfg);
    RunWorkload(&sys);
    instrumented = sys.Collect();
  }
  // Instrumentation sends no messages and consumes no randomness, so the
  // simulations are bit-identical.
  EXPECT_EQ(plain.results, instrumented.results);
  EXPECT_EQ(plain.wan_bytes, instrumented.wan_bytes);
  EXPECT_DOUBLE_EQ(plain.latency.p99(), instrumented.latency.p99());
}

}  // namespace
}  // namespace dsps::system
