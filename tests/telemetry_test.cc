#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "telemetry/bench_report.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/json.h"
#include "telemetry/registry.h"
#include "telemetry/sinks.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace dsps::telemetry {
namespace {

// Exact nearest-rank quantile of 1..n (the reference a registry
// histogram's sketch-backed quantile is checked against).
double RankOfOneToN(int n, double q) {
  return std::max(1.0, std::ceil(q * n));
}

// Value of the metric `name` in the report's JSON, -1 when absent.
double ReportMetric(BenchReport& report, const std::string& name) {
  auto parsed = ParseJson(report.ToJson());
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  if (!parsed.ok()) return -1.0;
  for (const JsonValue& item : parsed.value().Find("metrics")->items) {
    if (item.StringOr("name", "") == name) return item.NumberOr("value", -1.0);
  }
  return -1.0;
}

// A sketch-backed quantile must land within kRelativeAccuracy of the
// exact one.
void ExpectWithinAccuracy(double est, double exact) {
  const double alpha = Sketch::kRelativeAccuracy;
  EXPECT_NEAR(est, exact, alpha * std::fabs(exact)) << "exact " << exact;
}

TEST(MetricsRegistryTest, CounterInterningIsStable) {
  MetricsRegistry reg;
  Counter* a = reg.counter("requests");
  Counter* b = reg.counter("requests");
  EXPECT_EQ(a, b);
  a->Increment();
  b->Increment(4);
  EXPECT_EQ(a->value(), 5);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, LabelsDistinguishSeries) {
  MetricsRegistry reg;
  Counter* a = reg.counter("bytes", MakeLabels({{"link", "0-1"}}));
  Counter* b = reg.counter("bytes", MakeLabels({{"link", "0-2"}}));
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotMatter) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x", MakeLabels({{"a", "1"}, {"b", "2"}}));
  Counter* b = reg.counter("x", MakeLabels({{"b", "2"}, {"a", "1"}}));
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistryTest, SameNameDifferentKindsCoexist) {
  MetricsRegistry reg;
  reg.counter("load")->Increment();
  reg.gauge("load")->Set(0.5);
  EXPECT_EQ(reg.size(), 2u);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.samples.size(), 2u);
}

TEST(MetricsRegistryTest, SnapshotIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry a;
  a.counter("z", MakeLabels({{"k", "2"}}))->Increment(7);
  a.counter("a")->Increment(1);
  a.gauge("m")->Set(3.5);
  a.histogram("h")->Observe(1.0);
  a.histogram("h")->Observe(3.0);

  MetricsRegistry b;
  b.histogram("h")->Observe(1.0);
  b.gauge("m")->Set(3.5);
  b.counter("a")->Increment(1);
  b.counter("z", MakeLabels({{"k", "2"}}))->Increment(7);
  b.histogram("h")->Observe(3.0);

  EXPECT_EQ(a.Snapshot().ToJson(), b.Snapshot().ToJson());
}

TEST(MetricsRegistryTest, SnapshotFindLocatesSeries) {
  MetricsRegistry reg;
  reg.counter("hits", MakeLabels({{"node", "3"}}))->Increment(9);
  MetricsSnapshot snap = reg.Snapshot();
  const MetricSample* s = snap.Find("hits", MakeLabels({{"node", "3"}}));
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 9.0);
  EXPECT_EQ(snap.Find("hits", MakeLabels({{"node", "4"}})), nullptr);
  EXPECT_EQ(snap.Find("misses"), nullptr);
}

TEST(MetricsRegistryTest, MergeFromAddsCountersAndMergesHistograms) {
  MetricsRegistry a;
  a.counter("n")->Increment(2);
  a.histogram("lat")->Observe(1.0);
  a.gauge("g")->Set(1.0);

  MetricsRegistry b;
  b.counter("n")->Increment(3);
  b.histogram("lat")->Observe(3.0);
  b.gauge("g")->Set(2.0);

  a.MergeFrom(b);
  EXPECT_EQ(a.counter("n")->value(), 5);
  const Sketch* lat = a.histogram("lat")->sketch();
  EXPECT_EQ(lat->count(), 2);
  EXPECT_DOUBLE_EQ(lat->sum(), 4.0);
  EXPECT_DOUBLE_EQ(lat->min(), 1.0);
  EXPECT_DOUBLE_EQ(lat->max(), 3.0);
  EXPECT_DOUBLE_EQ(a.histogram("lat")->mean(), 2.0);
  // Nearest rank over {1, 3}: the median is 1, the p99 is 3.
  ExpectWithinAccuracy(a.histogram("lat")->p50(), 1.0);
  ExpectWithinAccuracy(a.histogram("lat")->p99(), 3.0);
  // Gauges take the merged-in value (last write wins).
  EXPECT_DOUBLE_EQ(a.gauge("g")->value(), 2.0);
}

TEST(MetricsRegistryTest, HistogramSnapshotCarriesPercentiles) {
  MetricsRegistry reg;
  HistogramMetric* h = reg.histogram("queue_wait");
  for (int i = 1; i <= 100; ++i) h->Observe(i);
  MetricsSnapshot snap = reg.Snapshot();
  const MetricSample* s = snap.Find("queue_wait");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(s->count, 100);
  EXPECT_DOUBLE_EQ(s->mean, 50.5);
  EXPECT_DOUBLE_EQ(s->max, 100.0);
  EXPECT_DOUBLE_EQ(h->sketch()->sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h->sketch()->min(), 1.0);
  ExpectWithinAccuracy(s->p50, RankOfOneToN(100, 0.50));
  ExpectWithinAccuracy(s->p95, RankOfOneToN(100, 0.95));
  ExpectWithinAccuracy(s->p99, RankOfOneToN(100, 0.99));
}

TEST(JsonTest, SnapshotJsonRoundTrips) {
  MetricsRegistry reg;
  reg.counter("c", MakeLabels({{"quote", "a\"b"}}))->Increment(3);
  reg.gauge("g")->Set(-2.25);
  reg.histogram("h")->Observe(4.0);
  auto parsed = ParseJson(reg.Snapshot().ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& arr = parsed.value();
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.items.size(), 3u);
  // Samples are sorted by name: c, g, h.
  EXPECT_EQ(arr.items[0].StringOr("name", ""), "c");
  const JsonValue* labels = arr.items[0].Find("labels");
  ASSERT_NE(labels, nullptr);
  EXPECT_EQ(labels->StringOr("quote", ""), "a\"b");
  EXPECT_DOUBLE_EQ(arr.items[1].NumberOr("value", 0), -2.25);
  EXPECT_EQ(arr.items[2].StringOr("kind", ""), "histogram");
  EXPECT_DOUBLE_EQ(arr.items[2].NumberOr("count", 0), 1.0);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{\"a\":").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("").ok());
  ASSERT_TRUE(ParseJson("{\"a\": [1, 2.5, \"x\", null, true]}").ok());
}

TEST(TraceLogTest, DisabledByDefaultAndRecordsNothing) {
  TraceLog log;
  EXPECT_FALSE(log.enabled());
  EXPECT_EQ(log.MaybeStartTrace(), 0);
  log.Record(1, Stage::kExecute, 0.0, 1.0);
  EXPECT_TRUE(log.spans().empty());
}

TEST(TraceLogTest, SamplesEveryNthPublication) {
  TraceLog::Config cfg;
  cfg.sample_every_n = 3;
  TraceLog log(cfg);
  int traced = 0;
  for (int i = 0; i < 9; ++i) {
    if (log.MaybeStartTrace() != 0) ++traced;
  }
  EXPECT_EQ(traced, 3);
  EXPECT_EQ(log.publications_seen(), 9);
  EXPECT_EQ(log.traces_started(), 3);
}

TEST(TraceLogTest, MaxSpansCapCountsDrops) {
  TraceLog::Config cfg;
  cfg.sample_every_n = 1;
  cfg.max_spans = 2;
  TraceLog log(cfg);
  int64_t t = log.MaybeStartTrace();
  ASSERT_NE(t, 0);
  for (int i = 0; i < 5; ++i) log.Record(t, Stage::kExecute, i, i + 1);
  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.dropped_spans(), 3);
}

TEST(TraceLogTest, InstantsPastTheCapAreCountedReportedAndMirrored) {
  TraceLog::Config cfg;
  cfg.sample_every_n = 1;
  TraceLog log(cfg);
  FlightRecorder flight;
  log.AttachFlightRecorder(&flight);
  const size_t n = TraceLog::kMaxInstants + 5;
  for (size_t i = 0; i < n; ++i) {
    log.RecordInstant("tick", static_cast<double>(i));
  }
  EXPECT_EQ(log.instants().size(), TraceLog::kMaxInstants);
  EXPECT_EQ(log.dropped_instants(), 5);
  // The flight recorder sees every instant, dropped ones included.
  EXPECT_EQ(flight.recorded(), static_cast<int64_t>(n));
  BenchReport report("instant_cap");
  report.AttachTrace(&log);
  EXPECT_EQ(ReportMetric(report, "trace.dropped_instants"), 5.0);
}

TEST(TraceLogTest, MessageTypeMappingAttributesStages) {
  TraceLog::Config cfg;
  cfg.sample_every_n = 1;
  TraceLog log(cfg);
  log.MapMessageType(101, Stage::kDisseminationHop);
  int64_t t = log.MaybeStartTrace();
  log.RecordMessage(t, 101, 0.0, 0.5, 1, 2);
  log.RecordMessage(t, 999, 0.5, 0.6, 2, 3);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].stage, Stage::kDisseminationHop);
  EXPECT_EQ(log.spans()[0].from, 1);
  EXPECT_EQ(log.spans()[1].stage, Stage::kOther);
}

TEST(TraceLogTest, StageNamesRoundTrip) {
  for (Stage s : {Stage::kSourceEmit, Stage::kDisseminationHop,
                  Stage::kEntityIngress, Stage::kPipelineHop,
                  Stage::kQueueWait, Stage::kExecute, Stage::kResultDeliver,
                  Stage::kResult}) {
    EXPECT_EQ(StageFromName(StageName(s)), s);
  }
  EXPECT_EQ(StageFromName("bogus"), Stage::kOther);
}

TEST(SinksTest, SpanJsonLinesParseBack) {
  TraceLog::Config cfg;
  cfg.sample_every_n = 1;
  TraceLog log(cfg);
  int64_t t = log.MaybeStartTrace();
  log.Record(t, Stage::kQueueWait, 1.0, 1.5, 4, 4);
  log.Record(t, Stage::kResult, 0.0, 2.0, -1, -1, 42);
  std::ostringstream os;
  WriteSpansJsonLines(log, os);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  auto first = ParseJson(line);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().StringOr("stage", ""), "queue_wait");
  EXPECT_DOUBLE_EQ(first.value().NumberOr("end", 0), 1.5);
  ASSERT_TRUE(std::getline(is, line));
  auto second = ParseJson(line);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second.value().NumberOr("query", 0), 42.0);
}

TEST(BenchReportTest, ProducesParseableJsonWithHeadlines) {
  BenchReport report("unit_test");
  report.SetHeadline("latency_ms", 12.5, MakeLabels({{"row", "1"}}));
  MetricsRegistry component;
  component.counter("net.messages")->Increment(3);
  report.MergeSnapshot(component.Snapshot(), MakeLabels({{"row", "1"}}));
  auto parsed = ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().StringOr("bench", ""), "unit_test");
  const JsonValue* metrics = parsed.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  // The headline, the merged counter, and the always-exported trace
  // truncation counters (explicit zeros: "nothing dropped" is a
  // gateable statement, not an absence).
  ASSERT_EQ(metrics->items.size(), 4u);
  bool found_headline = false;
  double dropped_spans = -1.0, dropped_instants = -1.0;
  for (const JsonValue& item : metrics->items) {
    if (item.StringOr("name", "") == "headline.latency_ms") {
      found_headline = true;
      EXPECT_DOUBLE_EQ(item.NumberOr("value", 0), 12.5);
      const JsonValue* labels = item.Find("labels");
      ASSERT_NE(labels, nullptr);
      EXPECT_EQ(labels->StringOr("row", ""), "1");
    } else if (item.StringOr("name", "") == "trace.dropped_spans") {
      dropped_spans = item.NumberOr("value", -1.0);
    } else if (item.StringOr("name", "") == "trace.dropped_instants") {
      dropped_instants = item.NumberOr("value", -1.0);
    }
  }
  EXPECT_TRUE(found_headline);
  EXPECT_EQ(dropped_spans, 0.0);
  EXPECT_EQ(dropped_instants, 0.0);
}

TEST(JsonTest, NonfiniteNumbersRenderNullAndCount) {
  ResetNonfiniteJsonValues();
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  EXPECT_EQ(NonfiniteJsonValues(), 0);
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(NonfiniteJsonValues(), 3);
  // null is still valid JSON inside any value position.
  JsonWriter w;
  w.BeginArray().Number(std::nan("")).Number(2.0).EndArray();
  auto parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().items[0].kind, JsonValue::Kind::kNull);
  ResetNonfiniteJsonValues();
}

TEST(MetricsRegistryTest, ShardedHistogramMergeEqualsUnion) {
  // Per-shard registries merged into one must be indistinguishable —
  // byte-for-byte in snapshot JSON — from a single registry that observed
  // the union of samples.
  MetricsRegistry shard_a, shard_b, whole;
  for (int i = 1; i <= 50; ++i) {
    shard_a.histogram("lat", MakeLabels({{"op", "x"}}))->Observe(i);
    whole.histogram("lat", MakeLabels({{"op", "x"}}))->Observe(i);
  }
  for (int i = 51; i <= 100; ++i) {
    shard_b.histogram("lat", MakeLabels({{"op", "x"}}))->Observe(i);
    whole.histogram("lat", MakeLabels({{"op", "x"}}))->Observe(i);
  }
  shard_a.counter("n")->Increment(2);
  shard_b.counter("n")->Increment(3);
  whole.counter("n")->Increment(5);
  shard_a.MergeFrom(shard_b);
  EXPECT_EQ(shard_a.histogram("lat", MakeLabels({{"op", "x"}}))->count(), 100);
  EXPECT_EQ(shard_a.Snapshot().ToJson(), whole.Snapshot().ToJson());
}

TEST(BenchReportTest, NonfiniteHeadlineBecomesNullAndCounter) {
  ResetNonfiniteJsonValues();
  BenchReport report("nonfinite");
  report.SetHeadline("ok_value", 2.0);
  report.SetHeadline("bad_value", std::nan(""));
  auto parsed = ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* metrics = parsed.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  bool saw_null = false;
  double nonfinite_counter = 0.0;
  for (const JsonValue& item : metrics->items) {
    std::string name = item.StringOr("name", "");
    if (name == "headline.bad_value") {
      const JsonValue* v = item.Find("value");
      ASSERT_NE(v, nullptr);
      saw_null = v->kind == JsonValue::Kind::kNull;
    } else if (name == "telemetry.nonfinite_values") {
      nonfinite_counter = item.NumberOr("value", 0.0);
    }
  }
  EXPECT_TRUE(saw_null);
  EXPECT_GT(nonfinite_counter, 0.0);
  ResetNonfiniteJsonValues();
}

TEST(BenchReportTest, CleanReportHasNoNonfiniteCounterAndIsStable) {
  ResetNonfiniteJsonValues();
  BenchReport report("clean");
  report.SetHeadline("v", 1.25);
  std::string first = report.ToJson();
  EXPECT_EQ(first.find("telemetry.nonfinite_values"), std::string::npos);
  // Rendering is deterministic byte-for-byte.
  EXPECT_EQ(report.ToJson(), first);
}

TEST(TimeSeriesRecorderTest, GaugeAndRateProbes) {
  TimeSeriesRecorder rec;
  double gauge = 10.0;
  double cumulative = 0.0;
  rec.AddGaugeProbe("g", {}, [&] { return gauge; });
  rec.AddRateProbe("r", {}, [&] { return cumulative; });
  rec.Sample(0.0);  // first window: rate 0
  gauge = 20.0;
  cumulative = 50.0;
  rec.Sample(0.5);
  gauge = 15.0;
  cumulative = 60.0;
  rec.Sample(1.0);
  ASSERT_EQ(rec.num_samples(), 3u);
  ASSERT_EQ(rec.num_series(), 2u);
  EXPECT_EQ(rec.values(0), (std::vector<double>{10.0, 20.0, 15.0}));
  EXPECT_EQ(rec.values(1), (std::vector<double>{0.0, 100.0, 20.0}));
}

TEST(TimeSeriesRecorderTest, SamplesPastTheCapAreCountedAndReported) {
  TimeSeriesRecorder rec;
  rec.AddGaugeProbe("g", {}, [] { return 1.0; });
  BenchReport report("series_cap");
  report.AttachSeries(&rec);
  rec.Sample(0.0);
  // Below the cap nothing dropped, and no counter is interned.
  EXPECT_EQ(ReportMetric(report, "telemetry.series_dropped"), -1.0);
  for (size_t i = 1; i < TimeSeriesRecorder::kMaxSamples + 3; ++i) {
    rec.Sample(static_cast<double>(i));
  }
  EXPECT_EQ(rec.num_samples(), TimeSeriesRecorder::kMaxSamples);
  EXPECT_EQ(rec.values(0).size(), TimeSeriesRecorder::kMaxSamples);
  EXPECT_EQ(rec.dropped_samples(), 3);
  EXPECT_EQ(ReportMetric(report, "telemetry.series_dropped"), 3.0);
}

TEST(TimeSeriesRecorderTest, SeriesSectionOnlyWhenNonEmpty) {
  BenchReport report("ts_unit");
  report.SetHeadline("v", 1.0);
  TimeSeriesRecorder empty_rec;
  report.AttachSeries(&empty_rec);
  // An attached-but-never-sampled recorder emits nothing: the report is
  // byte-identical to one with no recorder at all.
  BenchReport bare("ts_unit");
  bare.SetHeadline("v", 1.0);
  EXPECT_EQ(report.ToJson(), bare.ToJson());
  EXPECT_EQ(report.ToJson().find("\"series\""), std::string::npos);

  TimeSeriesRecorder rec;
  rec.AddGaugeProbe("load", MakeLabels({{"entity", "0"}}),
                    [] { return 0.5; });
  rec.Sample(0.0);
  rec.Sample(1.0);
  report.AttachSeries(&rec, MakeLabels({{"scenario", "unit"}}));
  auto parsed = ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* series = parsed.value().Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_TRUE(series->is_array());
  ASSERT_EQ(series->items.size(), 1u);
  const JsonValue& block = series->items[0];
  const JsonValue* labels = block.Find("labels");
  ASSERT_NE(labels, nullptr);
  EXPECT_EQ(labels->StringOr("scenario", ""), "unit");
  const JsonValue* t = block.Find("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->items.size(), 2u);
  const JsonValue* inner = block.Find("series");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->items.size(), 1u);
  EXPECT_EQ(inner->items[0].StringOr("name", ""), "load");
  EXPECT_EQ(inner->items[0].Find("points")->items.size(), 2u);
}

TEST(ChromeTraceTest, ExportMatchesTraceEventSchema) {
  TraceLog::Config cfg;
  cfg.sample_every_n = 1;
  TraceLog log(cfg);
  int64_t t = log.MaybeStartTrace();
  log.Record(t, Stage::kDisseminationHop, 0.0, 0.5, 1, 2);
  log.Record(t, Stage::kResult, 0.0, 2.0, -1, -1, 7);
  log.RecordInstant("repartition", 1.0, -1, 3.0);
  log.RecordInstant("crash", 1.5, 4);
  std::ostringstream os;
  WriteSpansJsonLines(log, os);
  std::istringstream is(os.str());
  auto records = ReadTraceJsonLines(is);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records.value().spans.size(), 2u);
  EXPECT_EQ(records.value().instants.size(), 2u);

  auto parsed = ParseJson(ToChromeTraceJson(records.value()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.StringOr("displayTimeUnit", ""), "ms");
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  int complete = 0, instants = 0, metadata = 0;
  for (const JsonValue& ev : events->items) {
    // Every event carries the trace-event required keys.
    std::string ph = ev.StringOr("ph", "");
    ASSERT_FALSE(ph.empty());
    EXPECT_NE(ev.Find("pid"), nullptr);
    EXPECT_NE(ev.Find("tid"), nullptr);
    EXPECT_NE(ev.Find("name"), nullptr);
    if (ph == "M") {
      ++metadata;
      continue;
    }
    EXPECT_NE(ev.Find("ts"), nullptr);
    if (ph == "X") {
      ++complete;
      EXPECT_NE(ev.Find("dur"), nullptr);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(ev.StringOr("s", ""), "g");
    }
  }
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instants, 2);
  EXPECT_GE(metadata, 2);  // at least the two process_name records
  // Simulated seconds scale to trace microseconds: the 2s result span.
  bool found_2s = false;
  for (const JsonValue& ev : events->items) {
    if (ev.StringOr("ph", "") == "X" && ev.NumberOr("dur", 0) == 2e6) {
      found_2s = true;
    }
  }
  EXPECT_TRUE(found_2s);
}

TEST(ChromeTraceTest, StrictReaderRejectsTruncatedInput) {
  TraceLog::Config cfg;
  cfg.sample_every_n = 1;
  TraceLog log(cfg);
  int64_t t = log.MaybeStartTrace();
  log.Record(t, Stage::kExecute, 0.0, 1.0);
  log.Record(t, Stage::kResult, 0.0, 2.0);
  std::ostringstream os;
  WriteSpansJsonLines(log, os);
  std::string full = os.str();
  // Chop mid-way through the final line, as a killed writer would.
  std::string truncated = full.substr(0, full.size() - 5);
  std::istringstream is(truncated);
  auto records = ReadTraceJsonLines(is);
  ASSERT_FALSE(records.ok());
  EXPECT_NE(records.status().message().find("line 2"), std::string::npos)
      << records.status().message();
}

TEST(BenchReportTest, OutputPathHonorsEnvOverride) {
  ASSERT_EQ(setenv("DSPS_BENCH_DIR", "/tmp/dsps_bench_test", 1), 0);
  BenchReport report("paths");
  EXPECT_EQ(report.OutputPath(), "/tmp/dsps_bench_test/BENCH_paths.json");
  ASSERT_EQ(unsetenv("DSPS_BENCH_DIR"), 0);
  BenchReport local("paths");
  EXPECT_EQ(local.OutputPath(), "BENCH_paths.json");
}

}  // namespace
}  // namespace dsps::telemetry
