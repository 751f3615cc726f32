// Health summarizer over the observability plane's machine-readable
// outputs: audit reports (system::Auditor::WriteReport) and bench JSON
// (telemetry::BenchReport). Prints one table row per file and exits
// non-zero when anything is unhealthy, so CI can gate on it:
//
//   - an audit report is unhealthy when violations > 0 (or it recorded
//     zero sweeps — an auditor that never ran proves nothing);
//   - a bench report is unhealthy when its telemetry.nonfinite_values
//     counter is non-zero (NaN/Inf leaked into the metrics), or when any
//     "unplaced" headline is non-zero (queries were orphaned by a failure
//     and never re-homed — the failover acceptance bar is zero);
//   - "recovery_time" headlines are summarized as a range so the failover
//     experiments' repair latency is visible at a glance;
//   - bench reports carrying per-tenant headline gauges (the multi-tenant
//     benches label headline.tenant_* with {tenant=<name>}) get a
//     per-tenant admission table, and a tenant whose reject count exceeds
//     its declared quota headroom (headline.tenant_quota_headroom) marks
//     the file unhealthy;
//   - reports that publish simulator throughput (headline.sim_events_per_sec
//     plus its self-declared headline.sim_events_per_sec_floor) show the
//     rate in the headline table and go unhealthy when it falls below the
//     floor — the order-of-magnitude-collapse alarm backing the E13
//     bench_diff gate;
//   - reports carrying index.* gauges (the learned-interest-index series
//     the index-bearing benches export per label scope) get a per-scope
//     index table: box count, memory, spline error bound, lookup
//     p95 (from the index.lookup_us histogram when present), and the
//     spline fallback rate. A scope whose fallback rate exceeds its
//     declared bound (index.declared_fallback_bound) marks the file
//     unhealthy — the spline's bounded-error self-certification failed
//     more often than it promised;
//   - reports with anomaly.* counters (runs under telemetry::Watchdog)
//     get an anomaly table, one row per detector. Anomalies alone do not
//     mark a file unhealthy — fault-injection legs flag them by design;
//     the benches' own acceptance bars decide which ones are fatal;
//   - non-zero trace.dropped_spans / trace.dropped_instants (span budget
//     exhausted — the decomposition silently under-counts; raise
//     max_spans or switch to stage aggregation) and non-zero
//     common.histogram_overflow (an exact histogram hit its sample cap)
//     and non-zero telemetry.series_dropped (a time-series recorder hit
//     its sample cap) mark the file unhealthy: truncated telemetry must
//     never pass for complete.
//
// Usage: dsps_doctor <report.json>...
// Exit status: 0 = healthy, 1 = violations found, 2 = usage/parse error.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.h"
#include "telemetry/json.h"

namespace {

using dsps::common::Table;
using dsps::telemetry::JsonValue;
using dsps::telemetry::ParseJson;

struct TenantHealth {
  double submitted = 0.0;
  double admitted = 0.0;
  double queued = 0.0;
  double degraded = 0.0;
  double rejected = 0.0;
  double slo_attainment = -1.0;  // worst across scenarios; -1 = none seen
  double quota_headroom = -1.0;  // reject budget; -1 = not declared
};

struct IndexHealth {
  double indexes = 0.0;
  double boxes = 0.0;
  double mem_bytes = 0.0;
  double spline_max_error = 0.0;
  double fallback_rate = -1.0;    // -1 = not reported
  double declared_bound = -1.0;   // -1 = not declared
  double spline_lookups = 0.0;
  double lookup_p95_us = -1.0;    // -1 = no lookup histogram in scope
};

struct FileHealth {
  std::string path;
  std::string kind;
  std::string summary;
  bool healthy = true;
  /// Per-tenant admission rollup (empty for non-tenant reports).
  std::map<std::string, TenantHealth> tenants;
  /// Per-scope learned-index rollup keyed by the sample's full label
  /// set (empty for reports without index.* series).
  std::map<std::string, IndexHealth> indexes;
  /// Watchdog anomaly counts keyed by detector name (empty when the run
  /// had no watchdog or it stayed silent).
  std::map<std::string, double> anomalies;
};

/// {"report":"audit","sweeps":..,"violations":..,"checks":[...]}
FileHealth SummarizeAudit(const std::string& path, const JsonValue& doc) {
  FileHealth h;
  h.path = path;
  h.kind = "audit";
  auto sweeps = static_cast<int64_t>(doc.NumberOr("sweeps", 0));
  auto violations = static_cast<int64_t>(doc.NumberOr("violations", -1));
  std::ostringstream os;
  os << sweeps << " sweeps, " << violations << " violations";
  if (violations != 0) {
    h.healthy = false;
    const JsonValue* checks = doc.Find("checks");
    if (checks != nullptr && checks->is_array()) {
      for (const JsonValue& check : checks->items) {
        if (check.NumberOr("violations", 0) > 0) {
          os << "; " << check.StringOr("name", "?") << ": "
             << check.StringOr("last_detail", "?");
          break;
        }
      }
    }
  } else if (sweeps == 0) {
    h.healthy = false;
    os << " (auditor never ran)";
  }
  h.summary = os.str();
  return h;
}

/// {"bench":name,"metrics":[{"name":..,"value":..},...],...}
FileHealth SummarizeBench(const std::string& path, const JsonValue& doc) {
  FileHealth h;
  h.path = path;
  h.kind = "bench " + doc.StringOr("bench", "?");
  double nonfinite = 0.0;
  double audit_violations = 0.0;
  double unplaced = 0.0;
  double anomaly_total = 0.0;
  double dropped_spans = 0.0;
  double dropped_instants = 0.0;
  double histogram_overflow = 0.0;
  double series_dropped = 0.0;
  double recovery_min = 0.0, recovery_max = 0.0;
  int recovery_samples = 0;
  double events_per_sec = -1.0;
  double events_per_sec_floor = -1.0;
  size_t num_metrics = 0;
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics != nullptr && metrics->is_array()) {
    num_metrics = metrics->items.size();
    for (const JsonValue& sample : metrics->items) {
      std::string name = sample.StringOr("name", "");
      if (name == "telemetry.nonfinite_values") {
        nonfinite += sample.NumberOr("value", 0.0);
      } else if (name == "audit.violations") {
        audit_violations += sample.NumberOr("value", 0.0);
      } else if (name == "anomaly.total") {
        anomaly_total += sample.NumberOr("value", 0.0);
      } else if (name == "anomaly.events") {
        const JsonValue* labels = sample.Find("labels");
        std::string detector =
            labels != nullptr ? labels->StringOr("detector", "") : "";
        if (detector.empty()) detector = "(unlabeled)";
        h.anomalies[detector] += sample.NumberOr("value", 0.0);
      } else if (name == "trace.dropped_spans") {
        dropped_spans += sample.NumberOr("value", 0.0);
      } else if (name == "trace.dropped_instants") {
        dropped_instants += sample.NumberOr("value", 0.0);
      } else if (name == "common.histogram_overflow") {
        histogram_overflow += sample.NumberOr("value", 0.0);
      } else if (name == "telemetry.series_dropped") {
        series_dropped += sample.NumberOr("value", 0.0);
      } else if (name.rfind("headline.tenant_", 0) == 0) {
        const JsonValue* labels = sample.Find("labels");
        std::string who =
            labels != nullptr ? labels->StringOr("tenant", "") : "";
        if (who.empty()) continue;
        TenantHealth& t = h.tenants[who];
        double value = sample.NumberOr("value", 0.0);
        std::string field = name.substr(std::string("headline.").size());
        if (field == "tenant_submitted") {
          t.submitted += value;
        } else if (field == "tenant_admitted") {
          t.admitted += value;
        } else if (field == "tenant_queued") {
          t.queued += value;
        } else if (field == "tenant_degraded") {
          t.degraded += value;
        } else if (field == "tenant_rejected") {
          t.rejected += value;
        } else if (field == "tenant_slo_attainment") {
          // Several scenarios may report; the doctor keeps the worst.
          t.slo_attainment = t.slo_attainment < 0
                                 ? value
                                 : std::min(t.slo_attainment, value);
        } else if (field == "tenant_quota_headroom") {
          t.quota_headroom = t.quota_headroom < 0
                                 ? value
                                 : std::min(t.quota_headroom, value);
        }
      } else if (name == "headline.sim_events_per_sec") {
        events_per_sec = sample.NumberOr("value", -1.0);
      } else if (name == "headline.sim_events_per_sec_floor") {
        events_per_sec_floor = sample.NumberOr("value", -1.0);
      } else if (name.rfind("index.", 0) == 0) {
        // One IndexHealth rollup per label set (the benches label each
        // index scope — "system", "probe", per-(boxes,strategy), ...).
        const JsonValue* labels = sample.Find("labels");
        std::string scope;
        if (labels != nullptr && labels->is_object()) {
          for (const auto& [k, v] : labels->members) {
            if (!scope.empty()) scope += ",";
            scope += k + "=" + (v.kind == JsonValue::Kind::kString
                                    ? v.string
                                    : std::to_string(v.number));
          }
        }
        if (scope.empty()) scope = "(unlabeled)";
        IndexHealth& ix = h.indexes[scope];
        double value = sample.NumberOr("value", 0.0);
        if (name == "index.indexes") {
          ix.indexes = value;
        } else if (name == "index.boxes") {
          ix.boxes = value;
        } else if (name == "index.mem_bytes") {
          ix.mem_bytes = value;
        } else if (name == "index.spline_max_error") {
          ix.spline_max_error = value;
        } else if (name == "index.spline_fallback_rate") {
          ix.fallback_rate = value;
        } else if (name == "index.declared_fallback_bound") {
          ix.declared_bound = value;
        } else if (name == "index.spline_lookups") {
          ix.spline_lookups = value;
        } else if (name == "index.lookup_us.p95") {
          ix.lookup_p95_us = value;
        }
      } else if (name.rfind("headline.", 0) == 0) {
        double value = sample.NumberOr("value", 0.0);
        if (name.find("unplaced") != std::string::npos) {
          unplaced += value;
        } else if (name.find("recovery_time") != std::string::npos) {
          recovery_min =
              recovery_samples == 0 ? value : std::min(recovery_min, value);
          recovery_max =
              recovery_samples == 0 ? value : std::max(recovery_max, value);
          ++recovery_samples;
        }
      }
    }
  }
  size_t num_series = 0;
  const JsonValue* series = doc.Find("series");
  if (series != nullptr && series->is_array()) num_series = series->items.size();
  std::ostringstream os;
  os << num_metrics << " metrics, " << num_series << " series blocks";
  if (recovery_samples == 1) {
    os << ", recovery " << recovery_max << " s";
  } else if (recovery_samples > 1) {
    os << ", recovery " << recovery_min << ".." << recovery_max << " s";
  }
  if (events_per_sec >= 0) {
    os << ", " << static_cast<int64_t>(events_per_sec) << " events/s";
    if (events_per_sec_floor >= 0 && events_per_sec < events_per_sec_floor) {
      h.healthy = false;
      os << " < floor " << static_cast<int64_t>(events_per_sec_floor);
    }
  }
  if (nonfinite > 0) {
    h.healthy = false;
    os << "; " << nonfinite << " non-finite values";
  }
  if (audit_violations > 0) {
    h.healthy = false;
    os << "; " << audit_violations << " audit violations";
  }
  if (unplaced > 0) {
    h.healthy = false;
    os << "; " << unplaced << " queries unplaced";
  }
  // Anomalies are surfaced, not judged: fault legs raise them by design,
  // and each bench's own acceptance bars decide which ones abort.
  if (anomaly_total > 0) {
    os << "; " << anomaly_total << " anomalies flagged";
  }
  if (dropped_spans > 0 || dropped_instants > 0) {
    h.healthy = false;
    os << "; trace dropped " << dropped_spans << " spans / "
       << dropped_instants
       << " instants (budget exhausted — raise max_spans or aggregate "
          "stages)";
  }
  if (histogram_overflow > 0) {
    h.healthy = false;
    os << "; " << histogram_overflow
       << " histogram samples dropped at the cap (use telemetry::Sketch "
          "for unbounded streams)";
  }
  if (series_dropped > 0) {
    h.healthy = false;
    os << "; " << series_dropped
       << " time-series samples dropped at the cap";
  }
  for (const auto& [who, t] : h.tenants) {
    if (t.quota_headroom >= 0 && t.rejected > t.quota_headroom) {
      h.healthy = false;
      os << "; tenant " << who << " rejected " << t.rejected
         << " > headroom " << t.quota_headroom;
    }
  }
  for (const auto& [scope, ix] : h.indexes) {
    // Only judge scopes that actually took spline lookups: a scope with
    // zero spline traffic has nothing to certify.
    if (ix.declared_bound >= 0 && ix.spline_lookups > 0 &&
        ix.fallback_rate > ix.declared_bound) {
      h.healthy = false;
      os << "; index " << scope << " fallback rate " << ix.fallback_rate
         << " > declared bound " << ix.declared_bound;
    }
  }
  h.summary = os.str();
  return h;
}

void PrintIndexTable(const FileHealth& h) {
  Table table({"scope", "boxes", "mem MB", "max err", "lookup p95 us",
               "fallback rate", "bound"});
  for (const auto& [scope, ix] : h.indexes) {
    table.AddRow(
        {scope, Table::Num(ix.boxes, 0),
         Table::Num(ix.mem_bytes / 1e6, 2), Table::Num(ix.spline_max_error, 0),
         ix.lookup_p95_us < 0 ? "-" : Table::Num(ix.lookup_p95_us, 3),
         ix.fallback_rate < 0 ? "-" : Table::Num(ix.fallback_rate, 4),
         ix.declared_bound < 0 ? "-" : Table::Num(ix.declared_bound, 4)});
  }
  table.Print("Interest indexes in " + h.path);
}

void PrintTenantTable(const FileHealth& h) {
  Table table({"tenant", "submitted", "admitted", "queued", "degraded",
               "rejected", "headroom", "worst SLO attain"});
  for (const auto& [who, t] : h.tenants) {
    table.AddRow(
        {who, Table::Num(t.submitted, 0), Table::Num(t.admitted, 0),
         Table::Num(t.queued, 0), Table::Num(t.degraded, 0),
         Table::Num(t.rejected, 0),
         t.quota_headroom < 0 ? "-" : Table::Num(t.quota_headroom, 0),
         t.slo_attainment < 0 ? "-" : Table::Num(t.slo_attainment, 3)});
  }
  table.Print("Tenants in " + h.path);
}

void PrintAnomalyTable(const FileHealth& h) {
  Table table({"detector", "events"});
  for (const auto& [detector, events] : h.anomalies) {
    table.AddRow({detector, Table::Num(events, 0)});
  }
  table.Print("Anomalies in " + h.path);
}

int RunMain(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: dsps_doctor <report.json>..." << std::endl;
    return 2;
  }
  std::vector<FileHealth> results;
  for (int i = 1; i < argc; ++i) {
    std::string path = argv[i];
    std::ifstream file(path);
    if (!file) {
      std::cerr << "dsps_doctor: cannot open " << path << std::endl;
      return 2;
    }
    std::ostringstream buf;
    buf << file.rdbuf();
    auto parsed = ParseJson(buf.str());
    if (!parsed.ok()) {
      std::cerr << "dsps_doctor: " << path << ": "
                << parsed.status().ToString() << std::endl;
      return 2;
    }
    const JsonValue& doc = parsed.value();
    if (doc.StringOr("report", "") == "audit") {
      results.push_back(SummarizeAudit(path, doc));
    } else if (doc.Find("bench") != nullptr) {
      results.push_back(SummarizeBench(path, doc));
    } else {
      std::cerr << "dsps_doctor: " << path
                << ": neither an audit report nor a bench report"
                << std::endl;
      return 2;
    }
  }
  Table table({"file", "kind", "status", "summary"});
  bool all_healthy = true;
  for (const FileHealth& h : results) {
    all_healthy = all_healthy && h.healthy;
    table.AddRow({h.path, h.kind, h.healthy ? "OK" : "UNHEALTHY", h.summary});
  }
  table.Print("dsps_doctor");
  for (const FileHealth& h : results) {
    if (!h.tenants.empty()) PrintTenantTable(h);
    if (!h.indexes.empty()) PrintIndexTable(h);
    if (!h.anomalies.empty()) PrintAnomalyTable(h);
  }
  return all_healthy ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return RunMain(argc, argv); }
