// Shared bench helper for the learned interest index telemetry: every
// index-bearing bench (E1, E3, E13, E14) publishes the same index.*
// series into its BENCH_<name>.json so tools/bench_diff can gate them and
// tools/dsps_doctor can judge index health from any report uniformly.
//
// Two complementary exports:
//  - ExportIndexStats() dumps an interest::IndexStats snapshot (taken
//    from the live structures — dissemination routing caches, the
//    query-graph inverted indexes, per-entity stream indexes) as gauges.
//    Deterministic: every value derives from counts, never from wall
//    time, except index.build_us which is the accumulated spline
//    (re)build cost.
//  - RunIndexLookupProbe() builds a fresh BoxIndex over a supplied box
//    population and times point-stab lookups against it, emitting the
//    index.lookup_us histogram (whose p95 dsps_doctor surfaces) plus the
//    probe index's own stats under the same labels. The probe is the
//    only honest way to publish per-lookup latency without timing the
//    simulator's hot per-tuple path.

#ifndef DSPS_BENCH_INDEX_SERIES_H_
#define DSPS_BENCH_INDEX_SERIES_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "interest/box_index.h"
#include "telemetry/registry.h"

namespace dsps::bench {

inline void ExportIndexStats(const interest::IndexStats& s,
                             telemetry::MetricsRegistry* metrics,
                             const telemetry::Labels& labels = {}) {
  auto set = [&](const char* name, double v) {
    metrics->gauge(name, labels)->Set(v);
  };
  set("index.indexes", static_cast<double>(s.indexes));
  set("index.boxes", static_cast<double>(s.boxes));
  set("index.mem_bytes", static_cast<double>(s.mem_bytes));
  set("index.build_us", s.build_us);
  set("index.lookups", static_cast<double>(s.lookups));
  set("index.spline_lookups", static_cast<double>(s.spline_lookups));
  set("index.spline_fallbacks", static_cast<double>(s.spline_fallbacks));
  set("index.spline_fallback_rate", s.FallbackRate());
  set("index.spline_rebuilds", static_cast<double>(s.spline_rebuilds));
  set("index.spline_knots", static_cast<double>(s.spline_knots));
  set("index.spline_buckets", static_cast<double>(s.spline_buckets));
  set("index.spline_max_error", static_cast<double>(s.spline_max_error));
  set("index.declared_fallback_bound", s.declared_fallback_bound);
}

struct IndexProbeConfig {
  int lookups = 2000;
  uint64_t seed = 97;
};

/// Builds a BoxIndex over `boxes` (subscriber i holds boxes[i]), forces
/// the lazy spline build with one warm-up stab, then times
/// `config.lookups` point stabs drawn uniformly from `domain`. Emits
/// under `labels`:
/// index.build_us (gauge: wall clock of inserts + first build),
/// index.lookup_us (histogram: per-stab latency), and the probe index's
/// full stats via ExportIndexStats. The RNG is seeded, so the probed
/// points — and therefore every non-timing value — are deterministic.
inline void RunIndexLookupProbe(const std::vector<interest::Box>& boxes,
                                const interest::Box& domain,
                                const IndexProbeConfig& config,
                                telemetry::MetricsRegistry* metrics,
                                const telemetry::Labels& labels = {}) {
  using Clock = std::chrono::steady_clock;
  auto us_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
  };
  interest::BoxIndex index(domain.size());
  std::vector<double> point(domain.size(), 0.0);
  std::vector<int64_t> out;
  auto build_start = Clock::now();
  for (size_t i = 0; i < boxes.size(); ++i) {
    index.Insert(static_cast<int64_t>(i), boxes[i]);
  }
  // First stab pays the lazy spline build; keep it inside the build
  // timer so lookup_us measures steady-state stabs only.
  for (double& v : point) v = 0.0;
  if (!domain.empty()) point[0] = domain[0].lo;
  index.Match(point.data(), &out);
  metrics->gauge("index.build_us", labels)->Set(us_since(build_start));

  common::Rng rng(config.seed);
  auto* lookup_us = metrics->histogram("index.lookup_us", labels);
  for (int i = 0; i < config.lookups; ++i) {
    for (size_t d = 0; d < domain.size(); ++d) {
      point[d] = rng.Uniform(domain[d].lo, domain[d].hi);
    }
    out.clear();
    auto start = Clock::now();
    index.Match(point.data(), &out);
    lookup_us->Observe(us_since(start));
  }
  interest::IndexStats stats;
  index.AddStatsTo(&stats);
  // The probe's wall-clock build time replaces the stats' accumulated
  // spline build_us (already set above); export the rest.
  const double probe_build_us = metrics->gauge("index.build_us", labels)->value();
  ExportIndexStats(stats, metrics, labels);
  metrics->gauge("index.build_us", labels)->Set(probe_build_us);
}

}  // namespace dsps::bench

#endif  // DSPS_BENCH_INDEX_SERIES_H_
