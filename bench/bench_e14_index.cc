// Experiment E14 (bucketed interest index): BoxIndex (equal-depth buckets
// found by binary search) vs a naive linear reference scan across box
// counts, measuring build
// cost, point-stab (Match) latency, box-overlap (MatchOverlap) latency,
// and memory, with the reference cross-checking every output.
//
// Two sizes share one code path, selected by DSPS_E14_SCALE:
//  * smoke (default) — 1k / 10k / 100k boxes. Fast enough for CI; this
//    is the size pinned against bench/baselines/BENCH_e14_index.json.
//  * full  (=full)   — adds the 1,000,000-box tier (the linear reference
//    is skipped there: a million box tests per stab measures patience,
//    not indexes).
//
// Per (boxes, strategy) the JSON carries index.build_us (gauge),
// index.lookup_us / index.overlap_us (histograms: per-operation), and
// index.mem_bytes (gauge); strategy is "bucket" (the index) or "linear"
// (the reference). Headlines:
// bucket_speedup_vs_linear_match and bucket_speedup_vs_linear_overlap at
// the largest tier the reference runs (100k boxes at both scales; linear
// mean / index mean), match_checks /
// overlap_checks (output-equality comparisons performed), and boxes_max.
//
// Acceptance bars (abort on violation): at every tier the reference runs,
// the index agrees with it element-for-element (order included), and both
// speedups are >= 2.0.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "index_series.h"
#include "interest/box_index.h"
#include "telemetry/bench_report.h"

namespace {

using dsps::common::Table;
using dsps::interest::Box;
using dsps::interest::BoxIndex;
using dsps::interest::Interval;

constexpr double kSpeedupBar = 2.0;

struct Tier {
  size_t boxes;
  int lookups;
  int overlaps;
  /// Whether the naive linear reference runs at this tier.
  bool linear;
};

std::vector<Tier> PickTiers() {
  std::vector<Tier> tiers = {{1000, 2000, 400, true},
                             {10000, 2000, 400, true},
                             {100000, 800, 200, true}};
  const char* s = std::getenv("DSPS_E14_SCALE");
  if (s != nullptr && std::string(s) == "full") {
    tiers.push_back({1000000, 300, 80, false});
  }
  return tiers;
}

/// Mixed-shape subscriber population over a 3-dim domain: mostly narrow
/// boxes (selective standing queries), a medium slice, and a few fat
/// ones (coarse entity aggregates) — the shape the routing caches and
/// stream indexes actually hold.
std::vector<Box> MakeBoxes(size_t n, const Box& domain, uint64_t seed) {
  dsps::common::Rng rng(seed);
  const double span = domain[0].hi - domain[0].lo;
  std::vector<Box> boxes;
  boxes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double frac;
    const double shape = rng.Uniform(0.0, 1.0);
    if (shape < 0.80) {
      frac = 0.0001;
    } else if (shape < 0.95) {
      frac = 0.001;
    } else {
      frac = 0.01;
    }
    const double width = span * frac;
    const double lo = domain[0].lo + rng.Uniform(0.0, span - width);
    Box box(domain.size());
    box[0] = Interval{lo, lo + width};
    for (size_t d = 1; d < domain.size(); ++d) {
      const double dspan = domain[d].hi - domain[d].lo;
      const double dlo = domain[d].lo + rng.Uniform(0.0, dspan * 0.5);
      box[d] = Interval{dlo, dlo + dspan * 0.5};
    }
    boxes.push_back(std::move(box));
  }
  return boxes;
}

/// Naive reference: scan every (subscriber, box) pair, then sort+unique
/// like BoxIndex does — the output contract the index must reproduce.
struct LinearIndex {
  const std::vector<Box>* boxes;

  void Match(const double* point, std::vector<int64_t>* out) const {
    const size_t before = out->size();
    for (size_t i = 0; i < boxes->size(); ++i) {
      if (dsps::interest::BoxContains((*boxes)[i], point)) {
        out->push_back(static_cast<int64_t>(i));
      }
    }
    std::sort(out->begin() + before, out->end());
    out->erase(std::unique(out->begin() + before, out->end()), out->end());
  }
  void MatchOverlap(const Box& query, std::vector<int64_t>* out) const {
    if (dsps::interest::BoxEmpty(query)) return;
    const size_t before = out->size();
    for (size_t i = 0; i < boxes->size(); ++i) {
      const Box& b = (*boxes)[i];
      bool overlaps = true;
      for (size_t d = 0; d < b.size() && overlaps; ++d) {
        overlaps = b[d].Overlaps(query[d]);
      }
      if (overlaps) out->push_back(static_cast<int64_t>(i));
    }
    std::sort(out->begin() + before, out->end());
    out->erase(std::unique(out->begin() + before, out->end()), out->end());
  }
};

double UsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<double> RandomPoint(dsps::common::Rng* rng, const Box& domain) {
  std::vector<double> p(domain.size());
  for (size_t d = 0; d < domain.size(); ++d) {
    p[d] = rng->Uniform(domain[d].lo, domain[d].hi);
  }
  return p;
}

Box RandomQueryBox(dsps::common::Rng* rng, const Box& domain) {
  Box q(domain.size());
  const double span = domain[0].hi - domain[0].lo;
  const double width = span * 0.01;
  const double lo = domain[0].lo + rng->Uniform(0.0, span - width);
  q[0] = Interval{lo, lo + width};
  for (size_t d = 1; d < domain.size(); ++d) q[d] = domain[d];
  return q;
}

struct StrategyResult {
  double build_us = 0.0;
  double lookup_mean_us = 0.0;
  double overlap_mean_us = 0.0;
  int64_t mem_bytes = 0;
};

struct TierResult {
  StrategyResult index;
  StrategyResult linear;
  bool has_linear = false;
  int64_t match_checks = 0;
  int64_t overlap_checks = 0;
};

/// Runs the index or the reference over the tier: timed lookups, timed
/// overlaps. `match_out` / `overlap_out` collect the first kChecks
/// results for the equality verification.
constexpr int kChecks = 200;

template <typename Index>
StrategyResult RunStrategy(Index& index, const Tier& tier, const Box& domain,
                           double build_us,
                           std::vector<std::vector<int64_t>>* match_out,
                           std::vector<std::vector<int64_t>>* overlap_out,
                           dsps::telemetry::MetricsRegistry* metrics,
                           const dsps::telemetry::Labels& labels) {
  StrategyResult r;
  r.build_us = build_us;
  metrics->gauge("index.build_us", labels)->Set(build_us);
  auto* lookup_us = metrics->histogram("index.lookup_us", labels);
  auto* overlap_us = metrics->histogram("index.overlap_us", labels);

  dsps::common::Rng rng(271828);
  std::vector<int64_t> out;
  double lookup_total = 0.0;
  for (int i = 0; i < tier.lookups; ++i) {
    const std::vector<double> p = RandomPoint(&rng, domain);
    out.clear();
    auto start = std::chrono::steady_clock::now();
    index.Match(p.data(), &out);
    const double us = UsSince(start);
    lookup_us->Observe(us);
    lookup_total += us;
    if (i < kChecks) match_out->push_back(out);
  }
  r.lookup_mean_us = tier.lookups > 0 ? lookup_total / tier.lookups : 0.0;

  dsps::common::Rng orng(314159);
  double overlap_total = 0.0;
  for (int i = 0; i < tier.overlaps; ++i) {
    const Box q = RandomQueryBox(&orng, domain);
    out.clear();
    auto start = std::chrono::steady_clock::now();
    index.MatchOverlap(q, &out);
    const double us = UsSince(start);
    overlap_us->Observe(us);
    overlap_total += us;
    if (i < kChecks) overlap_out->push_back(out);
  }
  r.overlap_mean_us = tier.overlaps > 0 ? overlap_total / tier.overlaps : 0.0;
  return r;
}

void CheckEqual(const std::vector<std::vector<int64_t>>& a,
                const std::vector<std::vector<int64_t>>& b, const char* what,
                size_t boxes) {
  if (a == b) return;
  std::fprintf(stderr,
               "E14: %s output mismatch vs the linear reference at %zu "
               "boxes\n",
               what, boxes);
  std::abort();
}

TierResult RunTier(const Tier& tier, dsps::telemetry::MetricsRegistry* metrics) {
  const Box domain{{0.0, 1000.0}, {0.0, 1000.0}, {0.0, 1000.0}};
  const std::vector<Box> boxes = MakeBoxes(tier.boxes, domain, 42 + tier.boxes);
  auto labels_for = [&](const char* strategy) {
    return dsps::telemetry::MakeLabels(
        {{"boxes", std::to_string(tier.boxes)}, {"strategy", strategy}});
  };
  TierResult result;
  std::vector<std::vector<int64_t>> index_match, index_overlap;
  {
    BoxIndex index(domain.size());
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < boxes.size(); ++i) {
      index.Insert(static_cast<int64_t>(i), boxes[i]);
    }
    // The first stab pays the lazy bucket build; charge it to build time
    // so lookup_us measures steady-state stabs.
    std::vector<double> warm(domain.size(), domain[0].lo);
    std::vector<int64_t> out;
    index.Match(warm.data(), &out);
    const double build_us = UsSince(start);
    const dsps::telemetry::Labels labels = labels_for("bucket");
    result.index = RunStrategy(index, tier, domain, build_us, &index_match,
                               &index_overlap, metrics, labels);
    dsps::interest::IndexStats stats;
    index.AddStatsTo(&stats);
    result.index.mem_bytes = stats.mem_bytes;
    dsps::bench::ExportIndexStats(stats, metrics, labels);
    metrics->gauge("index.build_us", labels)->Set(build_us);
  }

  if (tier.linear) {
    std::vector<std::vector<int64_t>> linear_match, linear_overlap;
    LinearIndex index{&boxes};
    const dsps::telemetry::Labels labels = labels_for("linear");
    result.linear = RunStrategy(index, tier, domain, 0.0, &linear_match,
                                &linear_overlap, metrics, labels);
    result.linear.mem_bytes = static_cast<int64_t>(
        boxes.size() * (sizeof(int64_t) + 3 * sizeof(Interval)));
    metrics->gauge("index.mem_bytes", labels)->Set(
        static_cast<double>(result.linear.mem_bytes));
    result.has_linear = true;
    CheckEqual(index_match, linear_match, "Match", tier.boxes);
    CheckEqual(index_overlap, linear_overlap, "MatchOverlap", tier.boxes);
    result.match_checks = static_cast<int64_t>(index_match.size());
    result.overlap_checks = static_cast<int64_t>(index_overlap.size());
  }
  return result;
}

void PrintE14() {
  const std::vector<Tier> tiers = PickTiers();
  dsps::telemetry::BenchReport report("e14_index");
  dsps::telemetry::MetricsRegistry metrics;
  Table table({"boxes", "strategy", "build ms", "lookup us", "overlap us",
               "mem MB", "speedup vs linear"});
  double bar_speedup_match = 0.0;
  double bar_speedup_overlap = 0.0;
  size_t bar_boxes = 0;
  int64_t match_checks = 0;
  int64_t overlap_checks = 0;
  for (const Tier& tier : tiers) {
    TierResult r = RunTier(tier, &metrics);
    match_checks += r.match_checks;
    overlap_checks += r.overlap_checks;
    auto add_row = [&](const char* name, const StrategyResult& s,
                       double speedup) {
      table.AddRow({Table::Int(static_cast<int64_t>(tier.boxes)), name,
                    Table::Num(s.build_us / 1e3, 2),
                    Table::Num(s.lookup_mean_us, 3),
                    Table::Num(s.overlap_mean_us, 3),
                    Table::Num(s.mem_bytes / 1e6, 2),
                    speedup > 0.0 ? Table::Num(speedup, 2) : std::string("-")});
    };
    if (!r.has_linear) {
      add_row("bucket", r.index, 0.0);
      continue;
    }
    const double speedup_match =
        r.index.lookup_mean_us > 0.0
            ? r.linear.lookup_mean_us / r.index.lookup_mean_us
            : 0.0;
    const double speedup_overlap =
        r.index.overlap_mean_us > 0.0
            ? r.linear.overlap_mean_us / r.index.overlap_mean_us
            : 0.0;
    add_row("bucket", r.index, speedup_match);
    add_row("linear", r.linear, 0.0);
    // The bar applies to the largest tier the reference runs.
    bar_speedup_match = speedup_match;
    bar_speedup_overlap = speedup_overlap;
    bar_boxes = tier.boxes;
  }
  table.Print(
      "E14: bucketed interest index vs linear reference (mixed narrow/fat "
      "boxes; speedup = linear lookup mean / index lookup mean)");

  report.SetHeadline("boxes_max", static_cast<double>(tiers.back().boxes));
  report.SetHeadline("bucket_speedup_vs_linear_match", bar_speedup_match);
  report.SetHeadline("bucket_speedup_vs_linear_overlap", bar_speedup_overlap);
  report.SetHeadline("match_checks", static_cast<double>(match_checks));
  report.SetHeadline("overlap_checks", static_cast<double>(overlap_checks));
  report.MergeSnapshot(metrics.Snapshot());
  report.WriteFileOrDie();

  // Bars last: the table and the report are on disk for diagnosis before
  // an abort fails the CI leg.
  if (bar_speedup_match < kSpeedupBar || bar_speedup_overlap < kSpeedupBar) {
    std::fprintf(stderr,
                 "E14: index speedup over the linear reference below the "
                 "%.1fx bar at %zu boxes (match %.2fx, overlap %.2fx)\n",
                 kSpeedupBar, bar_boxes, bar_speedup_match,
                 bar_speedup_overlap);
    std::abort();
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintE14();
  return 0;
}
