// Repository benchmark driver. Runs one workload of the two-layer system
// through system::System's public API, repeats it until the requested wall
// time is spent, checks the outputs, and prints the metrics.
//
//   dsps_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <file.jsonl>]
//
// Workloads (sizes in the k* constants below; see perfbench/NOTES.md):
//   steady_dissemination  standing queries installed during set-up, then one
//                         long stream-traffic window (sim, network,
//                         dissemination, entity execution).
//   query_storm           four tenants' random-interest queries submitted
//                         one at a time in arrival order, admission on, no
//                         traffic (coordinator, tenant, interest writes).
//   churn_repartition     rounds of traffic, arrivals, withdrawals and one
//                         HybridRepartitioner round, with a crash window
//                         under heartbeat detection and lossy links
//                         (partition, failover, reliable delivery).
//
// Every iteration builds a fresh System from the same inputs, which are all
// generated before the first iteration (query lists, arrival order, churn
// and fault scripts). Simulated outputs must therefore repeat exactly: each
// iteration is compared against the first, traced ones included, since
// telemetry never changes a simulation.
//
// Untraced iterations give the end-to-end metrics, from each public call's
// fastest time over iterations (see BestTimes). With --trace 1 traced
// iterations alternate with untraced ones: they attach a MetricsRegistry and
// a stage-aggregating TraceLog, record wall-clock spans around every public
// call (plus the in-program timers each call accumulated, as derived child
// spans), and give the per-layer metrics and layer self times.
//
// Every metric is printed by name with its unit; the last stdout line is one
// JSON object with "correct", "attempted", "failed", "end_to_end",
// "per_layer", "layer_self_us", "sim" and "check_failures".
// perfbench/run.py turns it into the benchmark's result line.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "partition/repartitioner.h"
#include "system/system.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace {

using Clock = std::chrono::steady_clock;
using dsps::engine::Query;
using dsps::system::System;

// ---------------------------------------------------------------------------
// Workload sizes. Each iteration does a fixed amount of simulated work, so
// its wall time is inverse throughput.

// steady_dissemination
constexpr int kSteadyEntities = 64;
constexpr int kSteadyStreams = 8;
constexpr double kSteadyTuplesPerS = 500.0;
constexpr int kSteadyQueries = 2000;
constexpr int kSteadyClients = 16;
constexpr double kSteadyTrafficS = 16.0;

// query_storm
constexpr int kStormEntities = 256;
constexpr int kStormStreams = 8;
constexpr int kStormTenants = 4;
/// No traffic runs; the rate only sets the queries' declared loads.
constexpr double kStormTuplesPerS = 50.0;
constexpr int kStormBaseQueries = 500;
constexpr int kStormQueries = 2500;
constexpr double kStormQueriesPerS = 200.0;  // all tenants together
constexpr double kStormLoadFactor = 4.0;

// churn_repartition
constexpr int kChurnEntities = 24;
constexpr int kChurnStreams = 8;
constexpr double kChurnTuplesPerS = 200.0;
constexpr int kChurnInitialQueries = 1200;
constexpr int kChurnRounds = 8;
constexpr double kChurnRoundTrafficS = 1.0;
constexpr int kChurnArrivalsPerRound = 125;
constexpr int kChurnWithdrawalsPerRound = 125;
constexpr int kChurnClients = 8;
constexpr double kChurnLossProbability = 0.005;
/// The crash window opens inside round kChurnCrashRound's traffic and
/// closes kChurnCrashRounds rounds later.
constexpr int kChurnCrashRound = 2;
constexpr int kChurnCrashRounds = 3;
constexpr double kChurnDrainS = 3.0;

/// The deployment is fixed: topology, client sites, the System's own RNG,
/// the interest geography (QueryGen hotspot centers) and the query
/// population drawn around it, and churn's query script. --seed varies the
/// rest of the inputs: stream data, query order, the storm's query streams
/// and churn's fault script.
constexpr uint64_t kDeploymentSeed = 2006;

/// Simulated seconds per RunUntil call when a workload runs traffic.
constexpr double kRunStepS = 0.1;

// ---------------------------------------------------------------------------
// Small helpers.

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// VmHWM of this process in MB (0 when /proc is unavailable).
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

/// The CPUs this process may run on (empty when that cannot be read).
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Moves this (single-threaded) process onto `cpu`; best effort.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Wall-clock spans around the benchmark's calls into the system, kept in
// memory until the run ends. A span has the layer (src/ module) that owns
// its work, a name, start/end in µs since the tracer's origin, and a parent.
// A derived span carries time that an in-program cumulative timer measured
// inside the enclosing call (InstallProfile, telemetry histograms); it is a
// child of that call and is drawn from the call's start.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    int parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
    bool derived = false;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  int Begin(const char* layer, const char* name) {
    if (!on_) return -1;
    Span s;
    s.layer = layer;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_us = NowUs();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[id].end_us = NowUs();
    stack_.pop_back();
  }

  void Derived(const char* layer, const char* name, double us) {
    if (!on_ || stack_.empty() || !(us > 0.0)) return;
    Span s;
    s.layer = layer;
    s.name = name;
    s.parent = stack_.back();
    s.start_us = spans_[s.parent].start_us;
    s.end_us = s.start_us + us;
    s.derived = true;
    spans_.push_back(std::move(s));
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span: its duration minus its children's durations.
  std::vector<double> SelfUs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_us - spans_[i].start_us;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_us - s.start_us;
    }
    return self;
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Span layers: the benchmark itself, the System facade, and the src/
/// modules whose in-program timers the derived spans carry.
constexpr const char* kLayers[] = {"bench",     "system",      "sim",
                                   "coordinator", "tenant",    "interest",
                                   "partition", "dissemination"};

/// Telemetry attached to a traced iteration.
struct Telemetry {
  Telemetry() : trace(TraceConfig()) { registry.UseSketches(); }

  static dsps::telemetry::TraceLog::Config TraceConfig() {
    dsps::telemetry::TraceLog::Config c;
    c.sample_every_n = 1;
    c.aggregate_stages = true;
    c.retain_spans = false;
    return c;
  }

  double HistSum(const char* name) {
    const dsps::telemetry::Sketch* s = registry.histogram(name)->sketch();
    return s == nullptr ? 0.0 : s->sum();
  }

  /// Sum of every counter series named `name`, across labels.
  double CounterSum(const dsps::telemetry::MetricsSnapshot& snap,
                    const std::string& name) const {
    double sum = 0.0;
    for (const auto& s : snap.samples) {
      if (s.name == name &&
          s.kind == dsps::telemetry::MetricSample::Kind::kCounter) {
        sum += s.value;
      }
    }
    return sum;
  }

  dsps::telemetry::MetricsRegistry registry;
  dsps::telemetry::TraceLog trace;
};

/// Cumulative in-program timers, read before and after each public call so
/// the call's span gets derived children for the layers it went through.
struct Probe {
  System::InstallProfile profile;
  double graph_delta_us = 0.0;
  double graph_build_us = 0.0;
  double route_lookup_us = 0.0;
};

/// One iteration's context: the system, the tracer, the optional telemetry,
/// and the wall-time accounting of its public calls.
struct Ctx {
  System* sys = nullptr;
  Tracer* tracer = nullptr;
  Telemetry* tel = nullptr;
  /// Who owns InstallProfile::route_us: the coordinator tree's descent, or
  /// the graph partitioner's affinity placement.
  const char* route_layer = "coordinator";
  /// Wall µs of every public call, in call order, and which were SubmitQuery.
  std::vector<double> call_us;
  std::vector<size_t> install_calls;
  double run_until_s = 0.0;
  double repartition_us = 0.0;
  double decision_ms = 0.0;

  Probe Read() const {
    Probe p;
    p.profile = sys->install_profile();
    if (tel != nullptr) {
      p.graph_delta_us = tel->HistSum("partition.incremental_delta_us");
      p.graph_build_us = tel->HistSum("partition.graph_build_us");
      p.route_lookup_us = tel->HistSum("dissem.route_lookup_us");
    }
    return p;
  }

  /// Emits the layers `before`..now spent inside the open span. Graph adds
  /// run inside InstallOn's admit+install interval, so they are taken out
  /// of the tenant share and counted once, under partition.
  void EmitDerived(const Probe& before) {
    Probe after = Read();
    const auto& a = after.profile;
    const auto& b = before.profile;
    tracer->Derived(route_layer, "route", a.route_us - b.route_us);
    tracer->Derived("tenant", "admit_install",
                    (a.install_us - b.install_us) - (a.graph_us - b.graph_us));
    tracer->Derived("interest", "publish", a.interest_us - b.interest_us);
    tracer->Derived("partition", "graph_delta",
                    after.graph_delta_us - before.graph_delta_us);
    tracer->Derived("partition", "graph_build",
                    after.graph_build_us - before.graph_build_us);
    tracer->Derived("dissemination", "route_lookup",
                    after.route_lookup_us - before.route_lookup_us);
  }

  /// Runs `fn` (one public call) inside a span; returns its wall µs.
  template <typename Fn>
  double Call(const char* layer, const char* name, Fn&& fn) {
    const bool probe = tracer->on() && sys != nullptr;
    Probe before;
    if (probe) before = Read();
    int id = tracer->Begin(layer, name);
    Clock::time_point start = Clock::now();
    fn();
    double us = SecondsSince(start) * 1e6;
    if (probe) EmitDerived(before);
    tracer->End(id);
    call_us.push_back(us);
    return us;
  }

  dsps::common::Status Submit(const Query& q) {
    dsps::common::Status st;
    Call("system", "submit", [&] { st = sys->SubmitQuery(q); });
    install_calls.push_back(call_us.size() - 1);
    return st;
  }

  dsps::common::Status Remove(dsps::common::QueryId id) {
    dsps::common::Status st;
    Call("system", "remove", [&] { st = sys->RemoveQuery(id); });
    return st;
  }

  void RunUntil(double t) {
    run_until_s += Call("sim", "run_until", [&] { sys->RunUntil(t); }) / 1e6;
  }

  /// RunUntil(t) in kRunStepS steps of simulated time. The simulation is
  /// the same as one call (nothing stops the simulator early); the steps
  /// only give the per-call bests (see BestTimes) short calls to time.
  void RunSteps(double t) {
    const double from = sys->now();
    const int n = std::max(1, static_cast<int>((t - from) / kRunStepS + 0.5));
    for (int k = 1; k < n; ++k) RunUntil(from + k * kRunStepS);
    RunUntil(t);
  }

  void GenerateTraffic(double duration_s) {
    Call("sim", "generate_traffic", [&] { sys->GenerateTraffic(duration_s); });
  }

  System::RepartitionReport Repartition(dsps::partition::Repartitioner* r) {
    dsps::common::Result<System::RepartitionReport> report =
        System::RepartitionReport{};
    repartition_us += Call("partition", "repartition", [&] {
      report = sys->RepartitionQueries(r);
      if (report.ok()) {
        tracer->Derived("partition", "decide",
                        report.value().decision_seconds * 1e6);
      }
    });
    if (!report.ok()) Die("repartition failed: " + report.status().ToString());
    decision_ms += report.value().decision_seconds * 1e3;
    return report.value();
  }
};

// ---------------------------------------------------------------------------
// Inputs, generated once per process from the seed.

std::vector<std::unique_ptr<dsps::workload::StreamGen>> MakeStreams(
    int n, double tuples_per_s, uint64_t seed,
    dsps::interest::StreamCatalog* catalog) {
  dsps::workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = tuples_per_s;
  // A flatter symbol skew than the generator's default, so no single
  // hotspot decides how much of a stream the standing queries match.
  tcfg.zipf_s = 0.5;
  dsps::common::Rng rng(seed ^ 0x5eedULL);
  return dsps::workload::MakeTickerStreams(n, tcfg, catalog, &rng);
}

/// The deployment's `n` queries, drawn by QueryGen around its fixed
/// hotspots, in an order shuffled by `seed` and numbered 1..n in that
/// order. The seed decides which queries are installed first, arrive later
/// or are withdrawn; the population itself, and with it how many query
/// pairs overlap, is the same for every seed, so the work per run is too.
std::vector<Query> DrawQueries(const dsps::workload::QueryGen::Config& qcfg,
                               const dsps::interest::StreamCatalog& catalog,
                               int n, uint64_t seed) {
  dsps::workload::QueryGen gen(qcfg, &catalog,
                               dsps::common::Rng(kDeploymentSeed));
  std::vector<Query> pool = gen.Batch(n);
  dsps::common::Rng pick(seed);
  for (int i = 0; i < n; ++i) {
    size_t j = i + pick.NextUint64(pool.size() - i);
    std::swap(pool[i], pool[j]);
    pool[i].id = i + 1;
  }
  return pool;
}

struct ChurnRound {
  std::vector<Query> arrivals;
  std::vector<dsps::common::QueryId> withdrawals;
};

struct Inputs {
  /// steady: the standing set; storm: the storm; churn: the initial batch.
  std::vector<Query> queries;
  /// storm: the standing population installed during set-up.
  std::vector<Query> base;
  /// storm: one arrival time per query, ascending.
  std::vector<double> arrival_times;
  std::vector<ChurnRound> rounds;         // churn script
  dsps::common::EntityId crash_entity = 0;  // churn fault script
  double crash_at = 0.0;
  double recover_at = 0.0;
};

Inputs MakeSteadyInputs(uint64_t seed) {
  dsps::interest::StreamCatalog catalog;
  MakeStreams(kSteadyStreams, kSteadyTuplesPerS, seed, &catalog);
  dsps::workload::QueryGen::Config qcfg;
  qcfg.join_prob = 0.05;
  qcfg.agg_prob = 0.35;
  qcfg.width_min_frac = 0.05;
  qcfg.width_max_frac = 0.15;
  qcfg.num_hotspots = 16;
  qcfg.hotspot_prob = 0.7;
  qcfg.window_s = 5.0;
  Inputs in;
  in.queries = DrawQueries(qcfg, catalog, kSteadyQueries, seed * 3 + 1);
  return in;
}

Inputs MakeStormInputs(uint64_t seed) {
  dsps::interest::StreamCatalog catalog;
  MakeStreams(kStormStreams, kStormTuplesPerS, seed, &catalog);
  std::vector<dsps::workload::QueryArrival> all;
  for (int t = 1; t <= kStormTenants; ++t) {
    dsps::workload::QueryGen::Config qcfg;
    qcfg.hotspot_prob = 0.0;  // random interests: little overlap to exploit
    qcfg.queries_per_s = kStormQueriesPerS / kStormTenants;
    qcfg.tenant = t;
    dsps::workload::QueryGen gen(qcfg, &catalog,
                                 dsps::common::Rng(seed * 7 + t));
    for (int i = 0; i < (kStormBaseQueries + kStormQueries) / kStormTenants;
         ++i) {
      all.push_back(gen.NextArrival());
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.arrival_time < b.arrival_time;
  });
  // The first kStormBaseQueries arrivals are the standing population the
  // storm lands on (bulk-loaded during set-up); the rest are the storm.
  Inputs in;
  for (size_t i = 0; i < all.size(); ++i) {
    all[i].query.id = static_cast<dsps::common::QueryId>(i + 1);
    if (i < static_cast<size_t>(kStormBaseQueries)) {
      in.base.push_back(std::move(all[i].query));
    } else {
      in.queries.push_back(std::move(all[i].query));
      in.arrival_times.push_back(all[i].arrival_time);
    }
  }
  return in;
}

Inputs MakeChurnInputs(uint64_t seed) {
  dsps::interest::StreamCatalog catalog;
  MakeStreams(kChurnStreams, kChurnTuplesPerS, seed, &catalog);
  dsps::workload::QueryGen::Config qcfg;
  qcfg.join_prob = 0.0;
  qcfg.agg_prob = 0.3;
  qcfg.num_hotspots = 12;
  qcfg.hotspot_prob = 0.9;
  qcfg.stream_zipf_s = 0.0;
  qcfg.width_min_frac = 0.03;
  qcfg.width_max_frac = 0.12;
  // The query script (initial set, arrivals, withdrawals) is part of the
  // deployment: the graph partitioner's placements amplify any difference in
  // it, which moved install_us_p50 by ±25% from seed to seed. The seed draws
  // the stream data, the crash and the link losses.
  std::vector<Query> drawn = DrawQueries(
      qcfg, catalog,
      kChurnInitialQueries + kChurnRounds * kChurnArrivalsPerRound,
      kDeploymentSeed * 5 + 2);
  Inputs in;
  in.queries.assign(drawn.begin(), drawn.begin() + kChurnInitialQueries);
  std::vector<dsps::common::QueryId> live;
  for (const Query& q : in.queries) live.push_back(q.id);
  dsps::common::Rng script(kDeploymentSeed * 11 + 3);
  auto next = drawn.begin() + kChurnInitialQueries;
  for (int r = 0; r < kChurnRounds; ++r) {
    ChurnRound round;
    for (int i = 0; i < kChurnArrivalsPerRound; ++i) {
      round.arrivals.push_back(*next++);
      live.push_back(round.arrivals.back().id);
    }
    for (int i = 0; i < kChurnWithdrawalsPerRound; ++i) {
      size_t k = script.NextUint64(live.size());
      round.withdrawals.push_back(live[k]);
      live[k] = live.back();
      live.pop_back();
    }
    in.rounds.push_back(std::move(round));
  }
  dsps::common::Rng fault(seed * 11 + 3);
  in.crash_entity = static_cast<dsps::common::EntityId>(
      fault.NextUint64(static_cast<uint64_t>(kChurnEntities)));
  in.crash_at = kChurnCrashRound * kChurnRoundTrafficS +
                fault.Uniform(0.1, 0.6) * kChurnRoundTrafficS;
  in.recover_at = (kChurnCrashRound + kChurnCrashRounds) * kChurnRoundTrafficS;
  return in;
}

// ---------------------------------------------------------------------------
// One iteration.

struct Iteration {
  double setup_s = 0.0;
  double run_s = 0.0;
  double install_p50_us = 0.0;
  double install_p99_us = 0.0;
  int64_t install_samples = 0;
  /// Every public call's wall µs; the first setup_calls are set-up.
  std::vector<double> call_us;
  size_t setup_calls = 0;
  std::vector<size_t> install_calls;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Simulated outputs: identical in every iteration of one seed.
  std::map<std::string, double> sim;
  std::map<std::string, double> layer;   // per-layer metrics (traced only)
  std::map<std::string, double> self_us;  // layer self times (traced only)
  std::vector<std::string> check_failures;
  std::vector<Tracer::Span> spans;
};

/// One workload: its deployment, its set-up (the initial population) and
/// its measured phase. It keeps the benchmark's own ledger of submissions,
/// which the checks compare with the System's.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual System::Config Config(uint64_t seed) const = 0;
  virtual int streams() const = 0;
  virtual double tuples_per_s() const = 0;
  virtual void Setup(Ctx* ctx) = 0;
  virtual void Measure(Ctx* ctx) = 0;
  /// Workload-specific simulated outputs and checks.
  virtual void Finish(Ctx*, Iteration*) {}

  void Submit(Ctx* ctx, const Query& q) {
    ++submissions;
    if (ctx->Submit(q).ok()) {
      ++expected_standing;
    } else {
      ++refused;
    }
  }

  /// Queries the benchmark believes are standing (placed or unplaced).
  int64_t expected_standing = 0;
  int64_t submissions = 0;
  int64_t refused = 0;
};

class SteadyWorkload : public Workload {
 public:
  explicit SteadyWorkload(const Inputs* in) : in_(in) {}
  System::Config Config(uint64_t) const override {
    System::Config cfg;
    cfg.seed = kDeploymentSeed;
    cfg.topology.num_entities = kSteadyEntities;
    cfg.topology.processors_per_entity = 2;
    cfg.topology.num_sources = kSteadyStreams;
    cfg.allocation = dsps::system::AllocationMode::kCoordinatorTree;
    cfg.num_clients = kSteadyClients;
    return cfg;
  }
  int streams() const override { return kSteadyStreams; }
  double tuples_per_s() const override { return kSteadyTuplesPerS; }
  void Setup(Ctx* ctx) override {
    for (const Query& q : in_->queries) Submit(ctx, q);
  }
  void Measure(Ctx* ctx) override {
    ctx->GenerateTraffic(kSteadyTrafficS);
    ctx->RunSteps(kSteadyTrafficS + 1.0);
  }
  void Finish(Ctx*, Iteration* it) override {
    if (it->sim["results"] <= 0) {
      it->check_failures.push_back("steady traffic produced no results");
    }
  }

 private:
  const Inputs* in_;
};

class StormWorkload : public Workload {
 public:
  explicit StormWorkload(const Inputs* in) : in_(in) {}
  System::Config Config(uint64_t) const override {
    System::Config cfg;
    cfg.seed = kDeploymentSeed;
    cfg.topology.num_entities = kStormEntities;
    cfg.topology.processors_per_entity = 1;
    cfg.topology.num_sources = kStormStreams;
    cfg.allocation = dsps::system::AllocationMode::kCoordinatorTree;
    for (int t = 1; t <= kStormTenants; ++t) {
      dsps::tenant::TenantSpec spec;
      spec.id = t;
      spec.weight = 1.0;
      cfg.tenants.push_back(spec);
    }
    cfg.admission.load_factor = kStormLoadFactor;
    return cfg;
  }
  int streams() const override { return kStormStreams; }
  double tuples_per_s() const override { return kStormTuplesPerS; }
  void Setup(Ctx* ctx) override {
    System::BatchSubmitResult r;
    ctx->Call("system", "submit_queries",
              [&] { r = ctx->sys->SubmitQueries(in_->base); });
    submissions += static_cast<int64_t>(in_->base.size());
    expected_standing += r.admitted;
    refused += r.rejected + r.failed;
  }
  void Measure(Ctx* ctx) override {
    for (size_t i = 0; i < in_->queries.size(); ++i) {
      ctx->RunUntil(in_->arrival_times[i]);
      Submit(ctx, in_->queries[i]);
    }
    // Let every bounded admission wait expire or land.
    ctx->RunUntil(ctx->sys->now() +
                  ctx->sys->admission()->config().max_queue_wait_s + 0.1);
  }
  void Finish(Ctx* ctx, Iteration* it) override {
    int64_t evicted = 0;
    int64_t degraded = 0;
    for (const auto& [tenant, c] : ctx->sys->admission()->all_counters()) {
      evicted += c.evicted;
      degraded += c.degraded;
    }
    // A queued submission returned OK; it stands only if it later landed.
    expected_standing -= evicted;
    expected_standing -=
        static_cast<int64_t>(ctx->sys->QueuedAdmissions().size());
    refused += evicted;
    it->sim["tenant_evicted"] = static_cast<double>(evicted);
    it->sim["tenant_degraded"] = static_cast<double>(degraded);
    dsps::common::Status st = ctx->sys->admission()->CheckConservation();
    if (!st.ok()) {
      it->check_failures.push_back("tenant conservation: " + st.ToString());
    }
  }

 private:
  const Inputs* in_;
};

class ChurnWorkload : public Workload {
 public:
  explicit ChurnWorkload(const Inputs* in) : in_(in) {}
  System::Config Config(uint64_t seed) const override {
    System::Config cfg;
    cfg.seed = kDeploymentSeed;
    cfg.topology.num_entities = kChurnEntities;
    cfg.topology.processors_per_entity = 2;
    cfg.topology.num_sources = kChurnStreams;
    cfg.allocation = dsps::system::AllocationMode::kGraphPartition;
    cfg.num_clients = kChurnClients;
    cfg.inject_faults = true;
    cfg.faults.seed = seed * 13 + 4;
    cfg.faults.loss_probability = kChurnLossProbability;
    cfg.dissemination.reliable = true;
    cfg.reliable_results = true;
    // Retries outlast crash detection, so results stranded on the crashed
    // gateway are cancelled at eviction instead of failing mid-window.
    cfg.result_max_retries = 8;
    return cfg;
  }
  int streams() const override { return kChurnStreams; }
  double tuples_per_s() const override { return kChurnTuplesPerS; }
  void Setup(Ctx* ctx) override {
    submissions += static_cast<int64_t>(in_->queries.size());
    dsps::common::Status st;
    ctx->Call("system", "submit_batch",
              [&] { st = ctx->sys->SubmitBatch(in_->queries); });
    if (!st.ok()) Die("churn initial batch failed: " + st.ToString());
    expected_standing += static_cast<int64_t>(in_->queries.size());
    const double end = kChurnRounds * kChurnRoundTrafficS + kChurnDrainS;
    ctx->Call("system", "enable_detection", [&] {
      ctx->sys->EnableFailureDetection(System::FailureDetectionConfig{}, end);
      ctx->sys->ScheduleCrash(in_->crash_entity, in_->crash_at,
                              in_->recover_at);
    });
  }
  void Measure(Ctx* ctx) override {
    dsps::partition::HybridRepartitioner hybrid;
    for (const ChurnRound& round : in_->rounds) {
      ctx->GenerateTraffic(kChurnRoundTrafficS);
      ctx->RunSteps(ctx->sys->now() + kChurnRoundTrafficS);
      for (const Query& q : round.arrivals) Submit(ctx, q);
      for (dsps::common::QueryId id : round.withdrawals) {
        if (!ctx->Remove(id).ok()) Die("withdrawal of a live query failed");
        --expected_standing;
      }
      last_ = ctx->Repartition(&hybrid);
      migrations_ += last_.migrations;
    }
    ctx->RunSteps(ctx->sys->now() + kChurnDrainS);
  }
  void Finish(Ctx* ctx, Iteration* it) override {
    it->sim["edge_cut_bps"] = last_.edge_cut;
    it->sim["migrations"] = static_cast<double>(migrations_);
    it->sim["imbalance"] = last_.imbalance;
    const System::FailureStats& fs = ctx->sys->failure_stats();
    it->sim["detections"] = fs.detections;
    it->sim["queries_rehomed"] = fs.queries_rehomed;
    if (fs.detections < 1) {
      it->check_failures.push_back("the crash window was never detected");
    }
    if (ctx->sys->num_alive() != ctx->sys->num_entities()) {
      it->check_failures.push_back("an entity is still evicted at the end");
    }
  }

 private:
  const Inputs* in_;
  System::RepartitionReport last_;
  int64_t migrations_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Inputs* in) {
  if (name == "steady_dissemination") {
    return std::make_unique<SteadyWorkload>(in);
  }
  if (name == "query_storm") return std::make_unique<StormWorkload>(in);
  if (name == "churn_repartition") return std::make_unique<ChurnWorkload>(in);
  return nullptr;
}

Inputs MakeInputs(const std::string& name, uint64_t seed) {
  if (name == "steady_dissemination") return MakeSteadyInputs(seed);
  if (name == "query_storm") return MakeStormInputs(seed);
  return MakeChurnInputs(seed);
}

/// Per-layer metrics of a traced iteration, read after the measured phase.
void ReadLayerMetrics(System* sys, Telemetry* tel, const Ctx& ctx,
                      uint64_t events, double max_utilization, Iteration* it) {
  auto& m = it->layer;
  const dsps::telemetry::MetricsSnapshot snap = tel->registry.Snapshot();
  m["sim.events"] = static_cast<double>(events);
  m["sim.us_per_event"] =
      events > 0 ? ctx.run_until_s * 1e6 / static_cast<double>(events) : 0.0;
  m["sim.pending_events_end"] =
      static_cast<double>(sys->network()->simulator()->pending_events());
  m["net.messages"] = static_cast<double>(sys->network()->total_messages());
  m["net.mb"] = static_cast<double>(sys->network()->total_bytes()) / 1e6;
  m["net.dropped"] = static_cast<double>(sys->network()->dropped_messages());

  const dsps::dissemination::Disseminator* d = sys->disseminator();
  m["dissem.delivered"] = static_cast<double>(d->delivered_count());
  m["dissem.forwards"] = static_cast<double>(d->forward_count());
  m["dissem.retries"] = static_cast<double>(d->retries_count());
  const double forwarded = tel->CounterSum(snap, "dissemination.forwarded");
  const double filtered = tel->CounterSum(snap, "dissemination.filtered");
  m["dissem.filtered_share"] =
      forwarded + filtered > 0 ? filtered / (forwarded + filtered) : 0.0;
  {
    const dsps::telemetry::Sketch* s =
        tel->registry.histogram("dissem.route_lookup_us")->sketch();
    m["dissem.route_lookup_us"] = s != nullptr ? s->mean() : 0.0;
  }

  const dsps::interest::IndexStats idx = sys->IndexStatsSnapshot();
  m["index.boxes"] = static_cast<double>(idx.boxes);
  m["index.mem_mb"] = static_cast<double>(idx.mem_bytes) / 1e6;
  m["index.lookups"] = static_cast<double>(idx.lookups);
  m["index.fallback_share"] = idx.FallbackRate();

  const System::InstallProfile& p = sys->install_profile();
  const double per_q = p.installs > 0 ? 1.0 / static_cast<double>(p.installs)
                                      : 0.0;
  m["install.installs"] = static_cast<double>(p.installs);
  m["install.route_us_per_query"] = p.route_us * per_q;
  m["install.admit_us_per_query"] = (p.install_us - p.graph_us) * per_q;
  m["install.interest_us_per_query"] = p.interest_us * per_q;

  m["coord.messages"] =
      static_cast<double>(sys->coordinator_tree()->total_messages());
  m["coord.height"] = static_cast<double>(sys->coordinator_tree()->height());

  m["tenant.queued"] = tel->CounterSum(snap, "tenant.queued");
  m["tenant.rejected"] = tel->CounterSum(snap, "tenant.rejected");
  m["tenant.degraded"] = tel->CounterSum(snap, "tenant.degraded");

  m["entity.tuples_processed"] = tel->CounterSum(snap, "processor.tuples");
  int64_t results = 0;
  for (int e = 0; e < sys->num_entities(); ++e) {
    results += sys->entity_at(e)->results_count();
  }
  m["entity.results"] = static_cast<double>(results);
  m["entity.max_utilization"] = max_utilization;
  {
    dsps::telemetry::Sketch merged;
    for (const auto& s : snap.samples) {
      if (s.name != "processor.queue_wait_s") continue;
      const dsps::telemetry::Sketch* sk =
          tel->registry.histogram(s.name, s.labels)->sketch();
      if (sk != nullptr) merged.Merge(*sk);
    }
    m["processor.queue_wait_p99_ms"] = merged.p99() * 1e3;
  }

  m["partition.repartition_us"] = ctx.repartition_us;
  m["partition.decision_ms"] = ctx.decision_ms;
  m["partition.graph_build_us"] = tel->HistSum("partition.graph_build_us");
  m["partition.incremental_delta_us"] =
      tel->HistSum("partition.incremental_delta_us");
  m["partition.rounds"] = tel->CounterSum(snap, "partition.repartitions");
  m["partition.migrations"] = tel->CounterSum(snap, "system.query_migrations");

  m["failover.detections"] = sys->failure_stats().detections;
  m["failover.queries_rehomed"] = sys->failure_stats().queries_rehomed;

  for (const char* stage :
       {"dissemination_hop", "queue_wait", "execute", "result_deliver"}) {
    auto sit =
        tel->trace.stage_sketches().find(dsps::telemetry::StageFromName(stage));
    m[std::string("trace.stage_p99_ms.") + stage] =
        sit != tel->trace.stage_sketches().end() ? sit->second.p99() * 1e3
                                                 : 0.0;
  }
}

/// Builds a System, runs set-up and the measured phase, and checks outputs.
Iteration RunIteration(const std::string& name, const Inputs& in,
                       uint64_t seed, bool traced) {
  Iteration it;
  std::unique_ptr<Workload> w = MakeWorkload(name, &in);
  std::unique_ptr<Telemetry> tel = traced ? std::make_unique<Telemetry>()
                                          : nullptr;
  Tracer tracer(traced);
  Ctx ctx;
  ctx.tracer = &tracer;
  ctx.tel = tel.get();

  // Stream generators hold RNG state, so each iteration gets fresh ones
  // (identical: they are seeded from the same seed).
  dsps::interest::StreamCatalog scratch;
  auto streams = MakeStreams(w->streams(), w->tuples_per_s(), seed, &scratch);
  System::Config cfg = w->Config(seed);
  if (traced) {
    cfg.metrics = &tel->registry;
    cfg.trace = &tel->trace;
  }
  if (cfg.allocation == dsps::system::AllocationMode::kGraphPartition) {
    ctx.route_layer = "partition";
  }

  const int root = tracer.Begin("bench", "iteration");
  Clock::time_point t0 = Clock::now();
  int phase = tracer.Begin("bench", "setup");
  std::unique_ptr<System> sys;
  ctx.Call("system", "construct", [&] { sys = std::make_unique<System>(cfg); });
  ctx.sys = sys.get();
  ctx.Call("system", "add_streams",
           [&] { sys->AddStreams(std::move(streams)); });
  w->Setup(&ctx);
  tracer.End(phase);
  it.setup_s = SecondsSince(t0);
  it.setup_calls = ctx.call_us.size();

  const uint64_t events_before = sys->network()->simulator()->events_executed();
  Clock::time_point t1 = Clock::now();
  phase = tracer.Begin("bench", "measure");
  w->Measure(&ctx);
  dsps::system::SystemMetrics m;
  ctx.Call("system", "collect", [&] { m = sys->Collect(); });
  tracer.End(phase);
  it.run_s = SecondsSince(t1);
  tracer.End(root);
  const uint64_t events =
      sys->network()->simulator()->events_executed() - events_before;

  {
    dsps::common::Histogram h;
    for (size_t i : ctx.install_calls) h.Add(ctx.call_us[i]);
    it.install_samples = static_cast<int64_t>(h.count());
    it.install_p50_us = h.p50();
    it.install_p99_us = h.p99();
  }
  it.call_us = std::move(ctx.call_us);
  it.install_calls = std::move(ctx.install_calls);

  auto& sim = it.sim;
  sim["sim_events"] = static_cast<double>(events);
  sim["results"] = static_cast<double>(m.results);
  sim["wan_mb"] = static_cast<double>(m.wan_bytes) / 1e6;
  sim["result_latency_p50_ms"] = m.latency_quantile(0.50) * 1e3;
  sim["result_latency_p99_ms"] = m.latency_quantile(0.99) * 1e3;
  sim["pr_p99"] = m.pr_quantile(0.99);
  sim["delivered_tuples"] = static_cast<double>(m.delivered_tuples);
  sim["client_results"] = static_cast<double>(m.client_results);
  sim["dropped_messages"] = static_cast<double>(m.dropped_messages);
  sim["unplaced"] = static_cast<double>(m.unplaced_queries);
  sim["result_delivery_failures"] =
      static_cast<double>(sys->result_delivery_failures());
  w->Finish(&ctx, &it);

  // Correctness checks, after the timed phase.
  dsps::system::Auditor* auditor = sys->EnableAudit(1.0, sys->now(), false);
  const int violations = auditor->RunOnce();
  if (violations != 0) {
    std::string detail;
    for (const auto& c : auditor->checks()) {
      if (c.violations > 0) detail += " " + c.name + ": " + c.last_detail;
    }
    it.check_failures.push_back("auditor violations:" + detail);
  }
  int64_t placed = 0;
  int64_t entity_results = 0;
  for (int e = 0; e < sys->num_entities(); ++e) {
    placed += static_cast<int64_t>(sys->entity_at(e)->query_count());
    entity_results += sys->entity_at(e)->results_count();
  }
  const int64_t standing = placed + sys->unplaced_count();
  sim["standing"] = static_cast<double>(standing);
  if (standing != w->expected_standing) {
    it.check_failures.push_back(
        "accepted " + std::to_string(w->expected_standing) + " != placed " +
        std::to_string(placed) + " + unplaced " +
        std::to_string(sys->unplaced_count()));
  }
  if (entity_results != m.results) {
    it.check_failures.push_back("Collect().results " +
                                std::to_string(m.results) +
                                " != sum of entity results " +
                                std::to_string(entity_results));
  }
  sim["submissions"] = static_cast<double>(w->submissions);
  sim["refused"] = static_cast<double>(w->refused);

  it.attempted = w->submissions + m.results;
  it.failed = w->refused + m.unplaced_queries +
              sys->result_delivery_failures();

  if (traced) {
    ReadLayerMetrics(sys.get(), tel.get(), ctx, events,
                     m.max_processor_utilization, &it);
    // Every layer is reported, idle ones as 0, so all workloads print the
    // same metric set.
    for (const char* layer : kLayers) it.self_us[layer] = 0.0;
    const std::vector<double> self = tracer.SelfUs();
    for (size_t i = 0; i < tracer.spans().size(); ++i) {
      it.self_us[tracer.spans()[i].layer] += self[i];
    }
    const Tracer::Span& root_span = tracer.spans()[root];
    const double total_us = root_span.end_us - root_span.start_us;
    for (const auto& [layer, us] : it.self_us) {
      it.layer["layer_share." + layer] = us / total_us;
    }
    it.layer["system.submit_us"] = 0.0;
    it.layer["system.remove_us"] = 0.0;
    it.layer["system.collect_us"] = 0.0;
    for (const Tracer::Span& s : tracer.spans()) {
      if (s.derived) continue;
      const double us = s.end_us - s.start_us;
      if (s.name == "submit") it.layer["system.submit_us"] += us;
      if (s.name == "remove") it.layer["system.remove_us"] += us;
      if (s.name == "collect") it.layer["system.collect_us"] += us;
    }
    it.layer["system.run_until_s"] = ctx.run_until_s;
    it.spans = tracer.spans();
  }
  return it;
}

// ---------------------------------------------------------------------------
// Output.

std::string JsonString(const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

struct JsonObject {
  std::string body;
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, JsonString(v));
  }
  void Raw(const std::string& key, const std::string& v) {
    if (!body.empty()) body += ", ";
    body += "\"" + key + "\": " + v;
  }
  std::string Done() const { return "{" + body + "}"; }
};

/// Unit of a per-layer metric or simulated output, read off its name.
/// Simulated-time latencies are "sim_ms"; every other time is wall time.
const char* UnitOf(const std::string& name) {
  auto has = [&](const char* part) {
    return name.find(part) != std::string::npos;
  };
  auto ends = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (has("trace.stage_p99_ms") || has("queue_wait_p99_ms") ||
      has("result_latency")) {
    return "sim_ms";
  }
  if (ends("_ms")) return "ms";
  if (has("_us") || has("us_per_")) return "us";
  if (ends("_s")) return "s";
  if (ends("mb")) return "MB";
  if (has("share") || has("utilization")) return "share";
  if (has("overhead")) return "x";
  if (ends("_bps")) return "B/s";
  if (has("pr_p99") || has("imbalance")) return "ratio";
  return "count";
}

std::string MetricJson(double value, const char* unit) {
  JsonObject o;
  o.Num("value", value);
  o.Str("unit", unit);
  return o.Done();
}

void WriteSpans(const std::string& path, const std::vector<Tracer::Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"layer\": \"%s\", "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"derived\": %s}\n",
                 i, s.parent, s.layer.c_str(), s.name.c_str(), s.start_us,
                 s.end_us, s.derived ? "true" : "false");
  }
  std::fclose(f);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--spans") {
      o.spans_path = v;
    } else {
      Die("unknown flag " + k);
    }
  }
  if (o.workload != "steady_dissemination" && o.workload != "query_storm" &&
      o.workload != "churn_repartition") {
    Die("unknown --workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0)) Die("--seconds must be positive");
  return o;
}

/// End-to-end wall metrics from each public call's fastest time.
///
/// Every iteration of one seed makes the same public calls in the same
/// order, each doing the same work, so a call's fastest wall time across
/// iterations is its cost with the least interference from the rest of the
/// host. A shared host runs an iteration up to 2x slower in phases from
/// under a second to a minute long; a sum of per-call bests needs a quiet
/// moment for each call, not a whole quiet iteration. Work that repeats in
/// every iteration (a rebuild, a growing buffer) is in every sample, so it
/// is in the best one too.
struct BestTimes {
  double setup_s = 0.0;
  double run_s = 0.0;
  double install_p50_us = 0.0;
  double install_p99_us = 0.0;
};

/// False when the iterations did not make the same calls.
bool ComputeBestTimes(const std::vector<Iteration>& its, BestTimes* out) {
  const Iteration& first = its.front();
  std::vector<double> best = first.call_us;
  for (const Iteration& it : its) {
    if (it.call_us.size() != best.size() ||
        it.setup_calls != first.setup_calls ||
        it.install_calls != first.install_calls) {
      return false;
    }
    for (size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], it.call_us[i]);
    }
  }
  double setup_us = 0.0;
  double run_us = 0.0;
  for (size_t i = 0; i < best.size(); ++i) {
    (i < first.setup_calls ? setup_us : run_us) += best[i];
  }
  dsps::common::Histogram h;
  for (size_t i : first.install_calls) h.Add(best[i]);
  out->setup_s = setup_us / 1e6;
  out->run_s = run_us / 1e6;
  out->install_p50_us = h.p50();
  out->install_p99_us = h.p99();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const Inputs inputs = MakeInputs(opt.workload, opt.seed);

  // Untraced iterations, or untraced/traced pairs, until the time is spent.
  // Untraced iterations (with their traced partners) take the allowed CPUs
  // in turn: on a shared host each CPU has its own busy neighbours, so a
  // call's best time is drawn from more places.
  constexpr size_t kMinEach = 3;
  const std::vector<int> cpus = AllowedCpus();
  std::vector<Iteration> plain;
  std::vector<Iteration> traced;
  const Clock::time_point start = Clock::now();
  while (plain.size() < kMinEach || SecondsSince(start) < opt.seconds) {
    if (!cpus.empty()) PinTo(cpus[plain.size() % cpus.size()]);
    plain.push_back(RunIteration(opt.workload, inputs, opt.seed, false));
    if (opt.trace) {
      traced.push_back(RunIteration(opt.workload, inputs, opt.seed, true));
    }
  }
  const double peak_rss_mb = PeakRssMb();

  // Checks: every iteration's own checks, and determinism across them.
  std::vector<std::string> failures;
  const Iteration& first = plain.front();
  auto check = [&](const Iteration& it, const char* kind, size_t i) {
    const std::string where =
        std::string(kind) + " iteration " + std::to_string(i) + ": ";
    for (const std::string& f : it.check_failures) failures.push_back(where + f);
    for (const auto& [k, v] : it.sim) {
      auto f = first.sim.find(k);
      if (f == first.sim.end() || f->second != v) {
        failures.push_back(where + "simulated output " + k +
                           " differs from the first iteration");
      }
    }
  };
  for (size_t i = 0; i < plain.size(); ++i) check(plain[i], "untraced", i);
  for (size_t i = 0; i < traced.size(); ++i) check(traced[i], "traced", i);

  // End-to-end: per-call bests over untraced iterations.
  BestTimes best;
  if (!ComputeBestTimes(plain, &best)) {
    failures.push_back("untraced iterations made different public calls");
  }
  const double attempted = static_cast<double>(first.attempted);
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  const Metric e2e_metrics[] = {
      {"setup_s", best.setup_s, "s"},
      {"run_s", best.run_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"install_us_p50", best.install_p50_us, "us"},
      {"install_us_p99", best.install_p99_us, "us"},
      {"install_samples", static_cast<double>(first.install_samples), "count"},
      {"failed_share", attempted > 0 ? first.failed / attempted : 0.0, "share"},
  };
  std::printf("perfbench %s seed=%llu: %zu untraced + %zu traced iterations\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              plain.size(), traced.size());
  JsonObject e2e;
  std::printf("end-to-end (each call's best over untraced iterations):\n");
  for (const Metric& m : e2e_metrics) {
    e2e.Raw(m.name, MetricJson(m.value, m.unit));
    std::printf("  %-32s %14.6g %s\n", m.name, m.value, m.unit);
  }
  JsonObject sim;
  std::printf("simulated outputs (identical in every iteration):\n");
  for (const auto& [k, v] : first.sim) {
    sim.Num(k, v);
    std::printf("  %-32s %14.6g %s\n", k.c_str(), v, UnitOf(k));
  }

  // Per-layer: medians over traced iterations.
  JsonObject layer;
  JsonObject layers;
  if (opt.trace) {
    std::map<std::string, std::vector<double>> values;
    std::map<std::string, std::vector<double>> self;
    for (const Iteration& it : traced) {
      for (const auto& [k, v] : it.layer) values[k].push_back(v);
      for (const auto& [k, v] : it.self_us) self[k].push_back(v);
    }
    BestTimes traced_best;
    if (!ComputeBestTimes(traced, &traced_best)) {
      failures.push_back("traced iterations made different public calls");
    }
    values["telemetry.overhead"] = {traced_best.run_s / best.run_s};
    std::printf("per-layer (median of traced iterations):\n");
    for (const auto& [k, v] : values) {
      layer.Num(k, Median(v));
      std::printf("  %-36s %14.6g %s\n", k.c_str(), Median(v), UnitOf(k));
    }
    std::printf("layer self time, ms (median of traced iterations):\n");
    for (const auto& [k, v] : self) {
      layers.Num(k, Median(v));
      std::printf("  %-32s %14.3f\n", k.c_str(), Median(v) / 1e3);
    }
    if (!opt.spans_path.empty()) WriteSpans(opt.spans_path, traced.back().spans);
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::string list = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    list += (i > 0 ? ", " : "") + JsonString(failures[i]);
  }
  list += "]";

  JsonObject out;
  out.Raw("correct", failures.empty() ? "true" : "false");
  out.Num("attempted", attempted);
  out.Num("failed", static_cast<double>(first.failed));
  out.Num("iterations_untraced", static_cast<double>(plain.size()));
  out.Num("iterations_traced", static_cast<double>(traced.size()));
  {
    // Every untraced iteration's wall metrics, in run order.
    JsonObject series;
    auto list_of = [&](double Iteration::*f) {
      std::string s = "[";
      for (size_t i = 0; i < plain.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.6g", i > 0 ? ", " : "",
                      plain[i].*f);
        s += buf;
      }
      return s + "]";
    };
    series.Raw("setup_s", list_of(&Iteration::setup_s));
    series.Raw("run_s", list_of(&Iteration::run_s));
    series.Raw("install_us_p50", list_of(&Iteration::install_p50_us));
    series.Raw("install_us_p99", list_of(&Iteration::install_p99_us));
    out.Raw("untraced_iterations", series.Done());
  }
  out.Raw("end_to_end", e2e.Done());
  out.Raw("per_layer", layer.Done());
  out.Raw("layer_self_us", layers.Done());
  out.Raw("sim", sim.Done());
  out.Raw("check_failures", list);
  std::printf("%s\n", out.Done().c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}
