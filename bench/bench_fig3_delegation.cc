// Figure 3 ablation: stream delegation vs a single receiving processor.
// An upstream entity ships many streams into this entity over
// bandwidth-limited links. With delegation each stream enters at its own
// delegate processor (parallel ingress links); with the single-receiver
// baseline every stream funnels through processor 0's ingress link, which
// saturates — "relying on a single processor to receive all the streams is
// not scalable".

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "engine/operators.h"
#include "entity/entity.h"
#include "placement/placement.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "telemetry/bench_report.h"
#include "workload/stream_gen.h"

namespace {

using dsps::common::Table;

struct DelegationResult {
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double max_ingress_util = 0.0;
  int64_t max_ingress_bytes = 0;
  int64_t results = 0;
};

dsps::engine::Query WideQuery(dsps::common::QueryId id,
                              dsps::common::StreamId stream) {
  dsps::engine::Query q;
  q.id = id;
  auto plan = std::make_shared<dsps::engine::QueryPlan>();
  dsps::interest::Box box{{-1e9, 1e9}, {-1e9, 1e9}, {-1e9, 1e9}};
  auto f = plan->AddOperator(std::make_unique<dsps::engine::FilterOp>(
      std::vector<int>{0, 1, 2}, box));
  if (!plan->BindStream(stream, f, 0).ok()) std::abort();
  q.plan = plan;
  q.interest.Add(stream, box);
  return q;
}

DelegationResult Run(int processors, int streams, bool single_receiver,
                     double duration, double ingress_bandwidth_bps) {
  dsps::sim::Simulator sim;
  dsps::sim::Network net(&sim);
  auto upstream = net.AddNode({100, 0});
  std::vector<dsps::common::SimNodeId> nodes;
  for (int p = 0; p < processors; ++p) {
    nodes.push_back(net.AddNode({0.01 * p, 0}));
  }
  // Upstream->processor links have the given (tight) bandwidth; the LAN
  // between processors stays fast.
  for (auto node : nodes) {
    net.SetLink(upstream, node,
                dsps::sim::LinkParams{0.002, ingress_bandwidth_bps});
  }
  dsps::placement::PrAwarePlacement policy;
  dsps::entity::Entity::Config cfg;
  cfg.distribution_limit = 1;
  cfg.single_receiver = single_receiver;
  dsps::entity::Entity ent(0, &net, nodes,
                           [] {
                             return std::unique_ptr<dsps::engine::ExecutionEngine>(
                                 new dsps::engine::BasicEngine());
                           },
                           &policy, cfg);
  ent.InstallHandlers();
  dsps::common::Histogram latency;
  ent.SetResultHandler(
      [&latency](const dsps::entity::Entity::ResultRecord& rec,
                 const dsps::engine::Tuple&) { latency.Add(rec.latency); });
  for (int s = 0; s < streams; ++s) {
    if (!ent.InstallQuery(WideQuery(s + 1, s), 100.0).ok()) std::abort();
  }

  // The upstream node ships each stream straight to the stream's receiving
  // processor (the delegate, or processor 0 under single-receiver).
  dsps::common::Rng rng(9);
  dsps::workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = 120.0;
  dsps::interest::StreamCatalog scratch;
  auto gens = dsps::workload::MakeTickerStreams(streams, tcfg, &scratch, &rng);
  std::function<void(int, double)> schedule = [&](int s, double end) {
    double t = sim.now() + rng.Exponential(tcfg.tuples_per_s);
    if (t > end) return;
    sim.ScheduleAt(t, [&, s, end]() {
      dsps::engine::Tuple tuple = gens[s]->Next(sim.now());
      dsps::entity::StreamTupleEnvelope env;
      env.tuple = std::make_shared<const dsps::engine::Tuple>(tuple);
      dsps::sim::Message msg;
      msg.from = upstream;
      msg.to = ent.processor(ent.DelegateFor(s))->node();
      msg.type = dsps::entity::kMsgStreamTuple;
      msg.size_bytes = tuple.SizeBytes();
      msg.payload = std::move(env);
      if (!net.Send(std::move(msg)).ok()) std::abort();
      schedule(s, end);
    });
  };
  for (int s = 0; s < streams; ++s) schedule(s, duration);
  sim.RunUntil(duration + 5.0);

  DelegationResult r;
  r.p50_latency = latency.p50();
  r.p99_latency = latency.p99();
  r.results = ent.results_count();
  for (auto node : nodes) {
    int64_t bytes = net.link_stats(upstream, node).bytes;
    r.max_ingress_bytes = std::max(r.max_ingress_bytes, bytes);
  }
  r.max_ingress_util = static_cast<double>(r.max_ingress_bytes) /
                       (ingress_bandwidth_bps * duration);
  return r;
}

void BM_Delegation(benchmark::State& state) {
  bool single = state.range(0) != 0;
  for (auto _ : state) {
    DelegationResult r = Run(8, 16, single, 0.5, 2e5);
    benchmark::DoNotOptimize(r.results);
  }
  state.SetLabel(single ? "single-receiver" : "delegation");
}
BENCHMARK(BM_Delegation)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void PrintFigure3() {
  // Ingress links carry ~5.3 KB/s per stream; 200 KB/s links saturate a
  // single receiver around 38 streams.
  const double bandwidth = 2e5;
  dsps::telemetry::BenchReport report("fig3_delegation");
  Table table({"procs", "streams", "scheme", "p50 lat ms", "p99 lat ms",
               "max ingress util", "max ingress KB", "results"});
  for (int procs : {8, 16}) {
    for (int streams : {8, 32, 64}) {
      for (bool single : {false, true}) {
        DelegationResult r = Run(procs, streams, single, 3.0, bandwidth);
        table.AddRow({Table::Int(procs), Table::Int(streams),
                      single ? "single-receiver" : "delegation",
                      Table::Num(r.p50_latency * 1e3, 2),
                      Table::Num(r.p99_latency * 1e3, 2),
                      Table::Num(r.max_ingress_util, 3),
                      Table::Num(r.max_ingress_bytes / 1e3, 1),
                      Table::Int(r.results)});
        dsps::telemetry::Labels row = dsps::telemetry::MakeLabels(
            {{"procs", std::to_string(procs)},
             {"streams", std::to_string(streams)},
             {"scheme", single ? "single-receiver" : "delegation"}});
        report.SetHeadline("latency_p99_ms", r.p99_latency * 1e3, row);
        report.SetHeadline("max_ingress_util", r.max_ingress_util, row);
        report.SetHeadline("results", r.results, row);
      }
    }
  }
  report.WriteFileOrDie();
  table.Print(
      "Figure 3 (measured): stream delegation vs single receiver — the "
      "single ingress link saturates as streams grow; delegation "
      "parallelizes ingress");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintFigure3();
  return 0;
}
