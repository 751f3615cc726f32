#include "baselines/regimes.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "common/stats.h"
#include "dissemination/disseminator.h"
#include "entity/entity.h"
#include "placement/placement.h"
#include "sim/topology.h"
#include "workload/stream_gen.h"

namespace dsps::baselines {

const char* RegimeName(Regime regime) {
  switch (regime) {
    case Regime::kIsolatedDirect:
      return "isolated+direct";
    case Regime::kQueryLevelDirect:
      return "query-level+direct";
    case Regime::kQueryLevelTree:
      return "query-level+tree";
    case Regime::kOperatorLevelFused:
      return "operator-level+fused";
  }
  return "?";
}

namespace {

/// Regimes 1-3 differ only in System configuration.
RegimeResult RunSystemRegime(Regime regime, const RegimeWorkload& wl) {
  system::System::Config cfg;
  cfg.topology.num_entities = wl.num_entities;
  cfg.topology.processors_per_entity = wl.processors_per_entity;
  cfg.topology.num_sources = wl.num_streams;
  cfg.seed = wl.seed;
  switch (regime) {
    case Regime::kIsolatedDirect:
      cfg.allocation = system::AllocationMode::kIsolatedZipf;
      cfg.dissemination.tree.policy = dissemination::TreePolicy::kSourceDirect;
      break;
    case Regime::kQueryLevelDirect:
      cfg.allocation = system::AllocationMode::kCoordinatorTree;
      cfg.dissemination.tree.policy = dissemination::TreePolicy::kSourceDirect;
      break;
    case Regime::kQueryLevelTree:
      cfg.allocation = system::AllocationMode::kCoordinatorTree;
      cfg.dissemination.tree.policy =
          dissemination::TreePolicy::kClosestParent;
      break;
    default:
      DSPS_CHECK(false);
  }
  system::System sys(cfg);

  common::Rng rng(wl.seed);
  interest::StreamCatalog scratch_catalog;
  auto gens = workload::MakeTickerStreams(wl.num_streams, wl.ticker_config,
                                          &scratch_catalog, &rng);
  sys.AddStreams(std::move(gens));

  workload::QueryGen qgen(wl.query_config, &sys.catalog(),
                          common::Rng(wl.seed + 17));
  auto queries = qgen.Batch(wl.num_queries);
  for (const engine::Query& q : queries) {
    common::Status s = sys.SubmitQuery(q);
    DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  }
  sys.GenerateTraffic(wl.duration_s);
  sys.RunUntil(wl.duration_s + 1.0);

  system::SystemMetrics m = sys.Collect();
  RegimeResult r;
  r.regime = regime;
  r.wan_bytes = m.wan_bytes;
  r.source_egress_bytes = m.source_egress_bytes;
  r.max_source_fanout = m.max_source_fanout;
  r.load_imbalance = m.entity_load_imbalance;
  r.latency_p50 = m.latency.p50();
  r.latency_p99 = m.latency.p99();
  r.results = m.results;
  return r;
}

/// Regime 4: every processor of every site fused into one tightly coupled
/// cluster (homogeneous engines required); operators land anywhere, LAN or
/// not. Built from components directly because it deliberately violates
/// the two-layer structure.
RegimeResult RunFusedRegime(const RegimeWorkload& wl) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  sim::TopologyConfig topo_cfg;
  topo_cfg.num_entities = wl.num_entities;
  topo_cfg.processors_per_entity = wl.processors_per_entity;
  topo_cfg.num_sources = wl.num_streams;
  common::Rng rng(wl.seed);
  common::Rng topo_rng = rng.Fork(1);
  sim::Topology topo = sim::BuildTopology(&network, topo_cfg, &topo_rng);

  // One mega-entity spanning every processor node of every site.
  std::vector<common::SimNodeId> all_nodes;
  std::map<common::SimNodeId, int> site_of;
  for (const sim::EntitySite& site : topo.entities) {
    for (common::SimNodeId n : site.processors) {
      all_nodes.push_back(n);
      site_of[n] = site.entity;
    }
  }
  placement::LoadOnlyPlacement policy;  // pure balancing, Flux-style
  entity::Entity::Config ecfg;
  ecfg.distribution_limit = static_cast<int>(all_nodes.size());
  entity::Entity fused(0, &network, all_nodes,
                       [] {
                         return std::unique_ptr<engine::ExecutionEngine>(
                             new engine::BasicEngine());
                       },
                       &policy, ecfg);

  interest::StreamCatalog catalog;
  auto gens =
      workload::MakeTickerStreams(wl.num_streams, wl.ticker_config, &catalog,
                                  &rng);

  dissemination::Disseminator::Config dcfg;
  dcfg.tree.policy = dissemination::TreePolicy::kSourceDirect;
  dissemination::Disseminator dissem(&network, dcfg);
  for (const sim::SourceSite& src : topo.sources) {
    DSPS_CHECK(dissem.AddSource(src.stream, src.node).ok());
  }
  DSPS_CHECK(dissem.AddEntity(0, fused.gateway_node()).ok());
  dissem.SetDeliveryHandler(
      [&fused](common::EntityId, const dissemination::TupleEnvelope& env) {
        fused.OnStreamTuple(env.tuple, env.point);
      });
  for (common::SimNodeId node : all_nodes) {
    network.SetHandler(node, [&fused, &dissem](const sim::Message& msg) {
      if (fused.HandleMessage(msg)) return;
      dissem.HandleMessage(msg);
    });
  }

  common::Histogram latency;
  fused.SetResultHandler(
      [&latency](const entity::Entity::ResultRecord& rec,
                 const engine::Tuple&) { latency.Add(rec.latency); });

  workload::QueryGen qgen(wl.query_config, &catalog, common::Rng(wl.seed + 17));
  auto queries = qgen.Batch(wl.num_queries);
  interest::InterestSet all_interest;
  for (const engine::Query& q : queries) {
    double tps = 1.0;
    for (common::StreamId s : q.interest.streams()) {
      const interest::StreamStats& stats = catalog.stats(s);
      tps += stats.tuples_per_s *
             interest::CoverageFraction(q.interest, s, stats.domain);
    }
    DSPS_CHECK(fused.InstallQuery(q, tps).ok());
    all_interest.MergeFrom(q.interest);
  }
  all_interest.Simplify();
  for (common::StreamId s : all_interest.streams()) {
    DSPS_CHECK(
        dissem.SetEntityInterest(0, s, *all_interest.boxes_for(s)).ok());
  }

  // Traffic.
  struct EmitState {
    std::vector<std::unique_ptr<workload::StreamGen>> gens;
  };
  auto state = std::make_shared<EmitState>();
  state->gens = std::move(gens);
  std::function<void(size_t, double)> schedule = [&](size_t i, double end) {
    double rate = catalog.stats(state->gens[i]->stream()).tuples_per_s;
    double t = simulator.now() + rng.Exponential(rate);
    if (t > end) return;
    simulator.ScheduleAt(t, [&, i, end]() {
      engine::Tuple tuple = state->gens[i]->Next(simulator.now());
      DSPS_CHECK(dissem.Publish(tuple).ok());
      schedule(i, end);
    });
  };
  for (size_t i = 0; i < state->gens.size(); ++i) {
    schedule(i, wl.duration_s);
  }
  simulator.RunUntil(wl.duration_s + 1.0);

  RegimeResult r;
  r.regime = Regime::kOperatorLevelFused;
  // Cross-site bytes are WAN (the cost of fusing processors across sites).
  for (const sim::Network::LinkRecord& link : network.AllLinkStats()) {
    auto a = site_of.find(link.from);
    auto b = site_of.find(link.to);
    bool lan = a != site_of.end() && b != site_of.end() &&
               a->second == b->second;
    if (!lan) r.wan_bytes += link.stats.bytes;
  }
  for (const sim::SourceSite& src : topo.sources) {
    r.source_egress_bytes += network.egress_bytes(src.node);
    const dissemination::DisseminationTree* tree = dissem.tree(src.stream);
    if (tree != nullptr) {
      r.max_source_fanout = std::max(r.max_source_fanout,
                                     tree->source_fanout());
    }
  }
  // Per-site load imbalance: committed load grouped by original site.
  std::map<int, double> site_load;
  for (int p = 0; p < fused.num_processors(); ++p) {
    entity::Processor* proc = fused.processor(p);
    site_load[site_of.at(proc->node())] += proc->committed_load();
  }
  double total = 0.0, max_load = 0.0;
  for (const auto& [site, load] : site_load) {
    total += load;
    max_load = std::max(max_load, load);
  }
  double mean = total / std::max<size_t>(1, site_load.size());
  r.load_imbalance = mean > 0 ? max_load / mean : 1.0;
  r.latency_p50 = latency.p50();
  r.latency_p99 = latency.p99();
  r.results = static_cast<int64_t>(latency.count());
  return r;
}

}  // namespace

RegimeResult RunRegime(Regime regime, const RegimeWorkload& workload) {
  if (regime == Regime::kOperatorLevelFused) return RunFusedRegime(workload);
  return RunSystemRegime(regime, workload);
}

std::vector<RegimeResult> RunAllRegimes(const RegimeWorkload& workload) {
  return {RunRegime(Regime::kIsolatedDirect, workload),
          RunRegime(Regime::kQueryLevelDirect, workload),
          RunRegime(Regime::kQueryLevelTree, workload),
          RunRegime(Regime::kOperatorLevelFused, workload)};
}

}  // namespace dsps::baselines
