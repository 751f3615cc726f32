#include "sim/topology.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace dsps::sim {

Topology BuildTopology(Network* network, const TopologyConfig& config,
                       common::Rng* rng) {
  DSPS_CHECK(network != nullptr);
  DSPS_CHECK(rng != nullptr);
  DSPS_CHECK(config.num_entities > 0);
  DSPS_CHECK(config.processors_per_entity > 0);

  network->SetDefaultLinkModel([](const Point& a, const Point& b) {
    double d = Distance(a, b);
    if (d <= 2.0 * kLanRadius) return kLan;
    LinkParams p;
    p.latency_s = kWanBaseLatencyS + kWanLatencyPerUnitS * d;
    p.bandwidth_bps = kWanBandwidthBps;
    return p;
  });

  Topology topo;
  topo.entities.reserve(config.num_entities);
  const int domains = config.num_fault_domains > 0
                          ? std::min(config.num_fault_domains,
                                     config.num_entities)
                          : config.num_entities;
  for (int e = 0; e < config.num_entities; ++e) {
    EntitySite site;
    site.entity = e;
    // Contiguous blocks, no RNG: domain assignment never perturbs the
    // node/position draws, so topologies stay bit-identical across
    // num_fault_domains settings.
    site.fault_domain = static_cast<int>(
        static_cast<int64_t>(e) * domains / config.num_entities);
    site.center = Point{rng->Uniform(0, kWorldSize),
                        rng->Uniform(0, kWorldSize)};
    site.processors.reserve(config.processors_per_entity);
    for (int p = 0; p < config.processors_per_entity; ++p) {
      double angle = rng->Uniform(0, 2.0 * M_PI);
      double r = kLanRadius * std::sqrt(rng->NextDouble());
      Point pos{site.center.x + r * std::cos(angle),
                site.center.y + r * std::sin(angle)};
      site.processors.push_back(network->AddNode(pos));
    }
    topo.entities.push_back(std::move(site));
  }
  topo.sources.reserve(config.num_sources);
  for (int s = 0; s < config.num_sources; ++s) {
    SourceSite src;
    src.stream = s;
    src.position = Point{rng->Uniform(0, kWorldSize),
                         rng->Uniform(0, kWorldSize)};
    src.node = network->AddNode(src.position);
    topo.sources.push_back(src);
  }
  return topo;
}

}  // namespace dsps::sim
