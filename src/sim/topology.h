#ifndef DSPS_SIM_TOPOLOGY_H_
#define DSPS_SIM_TOPOLOGY_H_

#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "sim/network.h"

namespace dsps::sim {

/// Entities and sources are placed uniformly in [0, kWorldSize]^2.
inline constexpr double kWorldSize = 1000.0;
/// Processors of one entity are placed within this radius of its center.
inline constexpr double kLanRadius = 1.0;
/// LAN link parameters (intra-entity).
inline constexpr LinkParams kLan{0.0001, 1e9};
/// WAN link parameters; latency grows with distance (see BuildTopology).
inline constexpr double kWanBaseLatencyS = 0.002;
inline constexpr double kWanLatencyPerUnitS = 5e-5;
inline constexpr double kWanBandwidthBps = 1e8;

/// Parameters of the two-layer world: entities scattered on a WAN plane,
/// each with a cluster of processors on a fast LAN, plus stream sources.
struct TopologyConfig {
  int num_entities = 4;
  int processors_per_entity = 4;
  int num_sources = 2;
  /// Fault domains (racks / sites — groups of entities that fail
  /// together). Entities are assigned to domains in contiguous blocks:
  /// entity e gets domain e * num_fault_domains / num_entities. 0 (the
  /// default) gives every entity its own domain — independent failures,
  /// the pre-fault-domain behavior.
  int num_fault_domains = 0;
};

/// One entity's footprint in the simulator.
struct EntitySite {
  common::EntityId entity = common::kInvalidEntity;
  Point center;
  /// The entity's fault domain (see TopologyConfig::num_fault_domains).
  int fault_domain = 0;
  /// One sim node per processor; processors[0] is also the entity's
  /// wrapper/gateway node for inter-entity traffic.
  std::vector<common::SimNodeId> processors;
};

/// One stream source's footprint.
struct SourceSite {
  common::StreamId stream = common::kInvalidStream;
  Point position;
  common::SimNodeId node = common::kInvalidSimNode;
};

/// A generated two-layer topology.
struct Topology {
  std::vector<EntitySite> entities;
  std::vector<SourceSite> sources;
};

/// Creates nodes for every entity processor and every source in `network`,
/// and installs a distance-based link model: node pairs within
/// 2*kLanRadius of each other use LAN parameters, all other pairs use WAN
/// parameters with distance-proportional latency.
Topology BuildTopology(Network* network, const TopologyConfig& config,
                       common::Rng* rng);

}  // namespace dsps::sim

#endif  // DSPS_SIM_TOPOLOGY_H_
