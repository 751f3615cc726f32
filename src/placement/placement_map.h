#ifndef DSPS_PLACEMENT_PLACEMENT_MAP_H_
#define DSPS_PLACEMENT_PLACEMENT_MAP_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"

namespace dsps::placement {

/// Lamping-Veach jump consistent hash: maps `key` uniformly into
/// [0, num_buckets) such that growing the bucket count only remaps keys
/// into the newly added bucket (minimal disruption).
int32_t JumpConsistentHash(uint64_t key, int32_t num_buckets);

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
uint64_t HashMix(uint64_t x);

/// DAOS-style algorithmic placement map over fault domains.
///
/// Entities (dense ids [0, n)) are assigned to fault domains (racks /
/// sites — components that fail together). The map builds several
/// independent consistent-hash rings, each holding a fixed number of
/// pseudo-random virtual points per entity; a query is routed by
/// jump-hashing onto one ring and walking it clockwise from its hashed
/// start position, collecting a primary plus kReplicas warm-standby
/// targets that straddle distinct fault domains for as long as distinct
/// domains remain.
///
/// The payoff is declustering: two queries co-resident on one entity walk
/// different rings from different offsets, so when that entity fails their
/// standby targets scatter across *all* survivors instead of piling onto
/// one neighbor — rebuild work spreads, and recovery time shrinks roughly
/// with the survivor count. Placement is stateless (any holder of the map
/// computes identical targets) and minimally disruptive: an entity's death
/// only changes the target lists that contained it.
class PlacementMap {
 public:
  /// Warm standbys per query (k). Targets() returns up to kReplicas + 1
  /// entities: primary first, standbys after.
  static constexpr int kReplicas = 2;

  /// `domain_of[e]` is the fault domain of entity id `e`; every entity in
  /// [0, domain_of.size()) starts alive.
  explicit PlacementMap(std::vector<int> domain_of);

  int num_entities() const { return static_cast<int>(domain_of_.size()); }
  int num_domains() const { return num_domains_; }
  int domain_of(common::EntityId entity) const { return domain_of_[entity]; }

  /// Membership: dead entities are transparently skipped by Targets.
  void SetAlive(common::EntityId entity, bool alive);
  bool IsAlive(common::EntityId entity) const;
  int num_alive() const;

  /// The query's primary plus up to kReplicas standbys — all
  /// alive, all distinct, and in pairwise-distinct fault domains while
  /// unused domains remain (the declustering walk relaxes the domain
  /// constraint only once every alive domain is represented). Empty iff
  /// no entity is alive. Stateless: equal maps give equal answers.
  std::vector<common::EntityId> Targets(common::QueryId query) const;

  /// Targets(query)[0]; kInvalidEntity when nothing is alive.
  common::EntityId Primary(common::QueryId query) const;

 private:
  struct RingPoint {
    uint64_t pos = 0;
    common::EntityId entity = common::kInvalidEntity;
  };

  std::vector<int> domain_of_;
  std::vector<bool> alive_;
  int num_domains_ = 0;
  /// rings_[r] sorted by (pos, entity).
  std::vector<std::vector<RingPoint>> rings_;
};

}  // namespace dsps::placement

#endif  // DSPS_PLACEMENT_PLACEMENT_MAP_H_
