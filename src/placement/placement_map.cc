#include "placement/placement_map.h"

#include <algorithm>

#include "common/check.h"

namespace dsps::placement {

namespace {

/// Independent rings; more rings → better declustering of co-resident
/// queries at map-build cost.
constexpr int kRings = 4;
/// Virtual points per entity per ring.
constexpr int kVnodes = 16;
/// Salt of the ring-point and query hashes.
constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ull;
static_assert(PlacementMap::kReplicas >= 0);
static_assert(kRings >= 1);
static_assert(kVnodes >= 1);

}  // namespace

int32_t JumpConsistentHash(uint64_t key, int32_t num_buckets) {
  DSPS_CHECK(num_buckets > 0);
  int64_t b = -1;
  int64_t j = 0;
  while (j < num_buckets) {
    b = j;
    key = key * 2862933555777941757ULL + 1;
    j = static_cast<int64_t>(
        static_cast<double>(b + 1) *
        (static_cast<double>(1LL << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<int32_t>(b);
}

uint64_t HashMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

PlacementMap::PlacementMap(std::vector<int> domain_of)
    : domain_of_(std::move(domain_of)) {
  DSPS_CHECK(!domain_of_.empty());
  alive_.assign(domain_of_.size(), true);
  for (int d : domain_of_) {
    DSPS_CHECK(d >= 0);
    num_domains_ = std::max(num_domains_, d + 1);
  }
  rings_.resize(kRings);
  for (int r = 0; r < kRings; ++r) {
    std::vector<RingPoint>& ring = rings_[r];
    ring.reserve(domain_of_.size() * static_cast<size_t>(kVnodes));
    for (common::EntityId e = 0; e < num_entities(); ++e) {
      for (int v = 0; v < kVnodes; ++v) {
        RingPoint p;
        p.pos = HashMix(kSeed ^ HashMix((static_cast<uint64_t>(r) << 40) ^
                                        (static_cast<uint64_t>(e) << 16) ^
                                        static_cast<uint64_t>(v)));
        p.entity = e;
        ring.push_back(p);
      }
    }
    std::sort(ring.begin(), ring.end(),
              [](const RingPoint& a, const RingPoint& b) {
                return a.pos != b.pos ? a.pos < b.pos : a.entity < b.entity;
              });
  }
}

void PlacementMap::SetAlive(common::EntityId entity, bool alive) {
  DSPS_CHECK(entity >= 0 && entity < num_entities());
  alive_[entity] = alive;
}

bool PlacementMap::IsAlive(common::EntityId entity) const {
  return entity >= 0 && entity < num_entities() && alive_[entity];
}

int PlacementMap::num_alive() const {
  int n = 0;
  for (bool a : alive_) n += a ? 1 : 0;
  return n;
}

std::vector<common::EntityId> PlacementMap::Targets(
    common::QueryId query) const {
  std::vector<common::EntityId> out;
  int alive = num_alive();
  if (alive == 0) return out;
  int want = std::min(kReplicas + 1, alive);
  out.reserve(static_cast<size_t>(want));

  uint64_t h = HashMix(static_cast<uint64_t>(query) ^ kSeed);
  const std::vector<RingPoint>& ring = rings_[JumpConsistentHash(h, kRings)];
  uint64_t start = HashMix(h + 0x6A09E667F3BCC909ull);
  size_t begin = std::lower_bound(ring.begin(), ring.end(), start,
                                  [](const RingPoint& p, uint64_t pos) {
                                    return p.pos < pos;
                                  }) -
                 ring.begin();
  if (begin == ring.size()) begin = 0;

  std::vector<bool> chosen(domain_of_.size(), false);
  std::vector<bool> domain_used(static_cast<size_t>(num_domains_), false);
  // Pass 1: clockwise walk, one entity per fault domain.
  for (size_t i = 0;
       i < ring.size() && static_cast<int>(out.size()) < want; ++i) {
    common::EntityId e = ring[(begin + i) % ring.size()].entity;
    if (!alive_[e] || chosen[e]) continue;
    if (domain_used[domain_of_[e]]) continue;
    chosen[e] = true;
    domain_used[domain_of_[e]] = true;
    out.push_back(e);
  }
  // Pass 2: every alive domain is represented but more targets are
  // wanted — relax the domain constraint, same walk order.
  for (size_t i = 0;
       i < ring.size() && static_cast<int>(out.size()) < want; ++i) {
    common::EntityId e = ring[(begin + i) % ring.size()].entity;
    if (!alive_[e] || chosen[e]) continue;
    chosen[e] = true;
    out.push_back(e);
  }
  return out;
}

common::EntityId PlacementMap::Primary(common::QueryId query) const {
  std::vector<common::EntityId> targets = Targets(query);
  return targets.empty() ? common::kInvalidEntity : targets[0];
}

}  // namespace dsps::placement
