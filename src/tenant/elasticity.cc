#include "tenant/elasticity.h"

namespace dsps::tenant {

namespace {

/// Consecutive observations a watermark must hold before acting.
constexpr int kSustainRounds = 2;
static_assert(kSustainRounds >= 1);
/// Per-entity processor-count floor: shrink never removes the gateway.
constexpr int kMinProcessors = 1;
static_assert(kMinProcessors >= 1);

}  // namespace

ElasticityManager::Action ElasticityManager::Evaluate(const Observation& obs) {
  double utilization =
      obs.capacity > 0.0 ? obs.committed_load / obs.capacity : 0.0;
  bool hot = utilization > config_.high_watermark ||
             (config_.pr_p95_limit > 0.0 && obs.pr_p95 > config_.pr_p95_limit);
  bool cold = utilization < config_.low_watermark;

  int& high = high_streak_[obs.entity];
  int& low = low_streak_[obs.entity];
  high = hot ? high + 1 : 0;
  low = cold ? low + 1 : 0;

  if (high >= kSustainRounds && obs.processors < config_.max_processors) {
    high = 0;
    low = 0;
    stats_.grow_decisions += 1;
    return Action::kGrow;
  }
  if (low >= kSustainRounds && obs.processors > kMinProcessors) {
    high = 0;
    low = 0;
    stats_.shrink_decisions += 1;
    return Action::kShrink;
  }
  return Action::kNone;
}

void ElasticityManager::Forget(int entity) {
  high_streak_.erase(entity);
  low_streak_.erase(entity);
}

}  // namespace dsps::tenant
