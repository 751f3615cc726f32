#include "tenant/admission.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "interest/interval.h"

namespace dsps::tenant {

namespace {

/// Declared-load multiplier for a degraded query.
constexpr double kDegradeLoadFactor = 0.5;
/// Fraction of the interest bounding box's volume a degraded query
/// retains (shrunk about the box center).
constexpr double kDegradeCoverage = 0.25;
static_assert(kDegradeCoverage >= 1e-6 && kDegradeCoverage <= 1.0);

}  // namespace

AdmissionController::AdmissionController(const TenantRegistry* registry,
                                         const Config& config)
    : registry_(registry), config_(config) {
  DSPS_CHECK(registry_ != nullptr);
  // Materialize counters for every registered tenant up front so reports
  // and audits see zero rows rather than missing rows.
  for (TenantId id : registry_->ids()) counters_[id];
}

bool AdmissionController::QuotaExceeded(TenantId tenant) const {
  const TenantSpec& spec = registry_->SpecOrDefault(tenant);
  if (spec.max_standing_queries <= 0) return false;
  return counters(tenant).standing >= spec.max_standing_queries;
}

bool AdmissionController::QueueFull(TenantId tenant) const {
  return counters(tenant).queued_now >= config_.max_queued_per_tenant;
}

bool AdmissionController::OverFairShare(TenantId tenant, double load) const {
  double total_weight = registry_->total_weight();
  if (total_weight <= 0.0) return false;
  const TenantSpec& spec = registry_->SpecOrDefault(tenant);
  if (spec.weight <= 0.0) return true;
  // Would this tenant's normalized load exceed the cluster-average
  // normalized load once `load` lands? Scale-free: multiplying all
  // weights by a constant changes nothing.
  double mine = (counters(tenant).standing_load + load) / spec.weight;
  double everyone = (total_standing_load_ + load) / total_weight;
  return mine > everyone;
}

double AdmissionController::NormalizedLoad(TenantId tenant) const {
  const TenantSpec& spec = registry_->SpecOrDefault(tenant);
  if (spec.weight <= 0.0) return 1e300;
  return counters(tenant).standing_load / spec.weight;
}

void AdmissionController::OnSubmitted(TenantId tenant) {
  Mutable(tenant).submitted += 1;
  if (TenantMetrics* m = MetricsFor(tenant)) m->submitted->Increment();
}

void AdmissionController::OnAdmitted(TenantId tenant, double load) {
  Counters& c = Mutable(tenant);
  c.admitted += 1;
  c.standing += 1;
  c.standing_load += load;
  total_standing_load_ += load;
  if (TenantMetrics* m = MetricsFor(tenant)) m->admitted->Increment();
}

void AdmissionController::OnDegraded(TenantId tenant, double load) {
  Counters& c = Mutable(tenant);
  c.degraded += 1;
  c.standing += 1;
  c.standing_load += load;
  total_standing_load_ += load;
  if (TenantMetrics* m = MetricsFor(tenant)) m->degraded->Increment();
}

void AdmissionController::OnQueued(TenantId tenant) {
  Counters& c = Mutable(tenant);
  c.queued_now += 1;
  c.standing += 1;
  if (TenantMetrics* m = MetricsFor(tenant)) m->queued->Increment();
}

void AdmissionController::OnDequeuedAdmit(TenantId tenant, double load,
                                          bool degraded) {
  Counters& c = Mutable(tenant);
  DSPS_CHECK(c.queued_now > 0);
  c.queued_now -= 1;
  // The query was already standing while queued; only the outcome counter
  // and the installed load change.
  if (degraded) {
    c.degraded += 1;
  } else {
    c.admitted += 1;
  }
  c.standing_load += load;
  total_standing_load_ += load;
  if (TenantMetrics* m = MetricsFor(tenant)) {
    (degraded ? m->degraded : m->admitted)->Increment();
  }
}

void AdmissionController::OnQueueEvicted(TenantId tenant) {
  Counters& c = Mutable(tenant);
  DSPS_CHECK(c.queued_now > 0 && c.standing > 0);
  c.queued_now -= 1;
  c.standing -= 1;
  c.evicted += 1;
  if (TenantMetrics* m = MetricsFor(tenant)) m->evicted->Increment();
}

void AdmissionController::OnRejected(TenantId tenant) {
  Mutable(tenant).rejected += 1;
  if (TenantMetrics* m = MetricsFor(tenant)) m->rejected->Increment();
}

void AdmissionController::OnWithdrawn(TenantId tenant, double load) {
  Counters& c = Mutable(tenant);
  DSPS_CHECK(c.standing > 0);
  c.standing -= 1;
  c.standing_load -= load;
  total_standing_load_ -= load;
}

const AdmissionController::Counters& AdmissionController::counters(
    TenantId tenant) const {
  static const Counters kZero;
  auto it = counters_.find(tenant);
  return it != counters_.end() ? it->second : kZero;
}

common::Status AdmissionController::CheckConservation() const {
  for (const auto& [tenant, c] : counters_) {
    if (c.queued_now < 0 || c.standing < 0 ||
        c.standing_load < -1e-6) {
      return common::Status::Internal("tenant " + std::to_string(tenant) +
                                      ": negative standing accounting");
    }
    int64_t settled =
        c.admitted + c.degraded + c.rejected + c.evicted + c.queued_now;
    if (c.submitted != settled) {
      return common::Status::Internal(
          "tenant " + std::to_string(tenant) + ": submitted " +
          std::to_string(c.submitted) + " != settled " +
          std::to_string(settled));
    }
  }
  return common::Status::OK();
}

void AdmissionController::SetMetrics(telemetry::MetricsRegistry* metrics) {
  metrics_ = metrics;
  tenant_metrics_.clear();
}

AdmissionController::Counters& AdmissionController::Mutable(TenantId tenant) {
  return counters_[tenant];
}

AdmissionController::TenantMetrics* AdmissionController::MetricsFor(
    TenantId tenant) {
  if (metrics_ == nullptr) return nullptr;
  auto it = tenant_metrics_.find(tenant);
  if (it == tenant_metrics_.end()) {
    telemetry::Labels labels =
        telemetry::MakeLabels({{"tenant", registry_->NameOf(tenant)}});
    TenantMetrics m;
    m.submitted = metrics_->counter("tenant.submitted", labels);
    m.admitted = metrics_->counter("tenant.admitted", labels);
    m.queued = metrics_->counter("tenant.queued", labels);
    m.degraded = metrics_->counter("tenant.degraded", labels);
    m.rejected = metrics_->counter("tenant.rejected", labels);
    m.evicted = metrics_->counter("tenant.evicted", labels);
    it = tenant_metrics_.emplace(tenant, m).first;
  }
  return &it->second;
}

engine::Query DegradeForAdmission(const engine::Query& query) {
  engine::Query coarse = query;
  interest::InterestSet shed;
  for (common::StreamId stream : query.interest.streams()) {
    const std::vector<interest::Box>* boxes =
        query.interest.boxes_for(stream);
    if (boxes == nullptr || boxes->empty()) continue;
    // Bounding box over the stream's interest, then shrink each dimension
    // about its center so the retained volume is kDegradeCoverage of the
    // bounding box's.
    interest::Box bound = (*boxes)[0];
    for (size_t b = 1; b < boxes->size(); ++b) {
      const interest::Box& box = (*boxes)[b];
      for (size_t d = 0; d < bound.size() && d < box.size(); ++d) {
        bound[d].lo = std::min(bound[d].lo, box[d].lo);
        bound[d].hi = std::max(bound[d].hi, box[d].hi);
      }
    }
    double scale =
        bound.empty() ? 1.0
                      : std::pow(kDegradeCoverage, 1.0 / static_cast<double>(
                                                       bound.size()));
    for (interest::Interval& iv : bound) {
      if (iv.empty()) continue;
      double center = 0.5 * (iv.lo + iv.hi);
      double half = 0.5 * iv.length() * scale;
      iv.lo = center - half;
      iv.hi = center + half;
    }
    shed.Add(stream, bound);
  }
  coarse.interest = std::move(shed);
  coarse.load = query.load * kDegradeLoadFactor;
  return coarse;
}

}  // namespace dsps::tenant
