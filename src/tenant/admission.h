#ifndef DSPS_TENANT_ADMISSION_H_
#define DSPS_TENANT_ADMISSION_H_

#include <cstdint>
#include <map>

#include "common/status.h"
#include "engine/plan.h"
#include "telemetry/registry.h"
#include "tenant/tenant.h"

namespace dsps::tenant {

/// Per-tenant weighted-fair admission control. The controller is pure
/// decision and accounting logic — the System owns the actual pending
/// queue, its deadline timers, the install/retry machinery and the
/// per-entity capacity gate (`Config::load_factor`) — so it consumes no
/// randomness and schedules nothing, keeping tenant-enabled runs
/// deterministic and tenant-free runs untouched.
///
/// Submission state machine (driven by the System):
///
///   submitted ──► rejected            (over quota, or install error)
///             ──► admitted            (installed at full fidelity)
///             ──► degraded            (installed on a coarser interest box)
///             ──► queued ──► admitted/degraded  (capacity released in time)
///                        ──► evicted            (bounded wait expired)
///
/// Conservation (audited): per tenant,
///   submitted == admitted + degraded + rejected + evicted + queued_now.
class AdmissionController {
 public:
  struct Config {
    /// Fraction of per-entity processor capacity admissible, enforced by
    /// System::InstallOn with or without tenants. 0 turns the gate off.
    double load_factor = 0.0;
    /// Bounded wait: a queued submission that finds no capacity within
    /// this window is evicted from the queue.
    double max_queue_wait_s = 2.0;
    /// Per-tenant pending-queue bound; further refusals reject.
    int max_queued_per_tenant = 64;
    /// Shed over-fair-share tenants to a coarser interest box instead of
    /// queueing them.
    bool allow_degrade = true;
    /// Declared-load multiplier for a degraded query.
    double degrade_load_factor = 0.5;
    /// Fraction of the interest bounding box's volume a degraded query
    /// retains (shrunk about the box center).
    double degrade_coverage = 0.25;
    /// Window for the per-tenant recent-p95 latency probes.
    double slo_window_s = 2.0;
  };

  enum class Decision { kAdmit, kQueue, kDegrade, kReject };

  struct Counters {
    int64_t submitted = 0;
    int64_t admitted = 0;
    int64_t degraded = 0;
    int64_t rejected = 0;
    /// Timed out of (or withdrawn from) the pending queue.
    int64_t evicted = 0;
    int queued_now = 0;
    /// Standing queries: placed + unplaced + queued (the quota base).
    int standing = 0;
    /// Sum of installed loads (the weighted-fair numerator).
    double standing_load = 0.0;
  };

  /// `registry` must outlive the controller.
  AdmissionController(const TenantRegistry* registry, const Config& config);

  const Config& config() const { return config_; }
  const TenantRegistry& registry() const { return *registry_; }

  /// True if admitting one more standing query would exceed the tenant's
  /// max_standing_queries quota.
  bool QuotaExceeded(TenantId tenant) const;
  /// True if the tenant's pending queue is at max_queued_per_tenant.
  bool QueueFull(TenantId tenant) const;
  /// True if installing `load` would push the tenant's weight-normalized
  /// standing load above the all-tenant average — the weighted-fair test
  /// applied at the moment the cluster refused the query.
  bool OverFairShare(TenantId tenant, double load) const;
  /// standing_load / weight, the drain-order key (lightest share first).
  double NormalizedLoad(TenantId tenant) const;

  /// State-machine transitions (see class comment).
  void OnSubmitted(TenantId tenant);
  void OnAdmitted(TenantId tenant, double load);
  void OnDegraded(TenantId tenant, double load);
  void OnQueued(TenantId tenant);
  /// A queued submission landed: admitted at full fidelity or degraded.
  void OnDequeuedAdmit(TenantId tenant, double load, bool degraded);
  void OnQueueEvicted(TenantId tenant);
  void OnRejected(TenantId tenant);
  /// A standing (installed or unplaced) query was withdrawn.
  void OnWithdrawn(TenantId tenant, double load);

  const Counters& counters(TenantId tenant) const;
  const std::map<TenantId, Counters>& all_counters() const {
    return counters_;
  }
  double total_standing_load() const { return total_standing_load_; }

  /// Verifies the per-tenant conservation identity and non-negativity of
  /// every counter (the controller half of the tenant_conservation audit).
  common::Status CheckConservation() const;

  /// Optional per-tenant labeled counters (tenant.submitted/admitted/
  /// queued/degraded/rejected/evicted, labeled {tenant=<name>}).
  void SetMetrics(telemetry::MetricsRegistry* metrics);

 private:
  struct TenantMetrics {
    telemetry::Counter* submitted = nullptr;
    telemetry::Counter* admitted = nullptr;
    telemetry::Counter* queued = nullptr;
    telemetry::Counter* degraded = nullptr;
    telemetry::Counter* rejected = nullptr;
    telemetry::Counter* evicted = nullptr;
  };
  Counters& Mutable(TenantId tenant);
  TenantMetrics* MetricsFor(TenantId tenant);

  const TenantRegistry* registry_;
  Config config_;
  std::map<TenantId, Counters> counters_;
  double total_standing_load_ = 0.0;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  std::map<TenantId, TenantMetrics> tenant_metrics_;
};

/// A degraded copy of `query`: each stream's interest collapses to one
/// bounding box shrunk about its center to config.degrade_coverage of the
/// bounding box's volume, and the declared load scales by
/// config.degrade_load_factor. The plan is untouched (its filters simply
/// see fewer tuples), so results remain a correct subset.
engine::Query DegradeForAdmission(const engine::Query& query,
                                  const AdmissionController::Config& config);

}  // namespace dsps::tenant

#endif  // DSPS_TENANT_ADMISSION_H_
