#ifndef DSPS_SYSTEM_AUDITOR_H_
#define DSPS_SYSTEM_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/registry.h"

namespace dsps::telemetry {
class FlightRecorder;
}  // namespace dsps::telemetry

namespace dsps::system {

class System;

/// Continuous invariant auditor: a periodic, opt-in sweep that re-derives
/// ground truth from first principles and compares it against the live
/// structures the hot paths actually use. The paper states structural
/// invariants (coordinator cluster sizes in [k, 3k-1], parent = cluster
/// center, interest aggregates consistent up the dissemination tree) that
/// our tests only check at hand-picked moments; the auditor checks them
/// continuously, under fault injection, at simulated-time cadence.
///
/// Checks per sweep:
///  - coordinator:   CoordinatorTree::CheckInvariants (cluster sizes,
///                   center-from-own-subtree, leaf bijection);
///  - dissemination: per-stream DisseminationTree::CheckInvariants
///                   (parent/child symmetry, acyclicity, cached subtree
///                   aggregates vs recomputation, routing and local match
///                   tables vs linear scans);
///  - query_graph:   incremental QueryGraphIndex::Graph() vs a fresh
///                   QueryGraph::Build over the live queries (exact
///                   weights and adjacency);
///  - conservation:  every admitted query is placed on exactly one alive
///                   entity or queued as unplaced — never both, never
///                   lost — and the entities' own installs agree;
///  - replica_placement (placement-map mode only, trivially clean
///                   otherwise): the map's alive set mirrors the
///                   system's; every placed query's home is one of its
///                   map targets unless the System explicitly moved it
///                   off-map (migration/fallback, tracked in a ledger);
///                   and replica target lists straddle fault domains
///                   whenever enough alive domains exist;
///  - tenant_conservation (tenant-enabled runs only, trivially clean
///                   otherwise): every standing query (placed, unplaced,
///                   or queued for admission) is attributed to exactly
///                   one registered tenant; the admission controller's
///                   per-tenant standing counts and loads agree with a
///                   recount from the System's own maps (so readmission
///                   re-homes can never double-count against quotas);
///                   and per tenant, submitted == admitted + degraded +
///                   rejected + evicted + queued.
///
/// Every check is read-only (a match table the dissemination check has
/// to build is dropped again afterwards), consumes no RNG, and
/// sends no messages — enabling the auditor cannot change a simulation's
/// results, only observe them. Violations bump `audit.*` counters and,
/// when `fatal`, abort: in debug builds CI's fault-seed matrix dies at
/// the first sweep that observes a broken invariant instead of letting it
/// corrupt benches downstream.
class Auditor {
 public:
  struct Config {
    /// Abort on the first violation (defaults on in debug builds,
    /// mirroring DSPS_DCHECK).
    bool fatal =
#ifndef NDEBUG
        true;
#else
        false;
#endif
    /// When set, sweeps maintain `audit.sweeps`, `audit.violations`, and
    /// per-check `audit.violations{check=...}` counters.
    telemetry::MetricsRegistry* metrics = nullptr;
    /// When set, every violation records an "audit.violation.<check>"
    /// event into the flight recorder and triggers its one-shot
    /// post-mortem dump (DumpOnce) — before the fatal abort, so the ring
    /// nearest the first broken invariant survives.
    telemetry::FlightRecorder* flight = nullptr;
  };

  /// Per-check accounting for the JSON report and tools/dsps_doctor.
  struct CheckStats {
    std::string name;
    int64_t runs = 0;
    int64_t violations = 0;
    /// Message of the most recent violation (empty when clean).
    std::string last_detail;
  };

  /// `system` must outlive the auditor.
  Auditor(System* system, const Config& config);
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Runs every check once; returns the number of violations found (0 on
  /// a clean sweep). Aborts instead when Config::fatal and a check fails.
  int RunOnce();

  int64_t sweeps() const { return sweeps_; }
  int64_t violations() const { return violations_; }
  const std::vector<CheckStats>& checks() const { return checks_; }

  /// Structured report for tools/dsps_doctor:
  ///   {"report": "audit", "sweeps": N, "violations": M,
  ///    "checks": [{"name", "runs", "violations", "last_detail"}, ...]}
  std::string ReportJson() const;
  common::Status WriteReport(const std::string& path) const;

 private:
  common::Status CheckCoordinator() const;
  common::Status CheckDissemination() const;
  common::Status CheckQueryGraph() const;
  common::Status CheckConservation() const;
  common::Status CheckReplicaPlacement() const;
  common::Status CheckTenantConservation() const;

  System* system_;
  Config config_;
  std::vector<CheckStats> checks_;
  int64_t sweeps_ = 0;
  int64_t violations_ = 0;
  telemetry::Counter* sweeps_counter_ = nullptr;
  telemetry::Counter* violations_counter_ = nullptr;
  std::vector<telemetry::Counter*> check_counters_;
};

/// Parses the DSPS_AUDIT_INTERVAL environment variable (simulated seconds
/// between sweeps); 0 when unset, empty, or non-positive. Benches and
/// tests call this so CI can switch auditing on without code changes —
/// the System itself never reads the environment.
double AuditIntervalFromEnv();

/// Parses the DSPS_WATCHDOG environment variable (simulated seconds
/// between watchdog ticks); 0 when unset, empty, or non-positive. Same
/// contract as AuditIntervalFromEnv: benches read it so CI can turn the
/// anomaly watchdog on per-leg without code changes.
double WatchdogIntervalFromEnv();

}  // namespace dsps::system

#endif  // DSPS_SYSTEM_AUDITOR_H_
