#ifndef DSPS_COORDINATOR_HEARTBEAT_MONITOR_H_
#define DSPS_COORDINATOR_HEARTBEAT_MONITOR_H_

#include <cstddef>
#include <map>
#include <vector>

#include "common/ids.h"

namespace dsps::coordinator {

/// Failure detection for the federation (Section 3.2.1: "heartbeat
/// messages are sent periodically among the parent and children to detect
/// any node failure").
///
/// The monitor tracks the last heartbeat time of every registered entity;
/// Sweep() returns (and stops tracking) every entity whose heartbeat is
/// older than the timeout. The caller turns suspicions into
/// CoordinatorTree::Leave / DisseminationTree::RemoveEntity calls — a
/// detected failure follows the same repair path as a graceful leave.
class HeartbeatMonitor {
 public:
  /// An entity is suspected after `timeout_s` (> 0) without a heartbeat.
  explicit HeartbeatMonitor(double timeout_s);

  /// Starts tracking `id`, as of time `now`.
  void Register(common::EntityId id, double now);

  /// Stops tracking `id` (graceful leave).
  void Unregister(common::EntityId id);

  /// Records a heartbeat from `id`. A heartbeat from an untracked entity
  /// re-registers it: an entity evicted by Sweep on a false suspicion
  /// (e.g. its heartbeats were delayed or partitioned away) resumes being
  /// monitored the moment it is heard from again, instead of staying
  /// invisible forever. Callers that evict an entity on purpose must also
  /// make it stop heartbeating (a gracefully-left entity does).
  void Heartbeat(common::EntityId id, double now);

  /// Entities whose last heartbeat is older than `now - timeout`. They
  /// are removed from the monitor; re-Register after recovery.
  std::vector<common::EntityId> Sweep(double now);

  bool IsTracked(common::EntityId id) const;
  size_t size() const { return last_seen_.size(); }

 private:
  double timeout_s_;
  std::map<common::EntityId, double> last_seen_;
};

}  // namespace dsps::coordinator

#endif  // DSPS_COORDINATOR_HEARTBEAT_MONITOR_H_
