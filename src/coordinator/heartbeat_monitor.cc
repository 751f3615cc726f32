#include "coordinator/heartbeat_monitor.h"

#include "common/check.h"

namespace dsps::coordinator {

HeartbeatMonitor::HeartbeatMonitor(double timeout_s) : timeout_s_(timeout_s) {
  DSPS_CHECK(timeout_s > 0);
}

void HeartbeatMonitor::Register(common::EntityId id, double now) {
  last_seen_[id] = now;
}

void HeartbeatMonitor::Unregister(common::EntityId id) {
  last_seen_.erase(id);
}

void HeartbeatMonitor::Heartbeat(common::EntityId id, double now) {
  auto it = last_seen_.find(id);
  if (it == last_seen_.end()) {
    // False-positive recovery: a swept entity that is still alive keeps
    // heartbeating, and the first heartbeat to get through re-registers
    // it. (Before this fix the id was ignored and never tracked again.)
    last_seen_[id] = now;
    return;
  }
  if (now > it->second) it->second = now;
}

std::vector<common::EntityId> HeartbeatMonitor::Sweep(double now) {
  std::vector<common::EntityId> suspects;
  for (auto it = last_seen_.begin(); it != last_seen_.end();) {
    if (now - it->second > timeout_s_) {
      suspects.push_back(it->first);
      it = last_seen_.erase(it);
    } else {
      ++it;
    }
  }
  return suspects;
}

bool HeartbeatMonitor::IsTracked(common::EntityId id) const {
  return last_seen_.count(id) > 0;
}

}  // namespace dsps::coordinator
