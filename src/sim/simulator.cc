#include "sim/simulator.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace dsps::sim {

SimTime Simulator::SanitizeTime(SimTime t) const {
  DSPS_DCHECK(std::isfinite(t));
  if (std::isnan(t)) return now_;
  if (std::isinf(t)) {
    return t > 0 ? std::numeric_limits<SimTime>::max() : now_;
  }
  return t < now_ ? now_ : t;
}

void Simulator::Schedule(SimTime delay, Callback fn) {
  if (delay < 0) delay = 0;  // NaN falls through; SanitizeTime catches it.
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(SimTime t, Callback fn) {
  DSPS_DCHECK(fn != nullptr);
  Push(SanitizeTime(t), kInvalidTimer, std::move(fn));
}

TimerId Simulator::ScheduleCancellable(SimTime delay, Callback fn) {
  if (delay < 0) delay = 0;
  return ScheduleCancellableAt(now_ + delay, std::move(fn));
}

TimerId Simulator::ScheduleCancellableAt(SimTime t, Callback fn) {
  DSPS_DCHECK(fn != nullptr);
  TimerId timer = next_timer_++;
  Push(SanitizeTime(t), timer, std::move(fn));
  return timer;
}

void Simulator::Every(SimTime period, SimTime until, Callback fn) {
  DSPS_CHECK(period > 0);
  SimTime next = now_ + period;
  if (next > until) return;
  ScheduleAt(next, [this, period, until, fn = std::move(fn)]() mutable {
    fn();
    Every(period, until, std::move(fn));
  });
}

bool Simulator::Cancel(TimerId timer) {
  if (timer == kInvalidTimer) return false;
  auto it = timer_pos_.find(timer);
  if (it == timer_pos_.end()) return false;
  size_t pos = it->second;
  timer_pos_.erase(it);
  size_t last = heap_.size() - 1;
  if (pos != last) {
    Event moved = std::move(heap_[last]);
    heap_.pop_back();
    MoveInto(pos, std::move(moved));
    // The relocated event may violate the heap property in either
    // direction relative to its new neighborhood.
    if (pos > 0 && Before(heap_[pos], heap_[(pos - 1) / 4])) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  } else {
    heap_.pop_back();
  }
  return true;
}

void Simulator::MoveInto(size_t pos, Event ev) {
  if (ev.timer != kInvalidTimer) timer_pos_[ev.timer] = pos;
  heap_[pos] = std::move(ev);
}

void Simulator::Push(SimTime t, TimerId timer, Callback fn) {
  heap_.push_back(Event{t, next_seq_++, timer, std::move(fn)});
  size_t pos = heap_.size() - 1;
  if (timer != kInvalidTimer) timer_pos_[timer] = pos;
  SiftUp(pos);
}

void Simulator::SiftUp(size_t pos) {
  while (pos > 0) {
    size_t parent = (pos - 1) / 4;
    if (!Before(heap_[pos], heap_[parent])) break;
    Event tmp = std::move(heap_[pos]);
    MoveInto(pos, std::move(heap_[parent]));
    MoveInto(parent, std::move(tmp));
    pos = parent;
  }
}

void Simulator::SiftDown(size_t pos) {
  size_t n = heap_.size();
  for (;;) {
    size_t first = 4 * pos + 1;
    if (first >= n) break;
    size_t best = first;
    size_t end = first + 4 < n ? first + 4 : n;
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], heap_[pos])) break;
    Event tmp = std::move(heap_[pos]);
    MoveInto(pos, std::move(heap_[best]));
    MoveInto(best, std::move(tmp));
    pos = best;
  }
}

Simulator::Event Simulator::PopTop() {
  Event ev = std::move(heap_[0]);
  if (ev.timer != kInvalidTimer) timer_pos_.erase(ev.timer);
  size_t last = heap_.size() - 1;
  if (last > 0) {
    Event moved = std::move(heap_[last]);
    heap_.pop_back();
    MoveInto(0, std::move(moved));
    SiftDown(0);
  } else {
    heap_.pop_back();
  }
  return ev;
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  // The callback is moved out of the heap (the event's slot is recycled
  // before it runs), so the event can freely schedule more events.
  Event ev = PopTop();
  DSPS_CHECK(ev.time >= now_);
  now_ = ev.time;
  ++events_executed_;
  ev.fn();
  return true;
}

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && Step()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().time <= t) {
    Step();
  }
  // Advance the clock to the horizon whenever every event at or before `t`
  // has executed — including when Stop() fired during the *final* such
  // event (there was nothing left to abort, so the run did complete and
  // time-series windows opened afterwards must not see a stale clock).
  // Only a stop with work still pending keeps the clock at the stopping
  // event's time.
  if (now_ < t && (heap_.empty() || heap_.front().time > t)) now_ = t;
}

}  // namespace dsps::sim
