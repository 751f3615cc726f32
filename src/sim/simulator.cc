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
  Push(SanitizeTime(t), /*cancellable=*/false, std::move(fn));
}

TimerId Simulator::ScheduleCancellable(SimTime delay, Callback fn) {
  if (delay < 0) delay = 0;
  return ScheduleCancellableAt(now_ + delay, std::move(fn));
}

TimerId Simulator::ScheduleCancellableAt(SimTime t, Callback fn) {
  DSPS_DCHECK(fn != nullptr);
  return Push(SanitizeTime(t), /*cancellable=*/true, std::move(fn));
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
  const uint64_t slot_plus_one = timer & 0xffffffffu;
  const auto gen = static_cast<uint32_t>(timer >> 32);
  if (slot_plus_one == 0 || slot_plus_one > gen_.size()) return false;
  const auto slot = static_cast<uint32_t>(slot_plus_one - 1);
  if (gen == 0 || gen_[slot] != gen) return false;
  RemoveAt(pos_[slot]);
  // Destroyed on return, once the queue is consistent again: a capture's
  // destructor may itself schedule or cancel.
  Callback dropped = std::move(fns_[slot]);
  FreeSlot(slot);
  return true;
}

TimerId Simulator::Push(SimTime t, bool cancellable, Callback fn) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    fns_[slot] = std::move(fn);
  } else {
    // slot + 1 must fit the handle's low 32 bits.
    DSPS_CHECK_MSG(fns_.size() < 0xffffffffu, "simulator out of event slots");
    slot = static_cast<uint32_t>(fns_.size());
    fns_.push_back(std::move(fn));
    pos_.push_back(0);
    gen_.push_back(0);
  }
  TimerId handle = kInvalidTimer;
  if (cancellable) {
    if (++last_gen_ == 0) ++last_gen_;
    gen_[slot] = last_gen_;
    handle = static_cast<TimerId>(last_gen_) << 32 | (slot + uint64_t{1});
  }
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Key{t, next_seq_++, slot});
  return handle;
}

void Simulator::FreeSlot(uint32_t slot) {
  gen_[slot] = 0;
  free_slots_.push_back(slot);
}

void Simulator::SiftUp(size_t pos, Key key) {
  while (pos > 0) {
    size_t parent = (pos - 1) / 4;
    if (!Before(key, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, key);
}

void Simulator::SiftDown(size_t pos, Key key) {
  const size_t n = heap_.size();
  for (;;) {
    size_t first = 4 * pos + 1;
    if (first >= n) break;
    size_t best = first;
    size_t end = first + 4 < n ? first + 4 : n;
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], key)) break;
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, key);
}

Simulator::Key Simulator::PopTop() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0, last);
  return top;
}

void Simulator::RemoveAt(size_t pos) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // it was the last key
  // The relocated key may violate the heap property in either direction
  // relative to its new neighborhood.
  if (pos > 0 && Before(last, heap_[(pos - 1) / 4])) {
    SiftUp(pos, last);
  } else {
    SiftDown(pos, last);
  }
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  const Key top = PopTop();
  DSPS_CHECK(top.time >= now_);
  now_ = top.time;
  ++events_executed_;
  // Move the callback out and free its slot before running it, so the
  // event can freely schedule (reusing the slot) or cancel.
  Callback fn = std::move(fns_[top.slot]);
  FreeSlot(top.slot);
  fn();
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
