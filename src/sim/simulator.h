#ifndef DSPS_SIM_SIMULATOR_H_
#define DSPS_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace dsps::sim {

/// Simulated time in seconds.
using SimTime = double;

/// Handle to a cancellable scheduled event. 0 is the invalid handle; events
/// scheduled through the plain Schedule/ScheduleAt API carry no handle.
using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Deterministic single-threaded discrete-event simulator.
///
/// Events are executed in (time, insertion order) order, so two events
/// scheduled for the same instant run in the order they were scheduled —
/// this makes every run exactly reproducible.
///
/// The queue is an indexed 4-ary heap in a flat vector: pops move the
/// callback out (no std::function copy per event), and events scheduled
/// via ScheduleCancellable can be removed in O(log n) — their heap slots
/// are reclaimed immediately instead of lingering as dud entries.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now. Negative delays clamp
  /// to zero (run "immediately", after already-queued same-time events).
  /// Non-finite delays are a DCHECK failure; release builds clamp NaN to
  /// zero delay and +Inf to the largest finite time.
  void Schedule(SimTime delay, Callback fn);

  /// Schedules `fn` at absolute time `t` (clamped to now()). Non-finite
  /// `t` is a DCHECK failure; release builds clamp NaN/-Inf to now() and
  /// +Inf to the largest finite time so the heap ordering stays valid.
  void ScheduleAt(SimTime t, Callback fn);

  /// Like Schedule/ScheduleAt, but returns a handle that Cancel() accepts.
  /// Cancellation removes the event from the heap immediately — use for
  /// retry/timeout timers that are usually disarmed before they fire.
  TimerId ScheduleCancellable(SimTime delay, Callback fn);
  TimerId ScheduleCancellableAt(SimTime t, Callback fn);

  /// Runs `fn` periodically: first at now() + `period`, then `period`
  /// after each previous run, never after `until` (a run at exactly
  /// `until` happens). Each next run is scheduled only after `fn`
  /// returns, so events `fn` schedules for the same instant run before
  /// the next tick. Schedules nothing when now() + `period` > `until`.
  void Every(SimTime period, SimTime until, Callback fn);

  /// Cancels a timer scheduled with ScheduleCancellable[At]. Returns true
  /// if the event was still pending (and is now removed), false if it
  /// already fired, was already cancelled, or the handle is invalid.
  bool Cancel(TimerId timer);

  /// Runs until the event queue is empty or Stop() is called.
  void Run();

  /// Runs until simulated time would exceed `t`; events at exactly `t` are
  /// executed. The clock advances to `t` whenever every event at or before
  /// `t` has executed — including when Stop() fired during the final such
  /// event — so callers can treat a completed RunUntil(t) as "time is now
  /// t". Only a Stop() with events at or before `t` still pending leaves
  /// the clock at the stopping event's time.
  void RunUntil(SimTime t);

  /// Executes at most one pending event. Returns false if none remained.
  bool Step();

  /// Makes Run()/RunUntil() return after the current event.
  void Stop() { stopped_ = true; }

  /// Number of events executed so far.
  uint64_t events_executed() const { return events_executed_; }

  /// Number of events waiting in the queue.
  size_t pending_events() const { return heap_.size(); }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    /// Cancellation handle; kInvalidTimer for plain events.
    TimerId timer;
    Callback fn;
  };

  /// True when the event at `a` must pop before the event at `b`:
  /// (time, seq) lexicographic — the strict total order that makes every
  /// heap implementation pop in the identical sequence.
  static bool Before(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  SimTime SanitizeTime(SimTime t) const;
  void Push(SimTime t, TimerId timer, Callback fn);
  /// Removes the root event and returns it (callback moved, not copied).
  Event PopTop();
  /// Restores the heap property for the event at `pos` after its key may
  /// have decreased (toward the root) and updates the position index.
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  void MoveInto(size_t pos, Event ev);

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_timer_ = 1;
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
  /// Indexed 4-ary heap: children of i at 4i+1..4i+4, parent at (i-1)/4.
  /// Flatter than a binary heap, so pops touch ~half the cache lines.
  std::vector<Event> heap_;
  /// Heap position of every live cancellable event (plain events are not
  /// tracked — the common case pays nothing for cancellability).
  std::unordered_map<TimerId, size_t> timer_pos_;
};

}  // namespace dsps::sim

#endif  // DSPS_SIM_SIMULATOR_H_
