#ifndef DSPS_SIM_SIMULATOR_H_
#define DSPS_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace dsps::sim {

/// Simulated time in seconds.
using SimTime = double;

/// Handle to a cancellable scheduled event: the slot's generation in the
/// high 32 bits, slot + 1 in the low 32. 0 is the invalid handle; events
/// scheduled through the plain Schedule/ScheduleAt API carry no handle.
using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Deterministic single-threaded discrete-event simulator.
///
/// Events are executed in (time, insertion order) order, so two events
/// scheduled for the same instant run in the order they were scheduled —
/// this makes every run exactly reproducible.
///
/// The queue is a 4-ary heap of 24-byte trivially copyable keys
/// (time, seq, slot) in a flat vector; each event's callback waits in a
/// slot-recycling arena beside it, so a sift copies one small key per
/// level and never touches a std::function. Events scheduled via
/// ScheduleCancellable can be removed in O(log n) through a per-slot heap
/// position — their keys leave the heap at once instead of lingering as
/// dud entries.
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
  /// already fired (or is running: a callback cannot cancel itself), was
  /// already cancelled, or the handle is invalid or was never issued.
  /// A handle stays refused after its slot is reused by a later event.
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
  /// One heap entry. `slot` names the event's callback in fns_ (and its
  /// heap position and generation in pos_/gen_); the 4 bytes of padding
  /// are spare.
  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Key>);
  static_assert(sizeof(Key) <= 24);

  /// True when the event at `a` must pop before the event at `b`:
  /// (time, seq) lexicographic — the strict total order that makes every
  /// heap implementation pop in the identical sequence.
  static bool Before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  SimTime SanitizeTime(SimTime t) const;
  /// Parks `fn` in a free slot and pushes its key; returns the event's
  /// handle when `cancellable`, else kInvalidTimer.
  TimerId Push(SimTime t, bool cancellable, Callback fn);
  /// Returns a slot to the free list; its handle (if any) goes stale.
  void FreeSlot(uint32_t slot);
  /// Removes and returns the root key.
  Key PopTop();
  /// Removes the key at heap position `pos`.
  void RemoveAt(size_t pos);
  /// Move the hole at `pos` up (toward the root) or down until `key` fits
  /// there, copying one key per level; every key that moves gets its new
  /// position recorded in pos_.
  void SiftUp(size_t pos, Key key);
  void SiftDown(size_t pos, Key key);
  void Place(size_t pos, const Key& key) {
    heap_[pos] = key;
    pos_[key.slot] = static_cast<uint32_t>(pos);
  }

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  /// Last generation handed to a cancellable event (0 is never handed out).
  uint32_t last_gen_ = 0;
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
  /// 4-ary heap: children of i at 4i+1..4i+4, parent at (i-1)/4. Flatter
  /// than a binary heap, so pops touch ~half the cache lines.
  std::vector<Key> heap_;
  /// The slot arena, indexed by Key::slot: each pending event's callback,
  /// its key's heap position, and its generation — the stamp its
  /// TimerId carries while the event is pending and cancellable; 0 for a
  /// plain event or a free slot, so a fired, cancelled or reused slot
  /// refuses every old handle. Freed slots are recycled LIFO.
  std::vector<Callback> fns_;
  std::vector<uint32_t> pos_;
  std::vector<uint32_t> gen_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace dsps::sim

#endif  // DSPS_SIM_SIMULATOR_H_
