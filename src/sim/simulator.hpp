#pragma once
// Discrete-event simulator core.
//
// Single-threaded by design: one Simulator owns one logical timeline
// (sharded runs give each shard its own; see shard_engine.hpp). Events are
// closures; higher layers (network delivery, protocol timers, workload
// arrivals) all reduce to ScheduleAt/ScheduleAfter.

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"

namespace peertrack::sim {

class Simulator {
 public:
  Time Now() const noexcept { return now_; }

  /// Stable pointer to the clock for observers that stamp records on every
  /// event (the flight recorder) without an accessor call per stamp.
  const Time* NowPtr() const noexcept { return &now_; }

  /// Schedule at absolute simulated time; times in the past are clamped to
  /// Now() (the event still runs, after currently-due events).
  EventHandle ScheduleAt(Time time, util::UniqueFunction<void()> action);

  /// Schedule `delay` milliseconds from Now(). Negative delays clamp to 0.
  EventHandle ScheduleAfter(Time delay, util::UniqueFunction<void()> action);

  /// Run one event. Returns false when the queue is empty.
  bool Step();

  /// Run until the queue drains or `max_events` have fired.
  /// Returns the number of events processed.
  std::uint64_t Run(std::uint64_t max_events =
                        std::numeric_limits<std::uint64_t>::max());

  /// Run events with time <= `until`. The clock ends at exactly `until` if
  /// the queue drained earlier. Returns events processed.
  std::uint64_t RunUntil(Time until);

  /// Conservative-window primitive for ShardEngine: run events with time
  /// < `until` (or <= when `inclusive` — the final partial window of a
  /// bounded run). The clock is left at the last executed event, NOT
  /// parked at `until`: the single-threaded kernel leaves Now() at the
  /// last event after a drain, and the sharded kernel must agree so
  /// coordinator code that schedules "at Now()" between runs sees the
  /// same base time either way. Drain hooks never fire — a window
  /// boundary is not end-of-run; the engine owns quiesce semantics.
  std::uint64_t RunWindow(Time until, bool inclusive);

  /// Park the clock at `t` without running anything (no-op when t <= Now()).
  /// ShardEngine aligns every shard's clock between windows with this.
  /// Precondition: no pending event earlier than `t`.
  void AdvanceClock(Time t) noexcept;

  /// Time of the earliest pending event, or +infinity when the queue is
  /// empty. Lets the sharded engine compute the next global window start
  /// without an emptiness pre-check. Non-const because surfacing the
  /// earliest live record may lazily drop cancelled ones.
  Time NextEventTime() noexcept {
    return queue_.Empty() ? std::numeric_limits<Time>::infinity()
                          : queue_.NextTime();
  }

  /// True while an event's action runs, whichever entrypoint (Step, Run,
  /// RunUntil, RunWindow) dispatched it. Network::RunOnActor reads it to
  /// tell event context from the coordinator phase between runs.
  bool InEvent() const noexcept { return in_event_; }

  std::uint64_t ProcessedEvents() const noexcept { return processed_; }
  std::size_t PendingEvents() const noexcept { return queue_.PendingCount(); }

  /// Drain hooks fire at the end of a Run/RunUntil call that processed at
  /// least one event and left the queue empty — the moment periodic
  /// schedules (which stop rescheduling once the queue would otherwise
  /// drain) can no longer observe. TimeSeriesSampler uses this to flush the
  /// final partial interval. Hooks must not schedule new events.
  using DrainHookId = std::uint64_t;
  DrainHookId AddDrainHook(util::UniqueFunction<void()> hook);
  void RemoveDrainHook(DrainHookId id);

 private:
  struct DrainHook {
    DrainHookId id = 0;
    util::UniqueFunction<void()> fn;
  };

  void FireDrainHooks(std::uint64_t processed_this_call);

  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t processed_ = 0;
  bool in_event_ = false;
  std::vector<DrainHook> drain_hooks_;
  DrainHookId next_drain_hook_ = 1;
};

}  // namespace peertrack::sim
