#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>

namespace peertrack::sim {

EventHandle Simulator::ScheduleAt(Time time, util::UniqueFunction<void()> action) {
  return queue_.Push(std::max(time, now_), std::move(action));
}

EventHandle Simulator::ScheduleAfter(Time delay, util::UniqueFunction<void()> action) {
  return ScheduleAt(now_ + std::max(delay, 0.0), std::move(action));
}

bool Simulator::Step() {
  if (queue_.Empty()) return false;
  auto entry = queue_.Pop();
  now_ = entry.time;
  ++processed_;
  in_event_ = true;
  entry.action();
  in_event_ = false;
  return true;
}

std::uint64_t Simulator::Run(std::uint64_t max_events) {
  std::uint64_t count = 0;
  while (count < max_events && Step()) ++count;
  FireDrainHooks(count);
  return count;
}

std::uint64_t Simulator::RunUntil(Time until) {
  std::uint64_t count = 0;
  while (!queue_.Empty() && queue_.NextTime() <= until) {
    auto entry = queue_.Pop();
    now_ = entry.time;
    ++processed_;
    ++count;
    in_event_ = true;
    entry.action();
    in_event_ = false;
  }
  now_ = std::max(now_, until);
  FireDrainHooks(count);
  return count;
}

std::uint64_t Simulator::RunWindow(Time until, bool inclusive) {
  std::uint64_t count = 0;
  while (!queue_.Empty()) {
    const Time next = queue_.NextTime();
    if (inclusive ? next > until : next >= until) break;
    auto entry = queue_.Pop();
    now_ = entry.time;
    ++processed_;
    ++count;
    in_event_ = true;
    entry.action();
    in_event_ = false;
  }
  return count;
}

void Simulator::AdvanceClock(Time t) noexcept {
  assert(queue_.Empty() || queue_.NextTime() >= t);
  now_ = std::max(now_, t);
}

Simulator::DrainHookId Simulator::AddDrainHook(
    util::UniqueFunction<void()> hook) {
  const DrainHookId id = next_drain_hook_++;
  drain_hooks_.push_back(DrainHook{id, std::move(hook)});
  return id;
}

void Simulator::RemoveDrainHook(DrainHookId id) {
  for (auto it = drain_hooks_.begin(); it != drain_hooks_.end(); ++it) {
    if (it->id == id) {
      drain_hooks_.erase(it);
      return;
    }
  }
}

void Simulator::FireDrainHooks(std::uint64_t processed_this_call) {
  // Only a call that actually advanced the simulation into an empty queue
  // counts as a drain: RunUntil stopping at its bound, and the no-op Run()
  // calls a per-query driver issues against an already-drained queue, must
  // not refire the hooks.
  if (processed_this_call == 0 || !queue_.Empty() || drain_hooks_.empty()) {
    return;
  }
  for (DrainHook& hook : drain_hooks_) hook.fn();
}

}  // namespace peertrack::sim
