#pragma once
// Observability lane of the calling thread.
//
// The sharded simulation kernel (sim::ShardEngine) runs S event loops on
// worker threads. Observability sinks that take writes from them (counters,
// histograms, the delta bus, the flight recorder, metrics) are
// lane-striped: each writer thread appends to its own lane, and readers
// fold or walk the lanes in lane order at read time, in the control phase
// while every worker is parked. The delta bus, the flight recorder,
// sim::Metrics and the registry's counters and histograms keep one entry
// per lane, lane 0 included, indexed by CurrentLane().
//
// The lane id lives here, below the rest of obs/, so every sink can route
// on it without depending on the simulator layer. The coordinator thread
// and shard 0 share lane 0 (they never run concurrently — workers are
// parked whenever coordinator code executes), so un-sharded runs never
// see a lane other than 0. A second flag tells the two apart: InWindow()
// is true only on a thread executing a shard window, so a sink that must
// act with every worker parked (the delta bus's spill) can tell when it
// is safe to.

#include <cstdint>

namespace peertrack::obs {

namespace detail {
inline thread_local std::uint32_t tls_lane = 0;
inline thread_local bool tls_window = false;
}  // namespace detail

/// Lane of the calling thread: the shard id inside a parallel window,
/// 0 on the coordinator thread and in un-sharded runs.
inline std::uint32_t CurrentLane() noexcept { return detail::tls_lane; }

/// Set by sim::ShardEngine around each shard window. Not for general use.
inline void SetCurrentLane(std::uint32_t lane) noexcept {
  detail::tls_lane = lane;
}

/// True while the calling thread executes a shard window (other shards may
/// be running); false on the coordinator between windows, in a
/// RunOnShards fan-out and in un-sharded runs.
inline bool InWindow() noexcept { return detail::tls_window; }

/// RAII lane switch; restores the previous lane on scope exit.
/// sim::ShardEngine passes `window` = true around each shard window.
class LaneScope {
 public:
  explicit LaneScope(std::uint32_t lane, bool window = false) noexcept
      : prev_(CurrentLane()), prev_window_(InWindow()) {
    SetCurrentLane(lane);
    detail::tls_window = window;
  }
  ~LaneScope() {
    SetCurrentLane(prev_);
    detail::tls_window = prev_window_;
  }
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  std::uint32_t prev_;
  bool prev_window_;
};

}  // namespace peertrack::obs
