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
// see a lane other than 0.

#include <cstdint>

namespace peertrack::obs {

namespace detail {
inline thread_local std::uint32_t tls_lane = 0;
}  // namespace detail

/// Lane of the calling thread: the shard id inside a parallel window,
/// 0 on the coordinator thread and in un-sharded runs.
inline std::uint32_t CurrentLane() noexcept { return detail::tls_lane; }

/// Set by sim::ShardEngine around each shard window. Not for general use.
inline void SetCurrentLane(std::uint32_t lane) noexcept {
  detail::tls_lane = lane;
}

/// RAII lane switch; restores the previous lane on scope exit.
class LaneScope {
 public:
  explicit LaneScope(std::uint32_t lane) noexcept : prev_(CurrentLane()) {
    SetCurrentLane(lane);
  }
  ~LaneScope() { SetCurrentLane(prev_); }
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  std::uint32_t prev_;
};

}  // namespace peertrack::obs
