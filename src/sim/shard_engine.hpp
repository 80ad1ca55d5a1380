#pragma once
// Sharded parallel simulation kernel with conservative time windows.
//
// Actors are partitioned into S shards (splitmix hash of the actor id, with
// explicit pin overrides for tests and colocation). Each shard owns its own
// Simulator — its own EventQueue, clock, and processed-event counter — and
// executes on a dedicated thread: shards 1..S-1 on persistent workers,
// shard 0 on the coordinator thread itself, so S=2 costs one extra thread.
//
// Synchronization is conservative (no rollback). The engine repeatedly:
//   1. computes the global next-event time t across all shard queues and
//      the control-plane queue,
//   2. opens a window [t, w_end) with
//      w_end = min(t + lookahead, next control event, caller bound),
//      where `lookahead` is the LatencyModel's latency floor,
//   3. lets every shard run its events with time < w_end in parallel
//      (an event at exactly w_end belongs to the next window),
//   4. joins at a barrier, then deterministically drains the cross-shard
//      mailboxes into the destination queues.
//
// A cross-shard send issued at time τ inside the window carries latency
// >= floor, so it delivers at τ + floor >= t + floor >= w_end: never into
// the window that produced it. Sends that would still undercut the window
// (a latency model lying about its floor, or zero-latency test traffic)
// are deferred to w_end and counted in LookaheadDeferrals().
//
// Control plane. Coordinator-scheduled events that touch many actors at
// once (invariant scans, graceful-leave settlement, anything keyed off
// TrackingSystem) run on a separate control Simulator. A window never
// crosses the next control event's time: when it is due, every shard is
// parked at exactly that instant and the control events run serially on
// the coordinator thread — cross-actor direct calls are safe there because
// all workers are parked. This preserves the single-threaded semantics of
// "scan sees a globally consistent cut at time T". The one exception is
// the invariant scan's key-partitioned phases: a control event may fan a
// read-only pass out over the parked shard threads with RunOnShards and
// join it before anything mutates again.
//
// Determinism. Windows depend only on event timestamps, never on thread
// timing. Mailboxes are drained in (source shard, send order) order into
// queues that break time ties by push sequence, so destination queues
// receive identical sequence numbers run after run. Every shard executes
// an identical event stream for a given seed and shard count; the final
// state digest matches the single-threaded oracle for any S (see
// tests/sim_shard_differential_test).
//
// Observability. Around each shard window the engine sets the thread's
// obs lane (obs/lane.hpp) to the shard id so lane-striped sinks route
// correctly; their readers walk the lanes in the control phase, with
// every shard parked, or from the window epilogue that runs right after
// each window's barrier.
//
// S=1 is a thread-free pass-through: no workers, no windows, and control()
// is the root simulator itself, so Run/RunUntil are the root's own (drain
// hooks and the heap's FIFO tie order between control and protocol events
// included). Callers never branch on the shard count.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "util/unique_function.hpp"

namespace peertrack::sim {

class ShardEngine {
 public:
  /// Sentinel shard id for the coordinator thread outside any window.
  static constexpr std::uint32_t kCoordinator = 0xFFFFFFFFu;

  /// `root` becomes shard 0 (so the owning system's existing simulator and
  /// everything bound to it — recorder clocks, cached pointers — keeps its
  /// identity); shards 1..S-1 and, for S > 1, the control simulator are
  /// owned by the engine. At S=1 the root doubles as the control simulator.
  /// `lookahead_ms` must be > 0 (the latency floor) when S > 1.
  ShardEngine(Simulator& root, std::size_t shards, double lookahead_ms);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  std::size_t ShardCount() const noexcept { return shards_.size(); }
  double Lookahead() const noexcept { return lookahead_; }

  /// Shard owning `actor`: pinned assignment if set, else hash % S.
  /// Inline: every send and self-timer asks.
  std::uint32_t ShardOf(std::uint32_t actor) const noexcept {
    if (actor < pinned_.size() && pinned_[actor] != 0) {
      return pinned_[actor] - 1;
    }
    return static_cast<std::uint32_t>(SplitMixHash(actor) % shards_.size());
  }

  /// Pin an actor to a shard (tests, colocation experiments). Coordinator
  /// phase only — never while a window is running.
  void PinActor(std::uint32_t actor, std::uint32_t shard);

  Simulator& SimOf(std::uint32_t shard) noexcept { return *shards_[shard]; }
  Simulator& control() noexcept { return *control_; }

  /// Simulator the calling thread schedules on: its shard's during a
  /// parallel window, the control simulator on the coordinator thread.
  Simulator& CurrentSim() noexcept {
    return tls_.sim != nullptr ? *tls_.sim : *control_;
  }

  /// Shard of the calling thread, kCoordinator outside windows.
  std::uint32_t CurrentShard() const noexcept { return tls_.shard; }

  /// True while shard windows are executing on worker threads. Cross-actor
  /// direct calls are only safe when this is false.
  bool InParallelSection() const noexcept {
    return parallel_.load(std::memory_order_relaxed);
  }

  /// Run `fn(s)` once per shard s, on shard s's thread (shard 0 on the
  /// calling coordinator thread), and return when every call is done. Legal
  /// only in the control phase, with every shard parked. Each call runs on
  /// obs lane s. InParallelSection() stays false: the fan-out is for passes
  /// that only read protocol state, so cross-actor reads from it are not
  /// colocation breaches. At S=1 this is `fn(0)` inline.
  void RunOnShards(const std::function<void(std::uint32_t)>& fn);

  /// Run `fn` on the coordinator after every parallel window, once every
  /// worker has parked and before the mailboxes drain — the point where a
  /// consumer of lane-striped sinks may drain them mid-run (the invariant
  /// monitor's staged deltas). `fn` may call RunOnShards. One slot;
  /// nullptr clears it. Coordinator phase only.
  void SetWindowEpilogue(std::function<void()> fn) {
    window_epilogue_ = std::move(fn);
  }

  /// Stage a cross-shard action from inside a parallel window. The source
  /// shard is the calling thread's shard. Deliveries below the current
  /// window end are deferred to it (counted in LookaheadDeferrals).
  void StageCrossShard(std::uint32_t dst_shard, Time deliver,
                       util::UniqueFunction<void()> action);

  /// Run until every shard queue and the control queue drain. All clocks
  /// end parked at the global last-event time. Returns events processed
  /// by this call (across all shards + control).
  std::uint64_t Run();

  /// Run events with time <= `until` (control events at exactly `until`
  /// run before shard events at `until`, matching the single-threaded
  /// schedule order of periodic scans). All clocks park at `until`.
  std::uint64_t RunUntil(Time until);

  /// Global clock: all simulators agree between Run/RunUntil calls.
  Time Now() const noexcept { return control_->Now(); }

  std::uint64_t ProcessedEvents() const noexcept;

  std::uint64_t WindowsExecuted() const noexcept { return windows_; }
  std::uint64_t CrossShardMessages() const noexcept { return cross_msgs_; }
  std::uint64_t LookaheadDeferrals() const noexcept {
    return deferrals_.load(std::memory_order_relaxed);
  }

  /// Bumped by upper layers when a cross-shard *direct* (synchronous) call
  /// is detected inside a parallel window — a colocation-contract breach.
  /// Tests and the bench assert this stays 0.
  void CountCrossShardDirectCall() noexcept {
    cross_direct_calls_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t CrossShardDirectCalls() const noexcept {
    return cross_direct_calls_.load(std::memory_order_relaxed);
  }

 private:
  struct TlsState {
    Simulator* sim = nullptr;
    std::uint32_t shard = kCoordinator;
  };

  struct Staged {
    Time deliver = 0.0;
    util::UniqueFunction<void()> action;
  };

  static constexpr std::uint64_t SplitMixHash(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  std::uint64_t Advance(Time bound, bool inclusive);
  void RunWindowParallel(Time w_end, bool inclusive);
  void RunShardWindow(std::uint32_t shard);
  void ParkShards(Time at);
  void DrainMailboxes();
  void WorkerMain(std::uint32_t shard);

  // constinit: other translation units read it without a TLS-init check.
  static constinit thread_local TlsState tls_;

  std::vector<Simulator*> shards_;           // [0] aliases root
  std::vector<std::unique_ptr<Simulator>> owned_;  // shards 1..S-1
  std::unique_ptr<Simulator> owned_control_;       // null when S=1
  Simulator* control_;                             // root when S=1
  double lookahead_;
  std::vector<std::uint32_t> pinned_;  // actor -> shard + 1, 0 = hash

  // Mailboxes: slot src * S + dst, written only by shard src's thread
  // during a window, drained by the coordinator between windows.
  std::vector<std::vector<Staged>> mail_;

  // Window barrier state (guarded by m_ unless noted).
  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  std::uint32_t pending_ = 0;
  Time window_end_ = 0.0;
  bool window_inclusive_ = false;
  /// Non-null while RunOnShards is fanning out: woken workers run it
  /// instead of a window.
  const std::function<void(std::uint32_t)>* task_ = nullptr;
  bool quit_ = false;
  std::atomic<bool> parallel_{false};
  std::function<void()> window_epilogue_;

  std::uint64_t windows_ = 0;
  std::uint64_t cross_msgs_ = 0;
  std::atomic<std::uint64_t> deferrals_{0};
  std::atomic<std::uint64_t> cross_direct_calls_{0};

  std::vector<std::thread> workers_;
};

}  // namespace peertrack::sim
