#pragma once
// TrackingSystem — the top-level facade a downstream user instantiates.
//
// Owns the full stack for one simulated traceable network: event simulator,
// latency model, network, Chord ring, one TrackerNode per organization, the
// ground-truth oracle, and the global prefix-length state. Also implements
// PeerDirectory (gateway address resolution for the cached-address RPCs).
//
// Typical use (see examples/quickstart.cpp):
//   TrackingSystem system(64, config);
//   system.CaptureAt(3, obj, 10.0);     // receptor at node 3 reads obj
//   system.Run();                        // drain the event queue
//   system.TraceQuery(0, obj.Key(), cb); // "where has obj been?"
//   system.Run();

#include <memory>
#include <unordered_map>
#include <string>
#include <vector>

#include "chord/chord_ring.hpp"
#include "moods/oracle.hpp"
#include "tracking/tracker_node.hpp"

namespace peertrack::tracking {

struct SystemConfig {
  TrackerConfig tracker;
  PrefixScheme scheme = PrefixScheme::kLogNLogLogN;
  std::string latency = "constant:5";  ///< Paper: 5 ms per network message.
  std::uint64_t seed = 0x9e2fULL;
  /// 0 disables Chord maintenance (the experiments run on a converged,
  /// oracle-wired ring, matching the paper's static evaluation setup).
  double stabilize_every_ms = 0.0;
  double fix_fingers_every_ms = 0.0;
  /// Partition actors across this many shard threads (sim::ShardEngine).
  /// 1 = the engine's thread-free pass-through on one simulator; >= 2 runs
  /// conservative parallel windows whose lookahead is the latency model's
  /// floor. Every actor draws from its own RNG stream at any value, so
  /// final-state digests match the S=1 oracle for any value
  /// (tests/sim_shard_differential_test).
  std::size_t shards = 1;
};

class TrackingSystem final : public PeerDirectory {
 public:
  /// Build a converged network of `nodes` organizations.
  TrackingSystem(std::size_t nodes, SystemConfig config);
  ~TrackingSystem() override;

  TrackingSystem(const TrackingSystem&) = delete;
  TrackingSystem& operator=(const TrackingSystem&) = delete;

  std::size_t NodeCount() const noexcept { return trackers_.size(); }
  TrackerNode& Tracker(std::size_t index) { return *trackers_[index]; }
  chord::ChordRing& ring() noexcept { return *ring_; }
  /// The root simulator: shard 0, and also the control simulator at S=1.
  /// Drive runs through Run/RunUntil; at S>1 running the root alone runs
  /// shard 0 only.
  sim::Simulator& simulator() noexcept { return simulator_; }
  /// The simulation kernel (owned by the network; never null).
  sim::ShardEngine* engine() noexcept { return &network_->engine(); }
  const sim::ShardEngine* engine() const noexcept {
    return &network_->engine();
  }
  /// Simulator for coordinator-plane periodic work (invariant scans, the
  /// monitor's BoundedPeriodicSchedule): the engine's control simulator
  /// (the one simulator at S=1). Handlers run with every shard parked, so
  /// cross-actor reads see a globally consistent cut.
  sim::Simulator& MonitorSimulator() noexcept {
    return network_->ControlSimulator();
  }
  /// Events processed across the whole system (all shards + control).
  std::uint64_t ProcessedEvents() const noexcept {
    return network_->engine().ProcessedEvents();
  }
  sim::Network& network() noexcept { return *network_; }
  sim::Metrics& metrics() noexcept { return network_->metrics(); }
  util::Rng& rng() noexcept { return rng_; }
  moods::TrajectoryOracle& oracle() noexcept { return oracle_; }
  unsigned CurrentLp() const noexcept { return global_lp_.lp; }
  const SystemConfig& config() const noexcept { return config_; }

  // --- Workload ----------------------------------------------------------

  /// Schedule a capture of `object` at node `node_index` at simulated time
  /// `at`, and record it in the ground-truth oracle.
  void CaptureAt(std::size_t node_index, const hash::UInt160& object, moods::Time at);

  /// Close all open capture windows (end of a workload phase) and drain.
  void FlushAllWindows();

  /// Drain the event queue (all shard queues + control when sharded).
  void Run() { network_->engine().Run(); }
  void RunUntil(moods::Time t) { network_->engine().RunUntil(t); }

  // --- Queries -------------------------------------------------------------

  void TraceQuery(std::size_t origin_index, const hash::UInt160& object,
                  TrackerNode::TraceCallback callback);

  /// Index-free flooding trace query (baseline; O(N) messages).
  void FloodTraceQuery(std::size_t origin_index, const hash::UInt160& object,
                       FloodingQueryEngine::Callback callback);
  void LocateQuery(std::size_t origin_index, const hash::UInt160& object,
                   TrackerNode::LocateCallback callback);

  // --- Membership / Lp management ------------------------------------------

  /// Recompute the scheme's Lp for the current alive node count; on change,
  /// broadcast to all trackers (triggering split/merge). Returns new Lp.
  unsigned RecomputePrefixLength();

  /// Add `extra` organizations to a running network. Each new node is wired
  /// into the (oracle-converged) ring and the previous owner of its key
  /// range hands matching index state over — the same migration a protocol
  /// join triggers via notify/OnRangeTransfer. Call RecomputePrefixLength()
  /// afterwards to let Lp react (split cascade).
  void GrowNetwork(std::size_t extra);

  /// Protocol-level join (churn extension; see DESIGN.md §8): one new
  /// organization joins through the Chord join protocol — no oracle
  /// wiring. Requires maintenance timers in the config; the caller
  /// advances the simulator to let stabilization integrate the node (and
  /// ownership handoff happens through notify/OnRangeTransfer). Returns
  /// the new node's index.
  std::size_t ProtocolJoinNode();

  /// Graceful departure of node `index`: starts the two-phase leave
  /// (rehome on-premise objects at the successor now, hand state over
  /// after the settle delay) and mirrors the rehoming into the oracle.
  TrackerNode::LeaveSummary LeaveNode(std::size_t index);

  /// Crash node `index` without notice. A node crashed mid-leave never
  /// counts as gracefully departed.
  void CrashNode(std::size_t index);

  /// Map an overlay actor id back to the experiment's node index
  /// (kNowhere when unknown) — used to validate against the oracle.
  moods::NodeIndex NodeIndexOfActor(sim::ActorId actor) const;

  /// Per-node gateway load (objects indexed), for the Fig. 8a curves.
  std::vector<std::uint64_t> IndexLoadPerNode() const;

  /// Per-node stored index entries.
  std::vector<std::uint64_t> StoredEntriesPerNode() const;

  // --- PeerDirectory ---------------------------------------------------------

  TrackerNode* TrackerByActor(sim::ActorId actor) override;
  TrackerNode* OwnerOf(const chord::Key& key) override;
  bool KnowsActor(sim::ActorId actor) override;
  sim::ActorId OwnerActorOf(const chord::Key& key) override;

 private:
  /// Ground-truth movement delta (kObjectTruth) for incremental auditing.
  void PublishObjectTruth(const hash::UInt160& object, moods::Time at);

  void MapActor(sim::ActorId actor, moods::NodeIndex index) {
    if (index_of_actor_.size() <= actor) {
      index_of_actor_.resize(actor + 1, moods::kNowhere);
    }
    index_of_actor_[actor] = index;
  }

  SystemConfig config_;
  util::Rng rng_;
  sim::Simulator simulator_;
  std::unique_ptr<sim::LatencyModel> latency_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<chord::ChordRing> ring_;
  GlobalPrefixState global_lp_;
  std::vector<std::unique_ptr<TrackerNode>> trackers_;
  std::vector<sim::ActorId> actor_of_index_;
  /// Dense actor->index table (ActorId is the network's sequential actor
  /// slot, so a vector beats a hash map on the monitor's hottest lookup).
  std::vector<moods::NodeIndex> index_of_actor_;
  moods::TrajectoryOracle oracle_;
};

}  // namespace peertrack::tracking
