#pragma once
// Chord protocol node (Stoica et al., SIGCOMM'01), the overlay the paper
// builds on.
//
// Each ChordNode is a simulated actor with a 160-bit id = SHA1(address).
// It maintains a predecessor, a successor list, and a finger table, and
// resolves keys with *iterative* lookups: the initiator contacts each hop
// itself, which both matches the paper's message accounting and lets the
// tracking layer piggyback "does any intermediate node know this object?"
// checks on the same routing walk (Section IV-B of the paper).
//
// All request/response exchanges (lookup steps, stabilize, ping) go through
// the rpc layer: correlation ids, per-call deadlines, and retry with
// backoff live there. A hop is only treated as dead after a call exhausts
// its retry policy, so transient wire loss no longer evicts live peers.
//
// Application payloads are forwarded to an AppHandler so the tracking layer
// can colocate gateway-index state with the overlay node.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "chord/finger_table.hpp"
#include "chord/messages.hpp"
#include "chord/successor_list.hpp"
#include "chord/types.hpp"
#include "rpc/dispatcher.hpp"
#include "rpc/rpc.hpp"
#include "sim/network.hpp"

namespace peertrack::chord {

class ChordNode final : public sim::Actor {
 public:
  /// Application plug-in living on this overlay node.
  class AppHandler {
   public:
    virtual ~AppHandler() = default;

    /// Non-Chord message addressed to this node.
    virtual void OnAppMessage(sim::ActorId from, std::unique_ptr<sim::Message> message) = 0;

    /// Keys in the ring interval (lo, hi] are now owned by `new_owner`
    /// (a predecessor joined or this node is leaving); the application
    /// should hand matching state over.
    virtual void OnRangeTransfer(const Key& lo, const Key& hi, const NodeRef& new_owner) {
      (void)lo; (void)hi; (void)new_owner;
    }

    /// The local neighborhood changed: the predecessor was adopted or
    /// evicted, or a peer was confirmed dead and scrubbed from the
    /// successor list. Replication layers use this to re-check ownership
    /// (promote replicas) and re-push state to the current successor set.
    virtual void OnNeighborhoodChanged() {}
  };

  struct Options {
    /// Deadline/backoff for every chord RPC (lookup step, stabilize,
    /// ping). A peer is evicted only after a call exhausts this policy.
    rpc::RetryPolicy rpc;
    std::size_t max_lookup_steps = 256; ///< Routing-loop safety valve.
    std::size_t lookup_retries = 3;     ///< Restarts after a dead hop.
    std::size_t successor_list_size = SuccessorList::kDefaultCapacity;
    /// How long a death certificate keeps being gossiped after the original
    /// eviction. Certificates ride StabilizeResponse backward along the
    /// ring (one hop per stabilize round), so the TTL must cover
    /// successor_list_size rounds; the default covers that with a wide
    /// margin. 0 disables the gossip entirely — the pre-scrub behaviour,
    /// where a crashed node can sit in deep successor-list slots of nodes
    /// that never probe it (kept for the regression test).
    double death_cert_ttl_ms = 30'000.0;
  };

  /// Registers itself with the network. `address` determines the ring id.
  ChordNode(sim::Network& network, std::string address, Options options);
  ChordNode(sim::Network& network, std::string address)
      : ChordNode(network, std::move(address), Options{}) {}

  ChordNode(const ChordNode&) = delete;
  ChordNode& operator=(const ChordNode&) = delete;

  const NodeRef& Self() const noexcept { return self_; }
  const std::string& Address() const noexcept { return address_; }
  const std::optional<NodeRef>& Predecessor() const noexcept { return predecessor_; }

  /// Current immediate successor; Self() on a single-node ring.
  NodeRef Successor() const noexcept;

  bool Alive() const noexcept { return alive_; }

  void SetAppHandler(AppHandler* handler) noexcept { app_ = handler; }

  sim::Network& network() noexcept { return network_; }
  FingerTable& fingers() noexcept { return fingers_; }
  const FingerTable& fingers() const noexcept { return fingers_; }
  SuccessorList& successors() noexcept { return successors_; }
  const SuccessorList& successors() const noexcept { return successors_; }

  // --- Membership -----------------------------------------------------

  /// Become the first node of a new ring.
  void CreateRing();

  /// Join via `bootstrap`; `on_joined` fires once the successor is known.
  void Join(const NodeRef& bootstrap, std::function<void()> on_joined = {});

  /// Graceful departure: hands the owned key range to the successor (via
  /// AppHandler::OnRangeTransfer), informs neighbours, and goes down.
  void Leave();

  /// Crash without any notification (for failure experiments). Outstanding
  /// RPCs are abandoned silently.
  void Crash();

  /// Begin periodic stabilize/fix-fingers timers.
  void StartMaintenance(double stabilize_every_ms, double fix_fingers_every_ms);

  // --- Routing ----------------------------------------------------------

  using LookupCallback = std::function<void(const NodeRef& owner, std::size_t hops)>;

  /// Resolve the successor of `key`. `hops` counts remote routing steps
  /// (0 when answered locally). On unrecoverable failure the callback gets
  /// an invalid NodeRef.
  void Lookup(const Key& key, LookupCallback callback) {
    Lookup(key, obs::TraceContext{}, std::move(callback));
  }

  /// Same, within a causal trace: the lookup opens a "chord.lookup" span
  /// under `parent` (or as a new root when parent is invalid and tracing
  /// is on) and every step RPC becomes a child attempt span.
  void Lookup(const Key& key, const obs::TraceContext& parent, LookupCallback callback);

  /// One local routing decision for `key`: done (with the owner) or the
  /// next node to ask. Exposed so higher layers can drive their own
  /// iterative walks with protocol-specific payloads.
  struct RouteStep {
    bool done = false;
    NodeRef node;
  };
  RouteStep NextRouteStep(const Key& key) const;

  /// True if this node currently owns `key` (key in (predecessor, self]).
  /// With no predecessor the node claims the whole ring.
  bool Owns(const Key& key) const noexcept;

  // --- Oracle bootstrap (ChordRing / tests) -----------------------------

  /// Install exact routing state directly. Used to stand up large rings
  /// without simulating thousands of maintenance rounds.
  void OracleWire(std::optional<NodeRef> predecessor, std::vector<NodeRef> successor_list);
  void OracleSetFinger(unsigned index, const NodeRef& node) {
    fingers_.Set(index, node);
    PublishDelta(
        obs::StateDelta::Ring(obs::DeltaKind::kRingFinger, self_.actor));
  }
  void MarkAlive() {
    alive_ = true;
    PublishDelta(obs::StateDelta::Ring(obs::DeltaKind::kMembership, self_.actor));
  }

  // --- Actor ------------------------------------------------------------

  void OnMessage(sim::ActorId from, std::unique_ptr<sim::Message> message) override;

 private:
  struct PendingLookup {
    Key key;
    LookupCallback callback;
    std::size_t hops = 0;
    std::size_t steps = 0;
    std::size_t retries = 0;
    NodeRef current;         ///< Hop currently being queried.
    rpc::CallId call = 0;    ///< In-flight step RPC.
    obs::TraceContext span;  ///< "chord.lookup" span (invalid when untraced).
  };

  void RegisterHandlers();

  std::unique_ptr<LookupStepResponse> HandleLookupStep(const LookupStepRequest& request);
  void HandleLookupResponse(std::uint64_t lookup_id, const LookupStepResponse& response);
  void LookupSendStep(std::uint64_t lookup_id, const NodeRef& target);
  void LookupStepTimedOut(std::uint64_t lookup_id);
  void FinishLookup(std::uint64_t lookup_id, const NodeRef& owner);
  void RestartLookup(std::uint64_t lookup_id);

  void HandleStabilizeResponse(const StabilizeResponse& response);
  void HandleNotify(const NotifyMessage& notify);
  void HandleLeave(const LeaveNotice& notice);

  void DoStabilize();
  void DoFixFingers();
  void DoCheckPredecessor();
  void ScheduleMaintenance();

  void AdoptPredecessor(const NodeRef& candidate);
  void EvictPeer(const NodeRef& peer);
  /// Merge a gossiped certificate: evict the peer and keep re-gossiping the
  /// certificate (with its original timestamp) until the TTL expires.
  void AdoptDeathCertificate(const DeathCertificate& cert);
  /// Certificates still within the TTL, pruned in place.
  const std::vector<DeathCertificate>& FreshDeathCertificates();
  void NotifyNeighborhoodChanged();
  bool IsConfirmedDead(const NodeRef& peer) const {
    return confirmed_dead_.contains(peer.actor);
  }

  // Mutation-delta publication for incremental invariant auditing. The
  // successor list is its own choke point (bound in the ctor); these cover
  // liveness, predecessor, and finger mutations.
  void PublishDelta(const obs::StateDelta& delta) const {
    obs::StateDeltaBus& bus = network_.delta_bus();
    if (bus.Active()) bus.Publish(delta);
  }
  void PublishMembership() const {
    PublishDelta(obs::StateDelta::Ring(obs::DeltaKind::kMembership, self_.actor));
  }
  void PublishNeighbors() const {
    PublishDelta(obs::StateDelta::Ring(obs::DeltaKind::kRingNeighbors, self_.actor));
  }

  sim::Network& network_;
  std::string address_;
  NodeRef self_;
  Options options_;

  rpc::Dispatcher dispatcher_;
  rpc::RpcClient rpc_;
  rpc::RpcServer server_;

  bool alive_ = false;
  std::optional<NodeRef> predecessor_;
  SuccessorList successors_;
  FingerTable fingers_;
  AppHandler* app_ = nullptr;

  std::uint64_t next_lookup_id_ = 1;
  std::unordered_map<std::uint64_t, PendingLookup> pending_lookups_;

  /// Cached instrument references (resolved once; valid across
  /// Metrics::Reset, which zeroes in place — see sim::Metrics).
  obs::Counter& ctr_successor_failover_;
  obs::Counter& ctr_predecessor_evicted_;
  obs::Counter& ctr_lookup_hop_timeout_;
  obs::Counter& ctr_death_cert_scrub_;

  // Peers this node has seen depart or time out. Gossiped routing state
  // (merged successor lists, stale finger owners) is filtered against this
  // set so confirmed-dead peers cannot re-enter local tables. Actor ids
  // are never reused in a simulation, so the set is monotone-safe.
  std::unordered_set<sim::ActorId> confirmed_dead_;

  // Certificates this node still gossips (first-hand evictions plus
  // adopted ones, each with the *original* eviction time so propagation is
  // TTL-bounded, not TTL-per-hop). Pruned lazily by FreshDeathCertificates.
  std::vector<DeathCertificate> death_certs_;

  // Stabilize / check_predecessor in flight (one at a time each).
  bool stabilize_inflight_ = false;
  NodeRef stabilize_target_;
  bool ping_inflight_ = false;
  NodeRef ping_target_;

  double stabilize_every_ms_ = 0.0;
  double fix_fingers_every_ms_ = 0.0;
  unsigned next_finger_ = 0;
  std::function<void()> on_joined_;
};

}  // namespace peertrack::chord
