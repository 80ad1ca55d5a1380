#pragma once
// TrackerNode — the per-organization traceability node (the paper's core).
//
// One TrackerNode sits on top of one ChordNode and implements:
//  * capture handling: receptors feed arrivals; IOP visits are recorded
//    locally (Section II-C);
//  * individual indexing (Section III): every arrival is reported to the
//    object's gateway = successor(SHA1(object id)), which maintains the
//    latest-location index and issues the M2/M3 IOP updates;
//  * group indexing (Section IV-A): arrivals buffer in an adaptive window
//    (Tmax/Nmax) and one report per prefix group is routed to the group's
//    gateway = successor(SHA1(prefix string));
//  * the Data Triangle (Section IV-A2): delegation of the oldest α·|bucket|
//    entries to the two child prefixes, refresh_from_descent during index
//    persistence, and splitting/merging when the global prefix length
//    changes;
//  * query processing (Section IV-B): iterative routing toward the gateway
//    with intermediate-node interception, then an IOP walk along the
//    distributed doubly-linked list.
//
// Index-persistence RPCs between gateways (fetch/delegate/split/merge) are
// executed as direct calls through a PeerDirectory while their wire cost is
// charged to the metrics explicitly; the paper notes parent/child gateway
// addresses are cached, so each such exchange costs one request and one
// response message, which is exactly what we charge.

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "chord/chord_node.hpp"
#include "moods/iop.hpp"
#include "moods/receptor.hpp"
#include "rpc/dispatcher.hpp"
#include "rpc/rpc.hpp"
#include "tracking/gateway_index.hpp"
#include "tracking/grouping.hpp"
#include "tracking/flooding.hpp"
#include "tracking/messages.hpp"
#include "tracking/prefix_scheme.hpp"

namespace peertrack::tracking {

enum class IndexingMode { kIndividual, kGroup };

struct TrackerConfig {
  IndexingMode mode = IndexingMode::kGroup;
  CaptureWindow::Limits window;
  unsigned lmin = 2;                      ///< Floor for Lp (paper's Lmin).
  double alpha = 0.5;                     ///< Delegated fraction per overflow.
  std::size_t delegation_threshold = 4096;///< Bucket size that triggers delegation.
  bool enable_triangle = true;            ///< Data-Triangle machinery on/off.
  double query_timeout_ms = 60000.0;      ///< Global per-query safety net on
                                          ///< top of per-RPC deadlines.
  /// Deadline/backoff for every query-side RPC (trace probes, IOP walk
  /// steps, flood probes). A step that exhausts this policy fails the
  /// query to its callback instead of hanging.
  rpc::RetryPolicy rpc;
  /// Extension (not in the paper): mirror every gateway index update to
  /// the gateway's first `replication_factor` ring successors. When the
  /// gateway crashes, Chord makes the nearest surviving successor the key's
  /// new owner, which promotes its replica — so L(o, t) keeps resolving.
  /// Updates buffer for 100 ms (see ArmReplicaFlush), then go out as one
  /// acknowledged push per replica target.
  bool replicate_index = false;
  /// Replica targets per gateway (only used when replicate_index). R=2
  /// survives a gateway crash plus one concurrent successor crash.
  std::size_t replication_factor = 2;
  /// Delay between BeginLeave (which rehomes on-premise objects at the
  /// successor) and the final state handoff. Must cover the capture window
  /// Tmax plus a few network round-trips, so the rehoming M2/M3 updates
  /// land while the departing node can still receive them.
  double leave_settle_ms = 2500.0;
};

/// Network-wide prefix length, shared by reference across all trackers
/// (the paper assumes a global Lp derived from the estimated Nn).
struct GlobalPrefixState {
  unsigned lp = 4;
};

class TrackerNode;

/// Resolver for direct-call RPCs between gateways. Implemented by
/// TrackingSystem from the ring oracle; the paper's justification is that
/// gateway/parent/child addresses are cached after first resolution.
class PeerDirectory {
 public:
  virtual ~PeerDirectory() = default;
  virtual TrackerNode* TrackerByActor(sim::ActorId actor) = 0;
  /// Tracker on the node currently owning `key` (never null while any node
  /// is alive).
  virtual TrackerNode* OwnerOf(const chord::Key& key) = 0;
  /// Whether `actor` resolves to a tracker. Reads only membership state
  /// that is stable inside a run, so — unlike TrackerByActor, which
  /// asserts shard colocation — it is safe from any shard mid-window.
  virtual bool KnowsActor(sim::ActorId actor) = 0;
  /// Actor of the node currently owning `key` (sim::kInvalidActor when no
  /// node is alive). Identity-only twin of OwnerOf for call sites that
  /// stage the actual state access onto the owner's shard.
  virtual sim::ActorId OwnerActorOf(const chord::Key& key) = 0;
};

class TrackerNode final : public chord::ChordNode::AppHandler {
 public:
  TrackerNode(chord::ChordNode& chord, PeerDirectory& peers,
              GlobalPrefixState& global_lp, TrackerConfig config);

  TrackerNode(const TrackerNode&) = delete;
  TrackerNode& operator=(const TrackerNode&) = delete;

  chord::ChordNode& chord() noexcept { return chord_; }
  const chord::NodeRef& Self() const noexcept { return chord_.Self(); }
  const TrackerConfig& config() const noexcept { return config_; }
  const moods::IopStore& iop() const noexcept { return iop_; }

  /// Create a receptor feeding this node (reads become captures).
  moods::Receptor& AddReceptor(std::string name);

  // --- Capture path -----------------------------------------------------

  /// An object was captured at this node at simulated time `at`. Records
  /// the IOP visit and triggers (or buffers) indexing.
  void OnCapture(const moods::Object& object, moods::Time at);
  void OnCapture(const hash::UInt160& object_key, moods::Time at);

  /// Force-close the capture window (used at end of a workload phase; the
  /// Tmax timer does this in steady state).
  void FlushWindow();

  // --- Graceful departure (churn extension; see DESIGN.md §8) -----------

  struct LeaveSummary {
    bool left = false;         ///< Departure initiated (was alive, not leaving).
    chord::NodeRef successor;  ///< Heir at BeginLeave time.
    std::size_t rehomed = 0;   ///< On-premise objects recaptured at the heir.
  };
  /// Phase 1 of the two-phase leave: flush the capture window, recapture
  /// every on-premise object at the ring successor (so the index and the
  /// IOP chain extend to a live node), and schedule FinishLeave after
  /// `leave_settle_ms`. The second phase repoints every IOP link at this
  /// node to the heir, hands over IOP/replica/delegation state, and runs
  /// the Chord leave (which migrates the gateway index).
  LeaveSummary BeginLeave();
  bool Leaving() const noexcept { return leaving_; }
  /// True once the full handoff completed; the invariant monitor's
  /// handoff.complete check asserts no live state references such a node.
  bool LeftGracefully() const noexcept { return left_gracefully_; }

  /// Direct-call handoff surface, used by a departing predecessor (wire
  /// cost charged by the caller via ChargeRpc).
  void AdoptIopRecords(
      std::vector<std::pair<hash::UInt160, std::vector<moods::Visit>>> records);
  void AdoptDelegationMarkers(const std::set<hash::Prefix>& prefixes);
  void AdoptReplicaRecords(
      std::vector<std::pair<hash::UInt160, ReplicaRecord>> records);

  // --- Queries ----------------------------------------------------------

  struct TraceStep {
    chord::NodeRef node;
    moods::Time arrived = 0.0;
  };
  struct TraceResult {
    bool ok = false;            ///< Object found and walk completed.
    std::vector<TraceStep> path;///< Visits sorted by arrival time.
    /// The IOP walk hit a dead link (a visit pointing at a node that could
    /// not produce the referenced record) and degraded to a partial path.
    /// `ok` stays true when some steps were collected, so callers must
    /// check this flag to tell a partial path from a complete one.
    bool chain_broken = false;
    moods::Time issued_at = 0.0;
    moods::Time completed_at = 0.0;
    std::size_t probe_hops = 0; ///< Routing probes before an answerer was found.
    double DurationMs() const noexcept { return completed_at - issued_at; }
  };
  using TraceCallback = std::function<void(TraceResult)>;

  /// TR(o): full-lifetime trace query issued from this node.
  void TraceQuery(const hash::UInt160& object, TraceCallback callback);

  struct LocateResult {
    bool ok = false;
    chord::NodeRef node;
    moods::Time arrived = 0.0;
    moods::Time issued_at = 0.0;
    moods::Time completed_at = 0.0;
    double DurationMs() const noexcept { return completed_at - issued_at; }
  };
  using LocateCallback = std::function<void(LocateResult)>;

  /// L(o, now): current location via the gateway index.
  void LocateQuery(const hash::UInt160& object, LocateCallback callback);

  /// Index-free baseline: broadcast the trace query to every organization
  /// (the flooding approach the paper's design avoids; used by the
  /// `ablation_flooding` benchmark). Membership comes from the system via
  /// flooding().SetMembership().
  FloodingQueryEngine& flooding() noexcept { return flood_; }

  // --- Gateway-to-gateway RPC surface (direct calls, cost pre-charged by
  // the caller via ChargeRpc) ---------------------------------------------

  struct FetchResult {
    bool bucket_exists = false;
    std::vector<std::pair<hash::UInt160, IndexEntry>> entries;
  };
  /// Look up (and optionally remove) entries for `objects` in the bucket
  /// for `prefix`.
  FetchResult FetchEntries(const hash::Prefix& prefix,
                           std::span<const hash::UInt160> objects, bool remove);

  /// Receive entries delegated/split/merged into the bucket for `prefix`.
  /// Delegation deliveries (`as_delegation`) may live at Lp+1 (the child
  /// level of the triangle); every other delivery is normalized to exactly
  /// Lp via split/merge cascades, so entries can never strand at a level
  /// no gateway probes.
  void AcceptEntries(const hash::Prefix& prefix,
                     std::vector<std::pair<hash::UInt160, IndexEntry>> entries,
                     bool as_delegation = false);

  /// Receive individual-mode entries (churn migration).
  void AcceptIndividualEntries(
      std::vector<std::pair<hash::UInt160, IndexEntry>> entries);

  /// Global Lp changed: split/merge owned buckets to the new shape.
  void OnPrefixLengthChanged(unsigned new_lp);

  // --- AppHandler ---------------------------------------------------------

  void OnAppMessage(sim::ActorId from, std::unique_ptr<sim::Message> message) override;
  void OnRangeTransfer(const chord::Key& lo, const chord::Key& hi,
                       const chord::NodeRef& new_owner) override;
  void OnNeighborhoodChanged() override;

  // --- Introspection ------------------------------------------------------

  /// Objects this node has processed as a gateway (Fig. 8a's load measure).
  std::uint64_t ObjectsIndexed() const noexcept { return objects_indexed_; }
  /// Replicated entries held on behalf of the predecessor gateway.
  std::size_t ReplicaEntries() const noexcept { return replica_.Size(); }
  /// Index entries currently stored here (all buckets + individual).
  std::size_t StoredIndexEntries() const {
    return store_.TotalEntries() + individual_.Size();
  }
  const PrefixIndexStore& prefix_store() const noexcept { return store_; }
  /// Individual-mode gateway map (read-only; invariant monitor scans).
  const PrefixBucket& individual_index() const noexcept { return individual_; }
  /// Replica records (read-only; gateway.replication check scans).
  const ReplicaStore& replica_store() const noexcept { return replica_; }
  std::uint64_t WindowsFlushed() const noexcept { return window_.WindowsClosed(); }

  // --- Fault injection (tests only) ---------------------------------------
  // Mutable views of the stores the invariant monitor audits, so seeded-
  // corruption tests can break a to-link, stale a gateway entry, or drop a
  // delegated record and assert the matching check fires. Protocol code
  // must never touch these.
  moods::IopStore& mutable_iop() noexcept { return iop_; }
  PrefixBucket& mutable_individual_index() noexcept { return individual_; }
  PrefixIndexStore& mutable_prefix_store() noexcept { return store_; }

 private:
  friend class TrackingSystem;

  // Capture/indexing (tracker_node.cpp).
  void IndexIndividually(const hash::UInt160& object, moods::Time at);
  void BufferForGroupIndexing(const hash::UInt160& object, moods::Time at);
  void ArmWindowTimer();
  void RoutedSend(const chord::Key& target, std::unique_ptr<sim::Message> inner);
  void DispatchInner(std::unique_ptr<sim::Message> inner);
  void HandleEnvelope(std::unique_ptr<RoutedEnvelope> envelope);
  void HandleObjectArrival(const ObjectArrival& arrival);
  void HandleGroupArrival(const GroupArrival& arrival);
  void HandleIopTo(const IopToUpdate& update);
  void HandleIopFrom(const IopFromUpdate& update);
  std::unique_ptr<ReplicaAck> HandleReplica(const ReplicaUpdate& update);
  void HandleReplicaErase(const ReplicaErase& erase);
  void HandleIopRepoint(const IopRepoint& update);
  /// Buffer freshly-updated entries for the next replica flush.
  void ReplicateEntries(const std::vector<ReplicaUpdate::Item>& items);
  /// Arm the replica flush timer unless a flush is already due.
  void ArmReplicaFlush();
  /// Push the buffered entries — or, when anti-entropy asked for it, the
  /// whole index — as one acknowledged ReplicaUpdate per current replica
  /// target. A crashed node drops the buffer and sends nothing.
  void FlushReplicas();
  /// First `replication_factor` distinct successor-list entries (excluding
  /// self) — the nodes that inherit this gateway's keys on a crash.
  std::vector<chord::NodeRef> ReplicaTargets() const;
  /// Tell replica holders these entries left this gateway (delegation).
  void SendReplicaErase(std::vector<hash::UInt160> objects);
  /// Move replica records whose gateway key this node now owns into the
  /// authoritative index (successor promotion after a crash).
  void PromoteOwnedReplicas();
  /// Make the next replica flush push the full index state; re-protects
  /// the index after the successor set changes (join, crash, scrub).
  void ScheduleAntiEntropy();
  void FinishLeave();
  /// Announce graceful-handoff completion on the mutation-delta bus: the
  /// handoff.complete check only has work to do once some node departed.
  void PublishHandoffFinished() const {
    obs::StateDeltaBus& bus = chord_.network().delta_bus();
    if (bus.Active()) {
      bus.Publish(obs::StateDelta::Ring(obs::DeltaKind::kHandoffFinished,
                                        Self().actor));
    }
  }
  /// Replica fall-through used by gateway lookups after a crash.
  const IndexEntry* ReplicaLookup(const hash::UInt160& object) const {
    return replica_.Find(object);
  }
  unsigned CurrentLp() const noexcept { return global_lp_.lp; }

  // Data triangle (data_triangle.cpp).
  void RefreshFromDescent(std::vector<hash::UInt160>& unknown,
                          const hash::Prefix& prefix, PrefixBucket& bucket,
                          std::size_t depth);
  void MaybeDelegate(const hash::Prefix& prefix, PrefixBucket& bucket);
  void DeliverEntries(const hash::Prefix& prefix,
                      std::vector<std::pair<hash::UInt160, IndexEntry>> entries,
                      std::string_view charge_type, bool as_delegation = false);
  /// Charge one request/response pair to the metrics (addresses cached per
  /// the paper, so no routing hops).
  void ChargeRpc(std::string_view request_type, std::size_t request_bytes,
                 std::string_view response_type, std::size_t response_bytes,
                 sim::ActorId peer);
  /// Query-time index lookup across the triangle (local bucket, then
  /// parent, then children). Does not move entries.
  const IndexEntry* TriangleLookup(const hash::UInt160& object, unsigned lp);

  // Query engine (query.cpp).
  struct PendingQuery {
    hash::UInt160 object;
    chord::Key target;
    bool locate_only = false;
    TraceCallback trace_callback;
    LocateCallback locate_callback;
    moods::Time issued_at = 0.0;
    std::size_t probe_steps = 0;
    chord::NodeRef probe_current;
    // Walk state: collected steps + cursors.
    std::map<moods::Time, chord::NodeRef> steps;
    bool walking_backward = false;
    chord::NodeRef walk_node;
    moods::Time walk_arrived = 0.0;
    bool forward_pending = false;
    chord::NodeRef forward_node;
    moods::Time forward_arrived = 0.0;
    bool chain_broken = false;  ///< A walk step hit a dead link / timeout.
    rpc::CallId call = 0;  ///< In-flight probe/walk RPC.
    sim::EventHandle timeout;
    obs::TraceContext span;   ///< Root "query.trace"/"query.locate" span.
    obs::TraceContext stage;  ///< Current probe/walk stage span.
  };
  void RegisterHandlers();
  void StartQuery(const hash::UInt160& object, PendingQuery query);
  void ProbeStep(std::uint64_t query_id, const chord::NodeRef& target_node);
  std::unique_ptr<TraceProbeReply> HandleProbe(const TraceProbe& probe);
  void HandleProbeReply(std::uint64_t query_id, const TraceProbeReply& reply);
  void HandleProbeTimeout(std::uint64_t query_id);
  void BeginWalk(std::uint64_t query_id, const chord::NodeRef& node,
                 moods::Time arrived);
  void WalkStep(std::uint64_t query_id);
  std::unique_ptr<IopWalkResponse> HandleWalkRequest(const IopWalkRequest& request);
  void HandleWalkResponse(std::uint64_t query_id, const IopWalkResponse& response);
  void HandleWalkTimeout(std::uint64_t query_id);
  void FinishQuery(std::uint64_t query_id, bool ok);

  chord::ChordNode& chord_;
  PeerDirectory& peers_;
  GlobalPrefixState& global_lp_;
  TrackerConfig config_;

  rpc::Dispatcher dispatcher_;
  rpc::RpcClient rpc_;
  rpc::RpcServer server_;

  moods::IopStore iop_;
  PrefixBucket individual_;  ///< Individual-mode gateway entries (flat).
  ReplicaStore replica_;     ///< Backups held for preceding gateways.
  PrefixIndexStore store_;   ///< Group-mode prefix buckets.
  CaptureWindow window_;
  sim::EventHandle window_timer_;
  std::uint64_t window_generation_ = 0;

  // Graceful-leave state machine (BeginLeave -> settle -> FinishLeave).
  bool leaving_ = false;
  bool left_gracefully_ = false;
  sim::EventHandle leave_timer_;

  // Replica push buffer: the flush timer is armed exactly while an item is
  // pending or a full push is requested.
  std::vector<ReplicaUpdate::Item> replica_pending_;
  bool replica_full_push_ = false;
  sim::EventHandle replica_timer_;

  std::vector<std::unique_ptr<moods::Receptor>> receptors_;

  std::uint64_t next_query_id_ = 1;
  std::unordered_map<std::uint64_t, PendingQuery> queries_;
  FloodingQueryEngine flood_;

  /// Cached instrument references: these counters are bumped once per
  /// capture/group/query event, so the name is resolved once here instead
  /// of per bump. Registry instruments never move, and Metrics::Reset()
  /// zeroes values in place, so the references stay valid for the node's
  /// lifetime.
  obs::Counter& ctr_window_flush_;
  obs::Counter& ctr_group_handled_;
  obs::Counter& ctr_stale_arrival_;
  obs::Counter& ctr_query_timeout_;
  obs::Counter& ctr_replica_hit_;
  obs::Counter& ctr_probe_timeout_;
  obs::Counter& ctr_walk_timeout_;
  obs::Counter& ctr_replica_promoted_;
  obs::Counter& ctr_anti_entropy_;
  obs::Counter& ctr_chain_forward_;

  /// Prefixes whose entries this gateway has pushed down to child
  /// gateways. refresh_from_descent / the triangle lookup only probe
  /// children for marked prefixes — the gateway is the only writer of its
  /// children, so an unmarked prefix cannot have delegated records (this
  /// is the "addresses and structure are cached" reading of the paper).
  std::set<hash::Prefix> delegated_children_;

  std::uint64_t objects_indexed_ = 0;
};

}  // namespace peertrack::tracking
