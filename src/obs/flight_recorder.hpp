#pragma once
// FlightRecorder — black-box per-actor ring buffers of protocol events.
//
// When the invariant monitor opens a violation, the *cause* is a sequence
// of messages, index writes and handoffs that happened seconds of sim time
// earlier on several actors — and by the time the scan fires, that history
// is gone. The recorder keeps it: every protocol event (message send /
// recv / drop per MsgTypeId, ring membership and stabilize transitions,
// index upserts/erases, IOP link writes, replication offers/promotions,
// handoff phases, rpc retries/timeouts) is appended as one POD record into
// a bounded per-actor ring. The hot path pays the same discipline as
// StateDeltaBus staging: one predictable branch at the call site plus one
// sequential POD append into the calling writer lane's (obs/lane.hpp)
// bounded staging buffer — one per lane, lane 0 included, so shard threads
// never share one. Distribution into the per-actor rings happens in bulk
// when the buffer fills (or when a window/bundle is requested), under one
// lock per batch, so shard threads never contend per record. A tight-loop
// microbench measures ~13 ns/record (append plus amortized drain), but a
// same-seed A/B of perf_smoke on the bare stack (S=1, profiler and monitor
// off, 4-core host) measured +17.7% and +22.1%
// index wall with recording on. No gate runs that A/B (ROADMAP item 6);
// the perf gate only caps the profiled obs.recorder.* attribution at 5%.
//
// On a trigger (violation opened, query failed its oracle check, harness
// assert) the recorder dumps a *forensic bundle*: the last N events of the
// implicated actors plus every actor whose ring mentions the subject
// object, cross-actor merged in (sim time, seq) order, exported as
// `peertrack.forensics.v1` JSON and as a Perfetto instant-event track.
// The causal explainer (obs/explain.hpp) walks a bundle backward and
// names the injected/real cause as a structured tree.
//
// Recording is purely observational: it never schedules events, never
// touches the RNG, and never feeds back into protocol state — a run with
// recording on is bit-identical to one with it off (enforced by tests and
// by the perf_smoke cross-leg determinism check). Like delta_bus.hpp this
// header sits below sim/ — it depends only on the hash layer and the
// profiler.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hash/keyspace.hpp"
#include "obs/lane.hpp"
#include "obs/profiler.hpp"

namespace peertrack::obs {

/// Recorded event kinds. Values 3..15 mirror DeltaKind (same order, offset
/// +3) so the delta bus can translate a published StateDelta with one add —
/// static_asserts in delta_bus.hpp pin the mapping.
enum class RecEvent : std::uint8_t {
  kMsgSend = 0,   ///< `actor` sent a message of `type` to `peer`.
  kMsgRecv = 1,   ///< `actor` had a message of `type` delivered from `peer`.
  kMsgDrop = 2,   ///< delivery to `actor` from `peer` was dropped (loss/down).
  // --- DeltaKind mirror (value = DeltaKind + kRecStateOffset) ------------
  kRingNeighbors = 3,
  kRingFinger = 4,
  kMembership = 5,
  kIopVisit = 6,
  kIopDropped = 7,
  kIndexUpsert = 8,
  kIndexErase = 9,
  kReplicaUpsert = 10,
  kReplicaErase = 11,
  kObjectTruth = 12,
  kPrefixShape = 13,
  kLpChange = 14,
  kHandoffFinished = 15,
  // --- Direct protocol events (recorded at their call sites) -------------
  kHandoffBegin = 16,    ///< `actor` began its graceful leave toward `peer`.
  kReplicaPromote = 17,  ///< `actor` promoted its replica of `object`.
  kRpcRetry = 18,        ///< rpc from `actor` to `peer` (`type`) retried.
  kRpcTimeout = 19,      ///< rpc from `actor` to `peer` (`type`) gave up.
  kSuccessorFailover = 20,  ///< `actor` evicted dead successor `peer`.
};

inline constexpr std::uint8_t kRecStateOffset = 3;

/// Stable dotted name ("msg.send", "index.upsert", ...) used in bundle
/// JSON, Perfetto tracks and explainer evidence lines.
const char* RecEventName(RecEvent event) noexcept;

/// One recorded protocol event. POD, exactly 64 bytes (one cache line,
/// asserted in flight_recorder.cpp); unused fields keep their defaults per
/// event kind.
struct alignas(64) RecordedEvent {
  double when = 0.0;  ///< Sim time of the append.
  /// Kind-specific argument. For the DeltaKind mirror this is the delta's
  /// `when` — the arrival time the written state carries (kIndexUpsert /
  /// kReplicaUpsert / kObjectTruth / kIopVisit), which lets the explainer
  /// compare a written arrival against ground truth without re-reading
  /// live stores. Negative = not applicable.
  double arg = -1.0;
  std::uint64_t seq = 0;  ///< Global append order (deterministic tiebreak).
  hash::UInt160 object{};
  std::uint32_t actor = 0xFFFFFFFFu;
  std::uint32_t peer = 0xFFFFFFFFu;  ///< Counterpart actor, where applicable.
  std::uint32_t type = 0xFFFFFFFFu;  ///< MsgTypeId for msg/rpc events.
  RecEvent event = RecEvent::kMsgSend;
  bool has_object = false;
};

/// What fired a forensic dump. `event_seq` is the recorder's LastSeq() at
/// trigger time — every event with seq <= event_seq happened before (or
/// at) the trigger, which is how tests pin evidence to the injected cause.
struct ForensicTrigger {
  std::string check;    ///< Check id / "query.trace" / harness name.
  std::string subject;  ///< Ledger subject key (human-stable fault id).
  std::string detail;
  std::uint32_t actor = 0xFFFFFFFFu;  ///< Implicated actor, if known.
  double when_ms = 0.0;
  std::uint64_t event_seq = 0;
  hash::UInt160 object{};
  bool has_object = false;
};

/// A captured slice of history: the trigger, the actors whose rings
/// contributed, and their events merged ascending by (when, seq).
struct ForensicBundle {
  ForensicTrigger trigger;
  std::vector<std::uint32_t> actors;
  std::vector<RecordedEvent> events;
};

class FlightRecorder {
 public:
  /// Sentinel "actor" for events not tied to any node (ground-truth object
  /// movement published by the oracle). They land in one dedicated world
  /// ring instead of indexing the per-actor table — rings_ is indexed by
  /// actor id, and the sentinel would otherwise force a 2^32-entry resize.
  static constexpr std::uint32_t kWorldActor = 0xFFFFFFFFu;

  /// `events_per_actor` bounds each ring; 0 disables recording entirely
  /// (every Record* returns on its first branch; no ring or staging buffer
  /// is allocated).
  explicit FlightRecorder(std::size_t events_per_actor)
      : capacity_(events_per_actor),
        type_flags_(std::make_unique<std::atomic<std::uint32_t>[]>(
            kMaxTypeIds)) {
    EnableLanes(1);
  }

  bool Enabled() const noexcept { return capacity_ > 0; }
  std::size_t Capacity() const noexcept { return capacity_; }

  /// Timestamps of `lane`'s appends come from `*now` at append time (the
  /// owning network binds each lane to its shard simulator's clock).
  /// Unbound records stamp 0.
  void BindClock(const double* now, std::uint32_t lane = 0) noexcept {
    if (lane < lanes_.size()) lanes_[lane].now = now;
  }

  /// Give each of `lanes` writer threads (obs/lane.hpp) a private staging
  /// buffer, local sequence counter and clock binding; the constructor
  /// sets up lane 0. Global seq is (local_seq << bits) | lane with
  /// bits = bit_width(lanes - 1) — monotone per lane, deterministic per
  /// record, comparable across lanes, and the plain append count at one
  /// lane. Ring distribution takes a mutex per drain batch (one lock per
  /// kStageCapacity appends); ring *retention* order for rings fed by more
  /// than one lane (the world ring) depends on drain interleaving, which
  /// is fine — bundles re-sort by (when, seq). Coordinator-phase only;
  /// never shrinks.
  void EnableLanes(std::size_t lanes);

  /// Remember a MsgTypeId's name for bundle export. Idempotent; the fast
  /// path (already registered) is one acquire load of a per-type flag. The
  /// string table is mutex-guarded, since shard threads intern mid-window.
  void RegisterTypeName(std::uint32_t type, std::string_view name) {
    if (type < kMaxTypeIds &&
        type_flags_[type].load(std::memory_order_acquire) != 0) {
      return;
    }
    RegisterTypeNameSlow(type, name);
  }
  /// Registered name, or "" when the type never registered.
  std::string_view TypeName(std::uint32_t type) const noexcept {
    return type < type_names_.size() ? std::string_view(type_names_[type])
                                     : std::string_view();
  }

  // --- Hot-path appends ----------------------------------------------------
  // Callers guard with `if (recorder != nullptr)`; a capacity-0 recorder
  // additionally bails on its own first branch, so the disabled cost is one
  // predictable branch either way. Leaf profiler scope: these fire once per
  // protocol event (millions per run) and open no scopes of their own.

  void RecordMessage(RecEvent event, std::uint32_t actor, std::uint32_t peer,
                     std::uint32_t type) {
    if (capacity_ == 0) return;
    MaybeDrain();
    PROF_LEAF_SCOPE("obs.recorder", "append");
    RecordedEvent& e = Append(actor);
    e.event = event;
    e.peer = peer;
    e.type = type;
  }

  /// StateDelta mirror: `kind` is the raw DeltaKind value (translated by
  /// fixed offset), `arg` the delta's `when` field.
  void RecordState(std::uint8_t kind, std::uint32_t actor,
                   const hash::UInt160& object, bool has_object, double arg) {
    if (capacity_ == 0) return;
    MaybeDrain();
    PROF_LEAF_SCOPE("obs.recorder", "append");
    RecordedEvent& e = Append(actor);
    e.event = static_cast<RecEvent>(kind + kRecStateOffset);
    e.object = object;
    e.has_object = has_object;
    e.arg = arg;
  }

  /// Direct protocol events (handoff begin, replica promotion, rpc
  /// retry/timeout) recorded at their call sites.
  void RecordProtocol(RecEvent event, std::uint32_t actor, std::uint32_t peer,
                      const hash::UInt160& object, bool has_object,
                      std::uint32_t type = 0xFFFFFFFFu) {
    if (capacity_ == 0) return;
    MaybeDrain();
    PROF_LEAF_SCOPE("obs.recorder", "append");
    RecordedEvent& e = Append(actor);
    e.event = event;
    e.peer = peer;
    e.object = object;
    e.has_object = has_object;
    e.type = type;
  }

  // --- Introspection --------------------------------------------------------

  /// Seq of the newest event (coordinator-phase read when sharded).
  std::uint64_t LastSeq() const noexcept {
    std::uint64_t last = 0;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      if (lanes_[lane].seq == 0) continue;
      last = std::max(last, (lanes_[lane].seq << lane_bits_) | lane);
    }
    return last;
  }
  /// Total events ever appended (all lanes).
  std::uint64_t EventsRecorded() const noexcept {
    std::uint64_t total = 0;
    for (const LaneBuf& lb : lanes_) total += lb.seq;
    return total;
  }
  /// Actors with at least one ring slot allocated.
  std::size_t ActorRings() const noexcept { return rings_.size(); }
  /// Events currently retained for `actor` (<= capacity). Non-const: the
  /// read side flushes the staging buffer into the rings first.
  std::size_t WindowSize(std::uint32_t actor);
  /// `actor`'s retained events, oldest first.
  std::vector<RecordedEvent> Window(std::uint32_t actor);

  // --- Forensics ------------------------------------------------------------

  /// Capture a bundle: full windows of every `implicated` actor plus every
  /// actor whose ring mentions `trigger.object` (when the trigger carries
  /// one — "every actor holding state for the subject key", including past
  /// holders whose state already moved on). Events merge ascending by
  /// (when, seq). Non-const: flushes the staging buffer into the rings.
  ForensicBundle Collect(const ForensicTrigger& trigger,
                         const std::vector<std::uint32_t>& implicated);

  /// `peertrack.forensics.v1` JSON document.
  std::string ToJson(const ForensicBundle& bundle) const;
  /// Perfetto trace: one instant event per record (tid = actor) plus a
  /// trigger marker, loadable next to the exporter's span traces.
  std::string ToPerfettoJson(const ForensicBundle& bundle) const;

  /// Write `<dir>/<stem>.json` + `<dir>/<stem>.perfetto.json` with a
  /// deterministic stem derived from (event_seq, check, subject); creates
  /// `dir` if needed. Returns the JSON path, or "" on I/O failure.
  std::string WriteBundle(const ForensicBundle& bundle,
                          const std::string& dir) const;

 private:
  /// Staged appends between drains. 4096 * sizeof(RecordedEvent) ≈ 256 KiB —
  /// small enough to stay cache-resident, large enough that the drain's
  /// lock amortizes over many records.
  static constexpr std::size_t kStageCapacity = 4096;

  struct Ring {
    std::vector<RecordedEvent> slots;  ///< Sized to capacity on first use.
    std::uint64_t appended = 0;
    std::size_t head = 0;  ///< == appended % capacity; avoids a div per drain.
  };

  Ring& RingFor(std::uint32_t actor) {
    if (actor == kWorldActor) {
      if (world_.slots.empty()) world_.slots.resize(capacity_);
      return world_;
    }
    if (actor >= rings_.size() || rings_[actor].slots.empty()) Grow(actor);
    return rings_[actor];
  }

  /// Ring holding `actor`'s events, or nullptr if it never recorded.
  const Ring* FindRing(std::uint32_t actor) const noexcept {
    if (actor == kWorldActor) {
      return world_.slots.empty() ? nullptr : &world_;
    }
    if (actor >= rings_.size() || rings_[actor].slots.empty()) return nullptr;
    return &rings_[actor];
  }

  /// Max dense MsgTypeId covered by the type-name fast path.
  static constexpr std::uint32_t kMaxTypeIds = 4096;

  /// One writer lane's private append state. Cache-line aligned: shard
  /// threads bump neighbouring lanes' counters at once.
  struct alignas(64) LaneBuf {
    std::vector<RecordedEvent> staged;  ///< Appends awaiting distribution.
    std::uint64_t seq = 0;              ///< Appends so far (local seq).
    const double* now = nullptr;
  };

  /// Flush the staging buffer when full. Called BEFORE the caller's leaf
  /// profiler scope opens: a drain landing inside a sampled append window
  /// would bill its whole batch to one append and get scaled by the
  /// sampling weight — the drain carries its own PROF_SCOPE instead.
  void MaybeDrain() {
    LaneBuf& lb = lanes_[CurrentLane()];
    if (lb.staged.size() == kStageCapacity) Drain(lb);
  }

  /// Hot path: one sequential POD append into the calling lane's
  /// (reserved, so never reallocating) staging buffer. The returned
  /// reference stays valid until the next Append — callers fill the
  /// kind-specific fields immediately.
  RecordedEvent& Append(std::uint32_t actor) {
    const std::uint32_t lane = CurrentLane();
    LaneBuf& lb = lanes_[lane];
    RecordedEvent& e = lb.staged.emplace_back();
    e.when = lb.now != nullptr ? *lb.now : 0.0;
    e.seq = (++lb.seq << lane_bits_) | lane;
    e.actor = actor;
    return e;
  }

  /// Bulk-distribute `lane`'s staging buffer into the per-actor rings
  /// (under rings_mutex_: shard threads drain concurrently).
  void Drain(LaneBuf& lane);
  /// Drain every lane's buffer (read side; coordinator phase only).
  void FlushAll();
  void Grow(std::uint32_t actor);
  void RegisterTypeNameSlow(std::uint32_t type, std::string_view name);

  std::size_t capacity_ = 0;
  std::vector<Ring> rings_;
  Ring world_;  ///< kWorldActor's ring (oracle ground-truth events).
  std::vector<std::string> type_names_;
  /// Append state, one entry per writer lane, lane 0 included.
  std::vector<LaneBuf> lanes_;
  unsigned lane_bits_ = 0;  ///< Lane tag width in a seq.
  /// Per-type "name registered" flags backing the type-name fast path.
  std::unique_ptr<std::atomic<std::uint32_t>[]> type_flags_;
  std::mutex rings_mutex_;  ///< Guards rings against concurrent drains.
  std::mutex names_mutex_;  ///< Guards type_names_.
};

}  // namespace peertrack::obs
