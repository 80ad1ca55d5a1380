#pragma once
// StateDeltaBus — typed mutation deltas for event-driven auditing.
//
// Every structure the InvariantMonitor audits (ring neighbour pointers,
// finger slots, IOP visit lists, gateway index buckets, replica stores)
// is mutated at a small number of choke points. Those choke points publish
// a POD StateDelta here, and the monitor turns the stream into per-check
// dirty sets so an incremental tick audits only subjects that could have
// changed since the last one ("Correctness of the Chord Protocol",
// arXiv 1709.07938: the invariants are maintained by individual protocol
// events, so they can be audited at individual protocol events too).
//
// Publishing is observational only: a delta says "this subject was
// touched", never what the new value is — consumers re-read live state.
// That keeps publishers one-liners, makes duplicate or spurious deltas
// harmless (at worst a subject is re-audited clean), and means test
// fixtures that corrupt state through mutable_* accessors emit deltas
// exactly like the protocol paths do, because the stores themselves
// publish.
//
// A consumer claims the bus with BeginStaging(). Publish then appends the
// delta itself to the calling thread's lane buffer (obs/lane.hpp: lane 0
// un-sharded and on the coordinator, the shard id inside a parallel
// window) — no indirect call, no hashing, no shared vector between shard
// threads, plus one OR into the lane's staged-kinds mask.
//
// Staging is bounded. The consumer drains the backlog into its marks
// whenever it passes kStagingCap, not once per scan, so staging memory no
// longer grows with the scan period. It is drained at the first point
// where no window runs, from one of two triggers: Publish itself, when
// its lane reaches the cap outside a window (every publish of an
// un-sharded run; the coordinator and control phases of a sharded one),
// through the consumer's spill hook; and the shard engine's window
// epilogue, once the workers park after a window. A drain walks the lanes
// while the workers are parked: the monitor's tracking drain walks them
// once per key partition, each partition on its own parked shard thread
// applying only its own keys' deltas, and a consumer of rare kinds skips
// lanes whose mask holds none of them. Lanes are not merged in time
// order, and a backlog may be drained in several chunks per scan; neither
// matters: the monitor's mark operations commute (MarkAll dominates,
// Defer min-merges, Mark is idempotent), and its one order-sensitive
// structure, the index site mirror, only grows in a drain and is a
// superset hint pruned against live state. What staging still holds at
// its peak is one window's burst, which no trigger can split.
//
// With no consumer the bus is inert: publishers guard with Active(), so a
// run without an incremental monitor pays one predictable branch per
// mutation. Like registry.hpp this header sits below sim/ — it depends
// only on the hash layer.

#include <cstdint>
#include <functional>
#include <vector>

#include "hash/keyspace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/lane.hpp"
#include "obs/profiler.hpp"

namespace peertrack::obs {

enum class DeltaKind : std::uint8_t {
  kRingNeighbors,    ///< successor / predecessor / successor-list of `actor`.
  kRingFinger,       ///< a finger slot of `actor`.
  kMembership,       ///< `actor` joined / left / crashed: global ring truth moved.
  kIopVisit,         ///< a visit record of `object` on `actor` was written.
  kIopDropped,       ///< `actor` dropped its visit list for `object` (handoff).
  kIndexUpsert,      ///< index entry for `object` written on `actor`.
  kIndexErase,       ///< index entry for `object` removed from `actor`.
  kReplicaUpsert,    ///< replica of `object` stored on `actor`.
  kReplicaErase,     ///< replica of `object` removed from `actor`.
  kObjectTruth,      ///< ground-truth movement of `object` (oracle).
  kPrefixShape,      ///< bucket `prefix` on `actor` created / drained.
  kLpChange,         ///< global prefix length changed: every bucket re-judged.
  kHandoffFinished,  ///< `actor` completed its graceful-leave handoff.
};

/// One mutation event, staged exactly as published. Fields beyond `kind`
/// are meaningful per kind (see DeltaKind); unused ones stay
/// default-initialised. Packed (the prefix as bits + length) because a
/// scan interval can stage millions of these.
struct StateDelta {
  /// kIopVisit: arrival time identifying the touched visit record, so the
  /// monitor can dirty one (actor, object, arrived) visit instead of the
  /// object's whole chain. kObjectTruth / kIndexUpsert / kReplicaUpsert:
  /// the arrival time the new state carries, which starts its staleness
  /// clock — the monitor defers the first audit to `when + staleness`
  /// instead of probing an unjudgeable subject every tick. Negative =
  /// unknown (consumer falls back to an immediate coarser mark).
  double when = -1.0;
  /// kIopVisit only: earliest sim time at which the new state becomes
  /// judgeable, when that differs from the record's own arrival (a
  /// departure write on an old visit is gated on the NEXT hop's arrival).
  /// Negative = same as `when`.
  double gate = -1.0;
  std::uint64_t prefix_bits = 0;   ///< Bucket prefix, where applicable.
  hash::UInt160 object{};          ///< Object key, where applicable.
  std::uint32_t actor = 0xFFFFFFFFu;  ///< sim::ActorId of the touched node.
  DeltaKind kind = DeltaKind::kMembership;
  bool individual = false;         ///< Index deltas: flat map vs prefix bucket.
  std::uint8_t prefix_length = 0;

  hash::Prefix prefix() const noexcept { return {prefix_bits, prefix_length}; }

  static StateDelta Ring(DeltaKind kind, std::uint32_t actor) {
    StateDelta d;
    d.kind = kind;
    d.actor = actor;
    return d;
  }
  static StateDelta Object(DeltaKind kind, std::uint32_t actor,
                           const hash::UInt160& object, double when = -1.0) {
    StateDelta d;
    d.kind = kind;
    d.actor = actor;
    d.object = object;
    d.when = when;
    return d;
  }
  static StateDelta Index(DeltaKind kind, std::uint32_t actor,
                          const hash::UInt160& object, bool individual,
                          const hash::Prefix& prefix, double when = -1.0) {
    StateDelta d = Shape(actor, prefix, individual);
    d.kind = kind;
    d.object = object;
    d.when = when;
    return d;
  }
  static StateDelta Shape(std::uint32_t actor, const hash::Prefix& prefix,
                          bool individual) {
    StateDelta d;
    d.kind = DeltaKind::kPrefixShape;
    d.actor = actor;
    d.prefix_bits = prefix.bits;
    d.prefix_length = static_cast<std::uint8_t>(prefix.length);
    d.individual = individual;
    return d;
  }
  static StateDelta Global(DeltaKind kind) {
    StateDelta d;
    d.kind = kind;
    return d;
  }
};
static_assert(sizeof(StateDelta) <= 56,
              "StateDelta is staged by the million; keep it packed");

// The flight recorder mirrors DeltaKind into RecEvent by fixed offset (one
// add, no lookup table on the hot path). Pin the mapping at both ends.
static_assert(static_cast<std::uint8_t>(RecEvent::kRingNeighbors) ==
              static_cast<std::uint8_t>(DeltaKind::kRingNeighbors) +
                  kRecStateOffset);
static_assert(static_cast<std::uint8_t>(RecEvent::kIopVisit) ==
              static_cast<std::uint8_t>(DeltaKind::kIopVisit) +
                  kRecStateOffset);
static_assert(static_cast<std::uint8_t>(RecEvent::kIndexUpsert) ==
              static_cast<std::uint8_t>(DeltaKind::kIndexUpsert) +
                  kRecStateOffset);
static_assert(static_cast<std::uint8_t>(RecEvent::kObjectTruth) ==
              static_cast<std::uint8_t>(DeltaKind::kObjectTruth) +
                  kRecStateOffset);
static_assert(static_cast<std::uint8_t>(RecEvent::kHandoffFinished) ==
              static_cast<std::uint8_t>(DeltaKind::kHandoffFinished) +
                  kRecStateOffset);

/// Staging point. Owned by sim::Network (one bus per simulated world);
/// stores and protocol actors hold a pointer and publish through it.
class StateDeltaBus {
 public:
  /// True while staging is claimed or a recorder is attached — the
  /// publisher-side fast-path guard:
  ///   if (bus != nullptr && bus->Active()) bus->Publish(...);
  bool Active() const noexcept { return active_ > 0; }

  /// Deltas a lane may stage outside a parallel window before the spill
  /// hook drains the backlog: 2^17 records of 56 B, 7 MiB per lane.
  static constexpr std::size_t kStagingCap = std::size_t{1} << 17;

  void Publish(const StateDelta& delta) {
    // The recorder mirror runs before Stage's leaf scope: it opens the
    // recorder's own append leaf (and, when its buffer fills, the full
    // drain scope), and no scope may open inside a leaf.
    if (recorder_ != nullptr) {
      recorder_->RecordState(
          static_cast<std::uint8_t>(delta.kind), delta.actor, delta.object,
          delta.kind >= DeltaKind::kIopVisit &&
              delta.kind <= DeltaKind::kObjectTruth,
          delta.when);
    }
    if (Stage(delta)) spill_();
  }

  /// Drain hook of the staging consumer: Publish calls it, outside any
  /// window, when the publishing lane reaches `cap` staged deltas. The hook
  /// must leave the backlog cleared. EndStaging removes it.
  void SetSpill(std::function<void()> spill, std::size_t cap) {
    spill_ = std::move(spill);
    spill_at_ = cap > 0 ? cap : 1;
  }
  /// Bit of `kind` in a StagedKinds() mask.
  static constexpr std::uint32_t KindBit(DeltaKind kind) noexcept {
    static_assert(static_cast<unsigned>(DeltaKind::kHandoffFinished) < 32,
                  "StagedKinds() masks need one bit per kind");
    return std::uint32_t{1} << static_cast<unsigned>(kind);
  }

  /// Route every published delta into `recorder` as a RecEvent mirror.
  /// Arms Active() exactly like BeginStaging, so the publishers'
  /// `bus->Active()` guards start feeding the recorder even when no
  /// invariant monitor is attached. At most one recorder.
  void AttachRecorder(FlightRecorder* recorder) {
    if (recorder_ != nullptr || recorder == nullptr) return;
    recorder_ = recorder;
    ++active_;
  }
  FlightRecorder* recorder() const noexcept { return recorder_; }

  /// Claim the staging buffers (arms Active()). At most one consumer can
  /// stage — returns false if the buffers are already claimed.
  bool BeginStaging() {
    if (staging_) return false;
    staging_ = true;
    ++active_;
    return true;
  }

  /// Release the staging buffers, remove the spill hook and discard any
  /// undrained backlog.
  void EndStaging() {
    if (!staging_) return;
    staging_ = false;
    --active_;
    spill_ = nullptr;
    ClearStaged();
  }

  /// Sharded runs: one staging buffer per writer lane (obs/lane.hpp), so
  /// shard threads append without sharing a vector. Coordinator-phase
  /// only; idempotent.
  void EnableLanes(std::size_t lanes) {
    if (lanes > lanes_.size()) lanes_.resize(lanes);
  }

  bool Staging() const noexcept { return staging_; }
  std::uint64_t StagedCount() const noexcept {
    std::uint64_t total = 0;
    for (const Lane& lane : lanes_) total += lane.staged.size();
    return total;
  }

  /// Lane count (1 until EnableLanes) and each lane's staged backlog in
  /// publish order. The consumer walks the lanes in lane order with every
  /// worker parked, then calls ClearStaged().
  std::size_t Lanes() const noexcept { return lanes_.size(); }
  const std::vector<StateDelta>& Staged(std::size_t lane) const noexcept {
    return lanes_[lane].staged;
  }
  /// KindBit mask of every kind staged on `lane` since the last clear, so a
  /// consumer of a few rare kinds skips lanes that hold none of them
  /// instead of walking their whole backlog.
  std::uint32_t StagedKinds(std::size_t lane) const noexcept {
    return lanes_[lane].kinds;
  }

  /// Reset the staged backlog (capacity retained).
  void ClearStaged() {
    for (Lane& lane : lanes_) {
      lane.staged.clear();
      lane.kinds = 0;
    }
  }

 private:
  /// Append `delta` to the calling thread's lane; true when the spill hook
  /// is due. Covers only the staging append, so per-mutation bookkeeping
  /// cost is attributable separate from the recorder mirror and from the
  /// drains that consume the backlog. Publishers guard with Active(), so
  /// inert runs never reach this scope. Leaf variant: this fires once per
  /// mutation (millions per run) and opens no scope of its own — which is
  /// why the recorder mirror and the spill run in Publish, around it.
  bool Stage(const StateDelta& delta) {
    PROF_LEAF_SCOPE("bus", "publish");
    if (!staging_) return false;
    Lane& lane = lanes_[CurrentLane()];
    lane.staged.push_back(delta);
    lane.kinds |= KindBit(delta.kind);
    return lane.staged.size() >= spill_at_ && !InWindow() && spill_;
  }

  /// Cache-line aligned: shard threads grow neighbouring lanes at once.
  struct alignas(64) Lane {
    std::vector<StateDelta> staged;
    std::uint32_t kinds = 0;  ///< KindBit mask of `staged`.
  };

  std::size_t active_ = 0;
  FlightRecorder* recorder_ = nullptr;
  bool staging_ = false;
  std::function<void()> spill_;
  std::size_t spill_at_ = kStagingCap;
  std::vector<Lane> lanes_ = std::vector<Lane>(1);
};

}  // namespace peertrack::obs
