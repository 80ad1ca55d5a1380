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
// A consumer claims the bus with BeginStaging(). Publish then only appends
// a compact POD to a per-kind staging vector (no indirect call, no
// hashing), and the consumer walks the Staged*() views in one batch per
// scan. The dirty/deferred mark operations the monitor performs are
// commutative within a batch (MarkAll dominates, Defer min-merges, Mark is
// idempotent), so per-kind buffers are safe — except the index
// upsert/erase stream, whose relative order the consumer's site mirror
// depends on; those share one ordered buffer.
//
// With no consumer the bus is inert: publishers guard with Active(), so a
// run without an incremental monitor pays one predictable branch per
// mutation. Like registry.hpp this header sits below sim/ — it depends
// only on the hash layer.

#include <cstdint>
#include <memory>
#include <vector>

#include "hash/keyspace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/lane.hpp"
#include "obs/profiler.hpp"

namespace peertrack::obs {

enum class DeltaKind : std::uint8_t {
  kRingNeighbors,    ///< successor / predecessor / successor-list of `actor`.
  kRingFinger,       ///< finger slot `slot` of `actor`.
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

/// One mutation event. Fields beyond `kind` are meaningful per kind (see
/// DeltaKind); unused ones stay default-initialised.
struct StateDelta {
  DeltaKind kind = DeltaKind::kMembership;
  bool individual = false;         ///< Index deltas: flat map vs prefix bucket.
  std::uint32_t actor = 0xFFFFFFFFu;  ///< sim::ActorId of the touched node.
  std::uint32_t slot = 0;          ///< kRingFinger: finger index.
  hash::UInt160 object{};          ///< Object key, where applicable.
  hash::Prefix prefix{};           ///< Bucket prefix, where applicable.
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

  static StateDelta Ring(DeltaKind kind, std::uint32_t actor) {
    StateDelta d;
    d.kind = kind;
    d.actor = actor;
    return d;
  }
  static StateDelta Finger(std::uint32_t actor, std::uint32_t slot) {
    StateDelta d;
    d.kind = DeltaKind::kRingFinger;
    d.actor = actor;
    d.slot = slot;
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
    StateDelta d;
    d.kind = kind;
    d.actor = actor;
    d.object = object;
    d.individual = individual;
    d.prefix = prefix;
    d.when = when;
    return d;
  }
  static StateDelta Shape(std::uint32_t actor, const hash::Prefix& prefix,
                          bool individual) {
    StateDelta d;
    d.kind = DeltaKind::kPrefixShape;
    d.actor = actor;
    d.prefix = prefix;
    d.individual = individual;
    return d;
  }
  static StateDelta Global(DeltaKind kind) {
    StateDelta d;
    d.kind = kind;
    return d;
  }
};

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

  void Publish(const StateDelta& delta) {
    if (lanes_ != nullptr) {
      const std::uint32_t lane = CurrentLane();
      if (lane != 0) {
        // Worker-thread publish: append into the lane's private child bus
        // (its own leaf profiler scope bills the worker's tree), merged
        // into the lane-0 buffers at the next window barrier.
        (*lanes_)[lane - 1]->Publish(delta);
        return;
      }
    }
    // Covers the recorder mirror and the staging append, so per-mutation
    // bookkeeping cost is attributable separate from the scans that drain
    // it.
    // Publishers guard with Active(), so inert runs never reach this
    // scope. Leaf variant: this fires once per mutation (millions per run)
    // and neither branch opens scopes of its own.
    PROF_LEAF_SCOPE("bus", "publish");
    ++published_;
    if (recorder_ != nullptr) {
      const auto kind = static_cast<std::uint8_t>(delta.kind);
      recorder_->RecordState(
          kind, delta.actor, delta.object,
          delta.kind >= DeltaKind::kIopVisit &&
              delta.kind <= DeltaKind::kObjectTruth,
          delta.when);
    }
    if (staging_) Stage(delta);
  }

  /// Route every published delta into `recorder` as a RecEvent mirror.
  /// Arms Active() exactly like BeginStaging, so the publishers'
  /// `bus->Active()` guards start feeding the recorder even when no
  /// invariant monitor is attached. At most one recorder.
  void AttachRecorder(FlightRecorder* recorder) {
    if (recorder_ != nullptr || recorder == nullptr) return;
    recorder_ = recorder;
    ++active_;
    if (lanes_ != nullptr) {
      // Children share the recorder instance — it routes appends to
      // per-lane staging buffers internally.
      for (auto& lane : *lanes_) lane->AttachRecorder(recorder);
    }
  }
  void DetachRecorder() {
    if (recorder_ == nullptr) return;
    recorder_ = nullptr;
    --active_;
    if (lanes_ != nullptr) {
      for (auto& lane : *lanes_) lane->DetachRecorder();
    }
  }
  FlightRecorder* recorder() const noexcept { return recorder_; }

  /// Claim the staging buffers (arms Active()). At most one consumer can
  /// stage — returns false if the buffers are already claimed.
  bool BeginStaging() {
    if (staging_) return false;
    staging_ = true;
    ++active_;
    if (lanes_ != nullptr) {
      for (auto& lane : *lanes_) lane->BeginStaging();
    }
    return true;
  }

  /// Release the staging buffers and discard any undrained backlog.
  void EndStaging() {
    if (!staging_) return;
    staging_ = false;
    --active_;
    ClearStaged();
    if (lanes_ != nullptr) {
      for (auto& lane : *lanes_) lane->EndStaging();
    }
  }

  /// Sharded runs: give each of `lanes` writer threads (obs/lane.hpp) a
  /// private child bus for its staged deltas. Publish routes by the
  /// calling thread's lane; MergeStagedLanes() — run from the engine's
  /// window barrier, workers parked — appends every child backlog into the
  /// lane-0 buffers so consumers keep one drain surface. Coordinator-phase
  /// only; idempotent.
  void EnableLanes(std::size_t lanes) {
    if (lanes_ != nullptr || lanes <= 1) return;
    lanes_ = std::make_unique<std::vector<std::unique_ptr<StateDeltaBus>>>();
    lanes_->reserve(lanes - 1);
    for (std::size_t i = 1; i < lanes; ++i) {
      auto child = std::make_unique<StateDeltaBus>();
      if (staging_) child->BeginStaging();
      if (recorder_ != nullptr) child->AttachRecorder(recorder_);
      lanes_->push_back(std::move(child));
    }
  }

  /// Append every lane's staged backlog (and its publish tally) into the
  /// lane-0 buffers, in lane order. Within a lane records keep publish
  /// order; same-(object, location) index mutations happen on one actor —
  /// one lane — so the order the site mirror depends on survives the
  /// merge. Call only while workers are parked.
  void MergeStagedLanes() {
    if (lanes_ == nullptr) return;
    for (auto& lane : *lanes_) {
      published_ += lane->published_;
      lane->published_ = 0;
      if (lane->staged_ == 0) continue;
      staged_ += lane->staged_;
      AppendFrom(staged_neighbors_, lane->staged_neighbors_);
      AppendFrom(staged_fingers_, lane->staged_fingers_);
      AppendFrom(staged_membership_, lane->staged_membership_);
      AppendFrom(staged_handoffs_, lane->staged_handoffs_);
      staged_lp_changes_ += lane->staged_lp_changes_;
      AppendFrom(staged_visits_, lane->staged_visits_);
      AppendFrom(staged_dropped_, lane->staged_dropped_);
      AppendFrom(staged_index_, lane->staged_index_);
      AppendFrom(staged_replicas_, lane->staged_replicas_);
      AppendFrom(staged_truths_, lane->staged_truths_);
      AppendFrom(staged_shapes_, lane->staged_shapes_);
      lane->staged_ = 0;
      lane->staged_lp_changes_ = 0;
    }
  }

  bool Staging() const noexcept { return staging_; }
  std::uint64_t StagedCount() const noexcept { return staged_; }

  // Staged records keep only the fields their kind consumes.
  struct StagedVisit {
    hash::UInt160 object;
    std::uint32_t actor;
    double when;
    double gate;
  };
  struct StagedObject {
    hash::UInt160 object;
    std::uint32_t actor;
    double when;
    bool erase;
  };
  struct StagedIndex {
    hash::UInt160 object;
    hash::Prefix prefix;
    std::uint32_t actor;
    double when;
    bool individual;
    bool erase;
  };
  struct StagedFinger {
    std::uint32_t actor;
    std::uint32_t slot;
  };
  struct StagedShape {
    hash::Prefix prefix;
    std::uint32_t actor;
    bool individual;
  };

  /// Staged-buffer views, walked directly by the consumer. Within each
  /// buffer records are in publish order; the index stream interleaves
  /// upserts and erases in arrival order, which mirror maintenance depends
  /// on. The consumer calls ClearStaged() once it has walked the buffers.
  const std::vector<std::uint32_t>& StagedMembership() const noexcept {
    return staged_membership_;
  }
  const std::vector<std::uint32_t>& StagedHandoffs() const noexcept {
    return staged_handoffs_;
  }
  std::uint64_t StagedLpChanges() const noexcept { return staged_lp_changes_; }
  const std::vector<StagedVisit>& StagedVisits() const noexcept {
    return staged_visits_;
  }
  const std::vector<StagedObject>& StagedDropped() const noexcept {
    return staged_dropped_;
  }
  const std::vector<StagedIndex>& StagedIndexStream() const noexcept {
    return staged_index_;
  }
  const std::vector<StagedObject>& StagedReplicas() const noexcept {
    return staged_replicas_;
  }
  const std::vector<StagedObject>& StagedTruths() const noexcept {
    return staged_truths_;
  }
  const std::vector<std::uint32_t>& StagedNeighbors() const noexcept {
    return staged_neighbors_;
  }
  const std::vector<StagedFinger>& StagedFingers() const noexcept {
    return staged_fingers_;
  }
  const std::vector<StagedShape>& StagedShapes() const noexcept {
    return staged_shapes_;
  }

  /// Reset the staged backlog (capacity retained).
  void ClearStaged() {
    staged_ = 0;
    staged_neighbors_.clear();
    staged_fingers_.clear();
    staged_membership_.clear();
    staged_handoffs_.clear();
    staged_lp_changes_ = 0;
    staged_visits_.clear();
    staged_dropped_.clear();
    staged_index_.clear();
    staged_replicas_.clear();
    staged_truths_.clear();
    staged_shapes_.clear();
  }

  /// Total deltas published (including while nobody listened via direct
  /// Publish calls; guarded publishers contribute only while Active()).
  std::uint64_t Published() const noexcept { return published_; }

 private:
  template <typename T>
  static void AppendFrom(std::vector<T>& dst, std::vector<T>& src) {
    dst.insert(dst.end(), src.begin(), src.end());
    src.clear();
  }

  void Stage(const StateDelta& d) {
    ++staged_;
    switch (d.kind) {
      case DeltaKind::kRingNeighbors:
        staged_neighbors_.push_back(d.actor);
        break;
      case DeltaKind::kRingFinger:
        staged_fingers_.push_back(StagedFinger{d.actor, d.slot});
        break;
      case DeltaKind::kMembership:
        staged_membership_.push_back(d.actor);
        break;
      case DeltaKind::kIopVisit:
        staged_visits_.push_back(
            StagedVisit{d.object, d.actor, d.when, d.gate});
        break;
      case DeltaKind::kIopDropped:
        staged_dropped_.push_back(
            StagedObject{d.object, d.actor, d.when, false});
        break;
      case DeltaKind::kIndexUpsert:
      case DeltaKind::kIndexErase:
        // One ordered stream: the consumer's site mirror applies upserts
        // and erases of the same (object, location) in arrival order.
        staged_index_.push_back(StagedIndex{d.object, d.prefix, d.actor,
                                            d.when, d.individual,
                                            d.kind == DeltaKind::kIndexErase});
        break;
      case DeltaKind::kReplicaUpsert:
      case DeltaKind::kReplicaErase:
        staged_replicas_.push_back(StagedObject{
            d.object, d.actor, d.when, d.kind == DeltaKind::kReplicaErase});
        break;
      case DeltaKind::kObjectTruth:
        staged_truths_.push_back(StagedObject{d.object, d.actor, d.when, false});
        break;
      case DeltaKind::kPrefixShape:
        staged_shapes_.push_back(StagedShape{d.prefix, d.actor, d.individual});
        break;
      case DeltaKind::kLpChange:
        ++staged_lp_changes_;
        break;
      case DeltaKind::kHandoffFinished:
        staged_handoffs_.push_back(d.actor);
        break;
    }
  }

  std::size_t active_ = 0;
  std::uint64_t published_ = 0;
  FlightRecorder* recorder_ = nullptr;

  bool staging_ = false;
  std::uint64_t staged_ = 0;
  std::vector<std::uint32_t> staged_neighbors_;
  std::vector<StagedFinger> staged_fingers_;
  std::vector<std::uint32_t> staged_membership_;
  std::vector<std::uint32_t> staged_handoffs_;
  std::uint64_t staged_lp_changes_ = 0;
  std::vector<StagedVisit> staged_visits_;
  std::vector<StagedObject> staged_dropped_;
  std::vector<StagedIndex> staged_index_;
  std::vector<StagedObject> staged_replicas_;
  std::vector<StagedObject> staged_truths_;
  std::vector<StagedShape> staged_shapes_;
  /// Child buses for writer lanes 1..L-1 (null when un-sharded).
  std::unique_ptr<std::vector<std::unique_ptr<StateDeltaBus>>> lanes_;
};

}  // namespace peertrack::obs
