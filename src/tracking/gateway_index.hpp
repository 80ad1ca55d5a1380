#pragma once
// Gateway-side index storage.
//
// In individual mode a gateway keeps a flat map object -> latest location.
// In group mode a node may be gateway for several prefixes; entries live in
// per-prefix buckets, and the Data-Triangle machinery (paper Section
// IV-A2) moves entries between a bucket, its parent prefix, and its two
// child prefixes. This class is pure storage + selection policy; all
// messaging lives in TrackerNode.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "chord/types.hpp"
#include "hash/keyspace.hpp"
#include "moods/object.hpp"
#include "obs/delta_bus.hpp"
#include "util/flat_hash.hpp"

namespace peertrack::tracking {

/// Latest-state record for one object (the paper's "index").
struct IndexEntry {
  chord::NodeRef latest_node;
  moods::Time latest_arrived = 0.0;
};

/// One prefix gateway's entries.
class PrefixBucket {
 public:
  // Flat open-addressing table: both the workload's write path and the
  // invariant monitor's site resolution probe these millions of times.
  using EntryMap =
      util::FlatHashMap<hash::UInt160, IndexEntry, hash::UInt160Hasher>;

  // Find/Upsert are inline: group-mode indexing runs both per object per
  // GroupArrival, and the out-of-line call cost shows up in profiles.
  const IndexEntry* Find(const hash::UInt160& object) const {
    return entries_.Find(object);
  }
  void Upsert(const hash::UInt160& object, const IndexEntry& entry) {
    entries_[object] = entry;
    if (bus_ != nullptr && bus_->Active()) {
      bus_->Publish(obs::StateDelta::Index(obs::DeltaKind::kIndexUpsert, actor_,
                                           object, individual_, prefix_,
                                           entry.latest_arrived));
    }
  }

  /// Publish kIndexUpsert/kIndexErase deltas for every entry mutation.
  /// Bound at bucket creation (PrefixIndexStore::BucketFor / TrackerNode's
  /// individual map), so delegation moves, anti-entropy and corrupting
  /// tests all publish through the same choke point.
  void Bind(obs::StateDeltaBus* bus, std::uint32_t actor, bool individual,
            const hash::Prefix& prefix) noexcept {
    bus_ = bus;
    actor_ = actor;
    individual_ = individual;
    prefix_ = prefix;
  }
  /// Removes and returns the entry if present.
  std::optional<IndexEntry> Extract(const hash::UInt160& object);

  std::size_t Size() const noexcept { return entries_.Size(); }
  bool Empty() const noexcept { return entries_.Empty(); }
  const EntryMap& Entries() const noexcept { return entries_; }

  /// The `count` entries with the earliest latest_arrived (FIFO delegation
  /// policy, paper Section IV-A2: "the latest records are more likely to be
  /// read and updated in the near future"). Removes them from the bucket.
  std::vector<std::pair<hash::UInt160, IndexEntry>> ExtractEarliest(std::size_t count);

  /// Removes and returns every entry (split/merge migration).
  std::vector<std::pair<hash::UInt160, IndexEntry>> ExtractAll();

 private:
  void PublishErase(const hash::UInt160& object) const {
    if (bus_ != nullptr && bus_->Active()) {
      bus_->Publish(obs::StateDelta::Index(obs::DeltaKind::kIndexErase, actor_,
                                           object, individual_, prefix_));
    }
  }

  EntryMap entries_;
  obs::StateDeltaBus* bus_ = nullptr;
  std::uint32_t actor_ = 0xFFFFFFFFu;
  bool individual_ = false;
  hash::Prefix prefix_{};
};

/// Replicated copy of another gateway's entry, tagged with the prefix of
/// the bucket it came from so a promoted replica lands in the right bucket
/// (length 0 = individual-mode entry; the object key is the gateway key).
struct ReplicaRecord {
  IndexEntry entry;
  hash::Prefix prefix;
};

/// Backup entries a node holds on behalf of preceding gateways (the
/// replication extension, see DESIGN.md §8). Flat by object: a replica
/// answers point lookups and is promoted wholesale on ownership change, so
/// bucket structure would buy nothing.
class ReplicaStore {
 public:
  using RecordMap =
      util::FlatHashMap<hash::UInt160, ReplicaRecord, hash::UInt160Hasher>;

  const IndexEntry* Find(const hash::UInt160& object) const {
    const ReplicaRecord* record = records_.Find(object);
    return record == nullptr ? nullptr : &record->entry;
  }
  /// Warm the table lines a Find for `object` would touch (see
  /// PrefixBucket::Prefetch).
  void Prefetch(const hash::UInt160& object) const noexcept {
    records_.Prefetch(object);
  }
  /// Upsert guarded by freshness: stale updates (older latest_arrived than
  /// what is already held) are ignored. Returns true if stored.
  bool Offer(const hash::UInt160& object, const ReplicaRecord& record) {
    if (ReplicaRecord* existing = records_.Find(object)) {
      if (existing->entry.latest_arrived > record.entry.latest_arrived) {
        return false;
      }
      *existing = record;
    } else {
      records_[object] = record;
    }
    PublishTouched(obs::DeltaKind::kReplicaUpsert, object,
                   record.entry.latest_arrived);
    return true;
  }
  bool Remove(const hash::UInt160& object) {
    if (!records_.Erase(object)) return false;
    PublishTouched(obs::DeltaKind::kReplicaErase, object);
    return true;
  }

  /// Publish kReplica* deltas for every record mutation.
  void Bind(obs::StateDeltaBus* bus, std::uint32_t actor) noexcept {
    bus_ = bus;
    actor_ = actor;
  }

  std::size_t Size() const noexcept { return records_.Size(); }
  bool Empty() const noexcept { return records_.Empty(); }
  const RecordMap& Records() const noexcept { return records_; }

  /// Removes and returns every record (graceful-leave handoff).
  std::vector<std::pair<hash::UInt160, ReplicaRecord>> ExtractAll();

 private:
  void PublishTouched(obs::DeltaKind kind, const hash::UInt160& object,
                      double when = -1.0) const {
    if (bus_ != nullptr && bus_->Active()) {
      bus_->Publish(obs::StateDelta::Object(kind, actor_, object, when));
    }
  }

  RecordMap records_;
  obs::StateDeltaBus* bus_ = nullptr;
  std::uint32_t actor_ = 0xFFFFFFFFu;
};

/// All prefix buckets hosted on one node.
class PrefixIndexStore {
 public:
  /// Bucket for `prefix`, created on demand. A freshly-created bucket is
  /// bound to the store's delta bus and its creation publishes a
  /// kPrefixShape delta (the shape check judges bucket placement).
  PrefixBucket& BucketFor(const hash::Prefix& prefix) {
    const auto [it, created] = buckets_.try_emplace(prefix);
    if (created) {
      it->second.Bind(bus_, actor_, /*individual=*/false, prefix);
      if (bus_ != nullptr && bus_->Active()) {
        bus_->Publish(obs::StateDelta::Shape(actor_, prefix, false));
      }
    }
    return it->second;
  }

  /// Publish shape deltas and bind future buckets to `bus`. Existing
  /// buckets are re-bound too (the store may pre-date the binding).
  void Bind(obs::StateDeltaBus* bus, std::uint32_t actor) noexcept {
    bus_ = bus;
    actor_ = actor;
    for (auto& [prefix, bucket] : buckets_) {
      bucket.Bind(bus, actor, /*individual=*/false, prefix);
    }
  }

  /// Bucket if it exists (no creation).
  PrefixBucket* TryBucket(const hash::Prefix& prefix);
  const PrefixBucket* TryBucket(const hash::Prefix& prefix) const;

  void DropIfEmpty(const hash::Prefix& prefix);

  /// Prefixes of all (non-empty) buckets.
  std::vector<hash::Prefix> Prefixes() const;

  /// Total entries across buckets.
  std::size_t TotalEntries() const;

  bool Empty() const noexcept { return buckets_.empty(); }

 private:
  std::map<hash::Prefix, PrefixBucket> buckets_;
  obs::StateDeltaBus* bus_ = nullptr;
  std::uint32_t actor_ = 0xFFFFFFFFu;
};

}  // namespace peertrack::tracking
