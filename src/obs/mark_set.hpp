#pragma once
// MarkSet — dirty/deferred marks accumulated from state deltas.
//
// Shared by every invariant check auditing the same key space (the
// installer's drain inserts each key once instead of once per check — it
// walks millions of deltas per run, the checks ten). A key-partitioned
// drain keeps one set per partition per key space. Retired by the
// installer's scan epilogue after ALL checks consumed it. Split out of invariants.cpp
// so the one-element dedup memos — which sit directly under the staged
// drain — have their own regression tests.

#include <memory>

#include "util/flat_hash.hpp"

namespace peertrack::obs {

/// Dirty marks accumulated from deltas since the last scan.
template <typename Key, typename Hash = std::hash<Key>>
struct MarkSet {
  bool all = true;  ///< Until the first scan everything is dirty.
  util::FlatHashSet<Key, Hash> dirty;
  /// key -> earliest sim time its new state becomes judgeable. Deltas whose
  /// payload carries an arrival defer here instead of dirtying: nothing can
  /// change the verdict before the arrival settles, so the first audit
  /// parks at the deadline instead of probing every tick. Min-merged —
  /// auditing early wastes one clean audit, auditing later than the
  /// earliest gate could delay a finding a full scan would already report.
  util::FlatHashMap<Key, double, Hash> deferred;

  void MarkAll() {
    all = true;
    dirty.Clear();
    deferred.Clear();  // The full enumerate re-derives every pending gate.
    has_last_mark_ = false;
    has_last_defer_ = false;
  }
  void Mark(const Key& key) {
    if (all) return;
    // Mutations arrive in bursts against one subject (a capture touches the
    // same object's truth, index, and replicas back to back); a one-element
    // memo removes most duplicate hashed inserts on the hot drain path.
    if (has_last_mark_ && last_mark_ == key) return;
    dirty.Insert(key);
    last_mark_ = key;
    has_last_mark_ = true;
  }
  void Defer(const Key& key, double gate) {
    if (all) return;
    if (has_last_defer_ && last_defer_ == key && gate >= last_defer_gate_) {
      return;
    }
    const auto [slot, inserted] = deferred.TryEmplace(key, gate);
    if (!inserted && gate < slot->second) slot->second = gate;
    last_defer_ = key;
    last_defer_gate_ = slot->second;
    has_last_defer_ = true;
  }
  /// Fold `other`'s marks into this set: a key-partitioned drain's
  /// per-partition marks into the one set a serial check consumes. The
  /// union is the set a single drain would have marked, whatever order the
  /// partitions are absorbed in (Defer min-merges, MarkAll dominates).
  void Absorb(const MarkSet& other) {
    if (other.all) {
      MarkAll();
      return;
    }
    for (const Key& key : other.dirty) Mark(key);
    for (const auto& [key, gate] : other.deferred) Defer(key, gate);
  }
  /// End-of-scan cleanup. Unlike `dirty`, `deferred` persists across scans
  /// (a gate set this interval is usually due a scan or two later); only
  /// entries every scope has judged — gate at or before `judged_before` —
  /// retire. Scopes audit due entries during the scan, so erasing them
  /// here makes each deferred key cost exactly one audit.
  void Retire(double judged_before) {
    dirty.Clear();
    deferred.EraseIf([judged_before](const auto& kv) {
      return kv.second <= judged_before;
    });
    all = false;
    has_last_mark_ = false;
    has_last_defer_ = false;
  }

 private:
  Key last_mark_{};
  Key last_defer_{};
  double last_defer_gate_ = 0.0;
  bool has_last_mark_ = false;
  bool has_last_defer_ = false;
};

}  // namespace peertrack::obs
