#pragma once
// Open-addressing flat hash containers for hot bookkeeping paths.
//
// std::unordered_{map,set} pay a node allocation per element and a pointer
// chase per probe; the invariant monitor's dirty/deferred/watch structures
// (and later kernel work) churn through millions of small keys per run and
// want cache-line-local probing instead. FlatHashMap/FlatHashSet store
// entries inline in one power-of-two slot array with linear probing and a
// one-byte control array (empty / full / tombstone), so a lookup touches
// one control cache line and (usually) one slot cache line.
//
// Deliberate non-goals, to keep this small and fast:
//   * No iterator/reference stability across mutation — inserts may rehash
//     and erases may be followed by rehashes. Callers that cache pointers
//     (the invariant monitor does not, for these) must not mutate first.
//   * No copy construction/assignment (move-only) — the users are
//     long-lived per-monitor scratch structures, never value-copied.
//   * Erase uses tombstones; rehash (triggered by load, including dead
//     slots, crossing 7/8) purges them.
//
// The table mixes the user hash with a 64-bit finalizer before masking, so
// identity hashes (libstdc++ std::hash<int>, pointers with aligned low
// bits) still spread across power-of-two tables.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>

namespace peertrack::util {

/// splitmix64 finalizer: applied on top of every user-provided hash.
inline std::size_t FlatHashMix(std::size_t value) noexcept {
  std::uint64_t z = static_cast<std::uint64_t>(value);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<std::size_t>(z ^ (z >> 31));
}

namespace flat_detail {

inline constexpr std::uint8_t kEmpty = 0;
inline constexpr std::uint8_t kFull = 1;
inline constexpr std::uint8_t kTombstone = 2;

/// Core open-addressing table. `Value` is the stored slot type; `KeyOf`
/// projects the lookup key out of a stored value.
template <typename Value, typename Key, typename KeyOf, typename Hash>
class FlatTable {
 public:
  FlatTable() = default;
  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;
  FlatTable(FlatTable&& other) noexcept { Swap(other); }
  FlatTable& operator=(FlatTable&& other) noexcept {
    if (this != &other) {
      Destroy();
      Swap(other);
    }
    return *this;
  }
  ~FlatTable() { Destroy(); }

  std::size_t Size() const noexcept { return size_; }
  bool Empty() const noexcept { return size_ == 0; }

  void Swap(FlatTable& other) noexcept {
    std::swap(ctrl_, other.ctrl_);
    std::swap(slots_, other.slots_);
    std::swap(capacity_, other.capacity_);
    std::swap(size_, other.size_);
    std::swap(used_, other.used_);
  }

  /// Drop every element but keep the allocation (these tables are reused
  /// scan after scan; steady-state reuse should not reallocate).
  void Clear() noexcept {
    if (capacity_ == 0) return;
    if constexpr (!std::is_trivially_destructible_v<Value>) {
      for (std::size_t i = 0; i < capacity_; ++i) {
        if (ctrl_[i] == kFull) slots_[i].~Value();
      }
    }
    std::memset(ctrl_, kEmpty, capacity_);
    size_ = 0;
    used_ = 0;
  }

  void Reserve(std::size_t count) {
    // Keep load (including future tombstones) under 7/8.
    std::size_t needed = 16;
    while (needed * 7 < count * 8) needed <<= 1;
    if (needed > capacity_) Rehash(needed);
  }

  Value* Find(const Key& key) noexcept {
    if (size_ == 0) return nullptr;
    const std::size_t mask = capacity_ - 1;
    std::size_t i = FlatHashMix(Hash{}(key)) & mask;
    while (true) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) return nullptr;
      if (c == kFull && KeyOf{}(slots_[i]) == key) return &slots_[i];
      i = (i + 1) & mask;
    }
  }

  /// Warm the cache lines a lookup/insert for `key` would touch (the home
  /// control byte and slot — probe tails past the home position are not
  /// covered). Callers streaming keyed operations issue this a few items
  /// ahead so the probe miss overlaps useful work instead of stalling it.
  void Prefetch(const Key& key) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (capacity_ == 0) return;
    const std::size_t i = FlatHashMix(Hash{}(key)) & (capacity_ - 1);
    __builtin_prefetch(ctrl_ + i, 0, 1);
    __builtin_prefetch(slots_ + i, 0, 1);
#else
    (void)key;
#endif
  }
  const Value* Find(const Key& key) const noexcept {
    return const_cast<FlatTable*>(this)->Find(key);
  }
  bool Contains(const Key& key) const noexcept { return Find(key) != nullptr; }

  /// Insert `value` unless its key is present. Returns (slot, inserted).
  template <typename V>
  std::pair<Value*, bool> Insert(const Key& key, V&& value) {
    GrowIfNeeded();
    const std::size_t mask = capacity_ - 1;
    std::size_t i = FlatHashMix(Hash{}(key)) & mask;
    std::size_t grave = capacity_;  // First tombstone seen, if any.
    while (true) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) {
        if (grave != capacity_) {
          i = grave;  // Reuse the dead slot: shortens future probes.
        } else {
          ++used_;
        }
        new (&slots_[i]) Value(std::forward<V>(value));
        ctrl_[i] = kFull;
        ++size_;
        return {&slots_[i], true};
      }
      if (c == kFull && KeyOf{}(slots_[i]) == key) return {&slots_[i], false};
      if (c == kTombstone && grave == capacity_) grave = i;
      i = (i + 1) & mask;
    }
  }

  bool Erase(const Key& key) noexcept {
    Value* slot = Find(key);
    if (slot == nullptr) return false;
    EraseSlot(slot - slots_);
    return true;
  }

  /// Erase every element matching `pred(value)`. Returns erased count.
  template <typename Pred>
  std::size_t EraseIf(const Pred& pred) noexcept {
    std::size_t erased = 0;
    for (std::size_t i = 0; i < capacity_ && size_ > 0; ++i) {
      if (ctrl_[i] == kFull && pred(slots_[i])) {
        EraseSlot(i);
        ++erased;
      }
    }
    return erased;
  }

  // Minimal forward iteration (range-for support).
  template <typename Table, typename Ref>
  class Iter {
   public:
    Iter(Table* table, std::size_t index) : table_(table), index_(index) {
      SkipDead();
    }
    Ref& operator*() const noexcept { return table_->slots_[index_]; }
    Ref* operator->() const noexcept { return &table_->slots_[index_]; }
    Iter& operator++() noexcept {
      ++index_;
      SkipDead();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) noexcept {
      return a.index_ == b.index_;
    }

   private:
    void SkipDead() noexcept {
      while (index_ < table_->capacity_ && table_->ctrl_[index_] != kFull) {
        ++index_;
      }
    }
    Table* table_;
    std::size_t index_;
  };
  using iterator = Iter<FlatTable, Value>;
  using const_iterator = Iter<const FlatTable, const Value>;

  iterator begin() noexcept { return iterator(this, 0); }
  iterator end() noexcept { return iterator(this, capacity_); }
  const_iterator begin() const noexcept { return const_iterator(this, 0); }
  const_iterator end() const noexcept { return const_iterator(this, capacity_); }

 private:
  void EraseSlot(std::size_t i) noexcept {
    slots_[i].~Value();
    ctrl_[i] = kTombstone;
    --size_;
  }

  void GrowIfNeeded() {
    if (capacity_ == 0) {
      Rehash(16);
    } else if ((used_ + 1) * 8 > capacity_ * 7) {
      // Tombstone-heavy tables rehash in place (same capacity) to purge
      // graves; genuinely full ones double.
      Rehash(size_ * 8 >= capacity_ * 7 ? capacity_ * 2 : capacity_);
    }
  }

  void Rehash(std::size_t new_capacity) {
    std::uint8_t* old_ctrl = ctrl_;
    Value* old_slots = slots_;
    const std::size_t old_capacity = capacity_;

    ctrl_ = new std::uint8_t[new_capacity];
    std::memset(ctrl_, kEmpty, new_capacity);
    slots_ = static_cast<Value*>(::operator new(
        new_capacity * sizeof(Value), std::align_val_t(alignof(Value))));
    capacity_ = new_capacity;
    size_ = 0;
    used_ = 0;

    const std::size_t mask = new_capacity - 1;
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old_ctrl[i] != kFull) continue;
      std::size_t j = FlatHashMix(Hash{}(KeyOf{}(old_slots[i]))) & mask;
      while (ctrl_[j] != kEmpty) j = (j + 1) & mask;
      new (&slots_[j]) Value(std::move(old_slots[i]));
      ctrl_[j] = kFull;
      old_slots[i].~Value();
      ++size_;
      ++used_;
    }
    delete[] old_ctrl;
    ::operator delete(old_slots, std::align_val_t(alignof(Value)));
  }

  void Destroy() noexcept {
    if (capacity_ == 0) return;
    Clear();
    delete[] ctrl_;
    ::operator delete(slots_, std::align_val_t(alignof(Value)));
    ctrl_ = nullptr;
    slots_ = nullptr;
    capacity_ = 0;
  }

  std::uint8_t* ctrl_ = nullptr;
  Value* slots_ = nullptr;
  std::size_t capacity_ = 0;  ///< Power of two (or 0 before first insert).
  std::size_t size_ = 0;      ///< Live elements.
  std::size_t used_ = 0;      ///< Live + tombstoned slots.
};

struct IdentityKeyOf {
  template <typename T>
  const T& operator()(const T& value) const noexcept {
    return value;
  }
};

struct PairKeyOf {
  template <typename P>
  const auto& operator()(const P& pair) const noexcept {
    return pair.first;
  }
};

}  // namespace flat_detail

/// Open-addressing hash map. Values live inline; see file comment for the
/// stability contract. Iteration yields std::pair<K, V>& (structured
/// bindings work); iteration order is unspecified.
template <typename K, typename V, typename Hash = std::hash<K>>
class FlatHashMap {
 public:
  using value_type = std::pair<K, V>;

  std::size_t Size() const noexcept { return table_.Size(); }
  bool Empty() const noexcept { return table_.Empty(); }
  void Clear() noexcept { table_.Clear(); }
  void Reserve(std::size_t count) { table_.Reserve(count); }
  void Swap(FlatHashMap& other) noexcept { table_.Swap(other.table_); }

  bool Contains(const K& key) const noexcept { return table_.Contains(key); }
  void Prefetch(const K& key) const noexcept { table_.Prefetch(key); }

  /// Pointer to the mapped value, or nullptr.
  V* Find(const K& key) noexcept {
    value_type* slot = table_.Find(key);
    return slot != nullptr ? &slot->second : nullptr;
  }
  const V* Find(const K& key) const noexcept {
    return const_cast<FlatHashMap*>(this)->Find(key);
  }

  /// Insert (key, value) unless key is present; never overwrites.
  /// Returns (slot, inserted) like std::unordered_map::try_emplace.
  std::pair<value_type*, bool> TryEmplace(const K& key, V value) {
    return table_.Insert(key, value_type(key, std::move(value)));
  }

  /// Mapped value for `key`, default-constructed on first access.
  V& operator[](const K& key) {
    return table_.Insert(key, value_type(key, V{})).first->second;
  }

  bool Erase(const K& key) noexcept { return table_.Erase(key); }

  /// Erase every (key, value) matching `pred(pair)`; returns erased count.
  template <typename Pred>
  std::size_t EraseIf(const Pred& pred) noexcept {
    return table_.EraseIf(pred);
  }

  auto begin() noexcept { return table_.begin(); }
  auto end() noexcept { return table_.end(); }
  auto begin() const noexcept { return table_.begin(); }
  auto end() const noexcept { return table_.end(); }

 private:
  flat_detail::FlatTable<value_type, K, flat_detail::PairKeyOf, Hash> table_;
};

/// Open-addressing hash set of keys. Iteration yields const K&.
template <typename K, typename Hash = std::hash<K>>
class FlatHashSet {
 public:
  std::size_t Size() const noexcept { return table_.Size(); }
  bool Empty() const noexcept { return table_.Empty(); }
  void Clear() noexcept { table_.Clear(); }
  void Reserve(std::size_t count) { table_.Reserve(count); }
  void Swap(FlatHashSet& other) noexcept { table_.Swap(other.table_); }

  bool Contains(const K& key) const noexcept { return table_.Contains(key); }

  /// True when the key was newly inserted.
  bool Insert(const K& key) { return table_.Insert(key, key).second; }

  bool Erase(const K& key) noexcept { return table_.Erase(key); }

  auto begin() const noexcept { return table_.begin(); }
  auto end() const noexcept { return table_.end(); }

 private:
  flat_detail::FlatTable<K, K, flat_detail::IdentityKeyOf, Hash> table_;
};

}  // namespace peertrack::util
