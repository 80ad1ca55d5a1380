#pragma once
// Always-on hierarchical cost-attribution profiler.
//
// The paper evaluates indexing purely in message counts; BENCH.json added
// coarse wall totals, but driving invariant-audit overhead below 10% (and
// balancing the future sharded kernel) needs to know *where inside* a
// phase the time goes. PROF_SCOPE(category, name) plants an RAII scoped
// timer; nested scopes form per-thread frame stacks that aggregate into a
// path tree (one node per unique call path), so "gateway.staleness spends
// 60% of its wall in site resolution" falls out of the data instead of
// guesswork.
//
// Hot-path budget — the profiler is meant to stay on in every run:
//  * Scope names are interned ONCE (function-local static / lazy cache) to
//    a dense ProfScopeId; entering a scope is an indexed child lookup and
//    a frame push — no string hashing, no allocation (amortized; the frame
//    stack and per-node child arrays grow once).
//  * The clock is rdtsc on x86-64 (std::chrono::steady_clock elsewhere);
//    tick counts are calibrated to milliseconds only at snapshot time.
//    Even a ~15 ns rdtsc dominates scope cost on hot paths (measured:
//    clock reads were >80% of profiler overhead), so timing is hybrid:
//    a node's first kExactTimedHits entries are all timed (cold scopes —
//    tests, phase roots — stay exact), after which only ~1 entry in 16 is
//    timed (cheap per-thread LCG) and Snapshot() scales the sampled sum
//    by sampled_hits/sampled_timed. Hit counts stay exact for full
//    scopes (leaf scopes estimate them past warmup, see below). Every
//    timed interval additionally carries the clock-pair latency as a
//    constant additive bias (virtualized rdtsc can run 30-40 ns — 10x a
//    leaf body); Snapshot() calibrates that floor with back-to-back
//    clock reads and debiases each node's estimate, so nanoseconds-scale
//    leaf scopes report their true body cost.
//  * Per-item sites inside hot loops (bus.publish, the invariant
//    oracle-fetch and site-resolve phases) use PROF_LEAF_SCOPE: same node
//    identity, but no frame push, no alloc deltas, and ENTRY-sampled
//    accounting past a per-call-site warmup (an undrawn entry touches
//    only the RNG; a drawn one counts for 16) — see the ProfLeafScope
//    leaf contract. Past warmup their hit counts are unbiased estimates
//    with sub-percent error at hot-loop volumes, not exact.
//  * Bytes allocated per scope come from the sim::MessagePool hook
//    (prof::OnAlloc): inclusive/exclusive message-allocation volume per
//    scope, attributing allocator churn the same way wall time is — alloc
//    attribution involves no clock and is always exact.
//
// Aggregation model: each thread owns a tree of path nodes (root = no open
// scope). A node accumulates hits, inclusive ticks, and inclusive/
// exclusive allocation. Recursion creates distinct nodes per depth
// (a;b;a), so per-node stats never double count; per-SCOPE inclusive
// totals (summing nodes of one scope id) do double-count recursive nests —
// exclusive totals always sum to the truth. Exclusive wall is derived at
// snapshot time per node as incl - sum(children incl), clamped at zero
// (sampling noise can push a hot parent slightly negative). Snapshot()
// merges all threads by path. Take snapshots at quiesce points (between
// runs, after joining worker pools): stats are plain counters and node
// creation is mutex-guarded, but a snapshot racing a running scope may
// read a torn frame.
//
// Export (see DESIGN.md §11):
//  * Profiler::Snapshot() -> Report: path tree + per-scope totals, for the
//    BENCH.json "profile" block (bench/perf_smoke --profile).
//  * CollapsedStacks(report): "root;a;b <weight>" text loadable by standard
//    flamegraph tools (weight = exclusive microseconds).
//
// Switch: the A/B in bench/perf_smoke and perfbench toggles the runtime
// switch (SetEnabled), which leaves one predictable branch per scope.
//
// Like registry.hpp, this header sits below sim/ — std only.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace peertrack::obs {

/// Dense process-wide id of an interned (category, name) scope. 0 is
/// reserved (invalid / "not yet interned"); valid ids start at 1.
using ProfScopeId = std::uint32_t;
inline constexpr ProfScopeId kInvalidProfScope = 0;

namespace prof {

/// Monotonic tick counter: rdtsc on x86-64, steady_clock elsewhere.
inline std::uint64_t NowTicks() noexcept;

/// Allocation hook (called by sim::MessagePool): attribute `bytes` to the
/// calling thread's open scopes. No-op while the profiler is disabled.
void OnAlloc(std::size_t bytes) noexcept;

/// Runtime switch backing store (header-inline so Enabled() folds to one
/// relaxed load on the hot path). Use Profiler::SetEnabled to toggle.
inline std::atomic<bool> g_profiler_enabled{true};

}  // namespace prof

class Profiler {
 public:
  /// Intern "category.name" to a stable id (same string -> same id, from
  /// any thread). Slow (mutex + map): call once and cache — PROF_SCOPE
  /// does this via a function-local static, dynamic call sites via a lazy
  /// member/capture cache.
  static ProfScopeId Intern(std::string_view category, std::string_view name);

  /// Runtime switch (default ON — the profiler is meant to be always-on).
  /// Toggle only between runs: scopes open across a toggle attribute their
  /// tail to whatever node is current.
  static void SetEnabled(bool enabled) noexcept {
    prof::g_profiler_enabled.store(enabled, std::memory_order_relaxed);
  }
  static bool Enabled() noexcept {
    return prof::g_profiler_enabled.load(std::memory_order_relaxed);
  }

  /// Zero every thread's accumulated stats (path trees survive, so cached
  /// ids and child arrays stay warm) and re-seed the sampling LCGs so
  /// same-work runs produce the same profile. Call at quiesce points only.
  static void Reset() noexcept;

  /// A node's first kExactTimedHits entries are always clock-timed; later
  /// entries are timed with probability 1/16 and scaled at snapshot.
  static constexpr std::uint64_t kExactTimedHits = 1024;

  struct ScopeInfo {
    std::string category;
    std::string name;
    std::string full;  ///< "category.name"
  };

  /// One path-tree node, merged across threads. `parent` indexes into
  /// Report::nodes (root children have parent == kNoParent).
  struct NodeReport {
    static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
    ProfScopeId scope = kInvalidProfScope;
    std::uint32_t parent = kNoParent;
    std::uint64_t hits = 0;
    double incl_ms = 0.0;
    double excl_ms = 0.0;
    std::uint64_t alloc_bytes = 0;       ///< Inclusive pool bytes.
    std::uint64_t excl_alloc_bytes = 0;
    std::uint64_t allocs = 0;            ///< Inclusive pool allocations.
    std::uint64_t excl_allocs = 0;
  };

  /// Per-scope totals across every node of that scope. Exclusive fields
  /// sum exactly; inclusive fields double-count recursive nests.
  struct ScopeReport {
    ProfScopeId scope = kInvalidProfScope;
    std::uint64_t hits = 0;
    double incl_ms = 0.0;
    double excl_ms = 0.0;
    std::uint64_t alloc_bytes = 0;
    std::uint64_t allocs = 0;
  };

  struct Report {
    /// scopes[id] describes ProfScopeId id (index 0 is the unused
    /// kInvalidProfScope slot).
    std::vector<ScopeInfo> scopes;
    std::vector<NodeReport> nodes;    ///< Parents precede children.
    std::vector<ScopeReport> totals;  ///< Sorted by descending excl_ms.
    double ticks_per_ms = 0.0;
    /// Sum of incl_ms over root-level nodes: everything attributed to a
    /// named top-level scope. Divide by the measured wall of the same
    /// region for the coverage fraction.
    double root_incl_ms = 0.0;

    const ScopeInfo& InfoOf(ProfScopeId id) const { return scopes[id]; }
    /// Full "a;b;c" path of a node (collapsed-stack order, root first).
    std::string PathOf(std::uint32_t node_index) const;
  };

  /// Merge every thread's tree (live and retired) into one report.
  static Report Snapshot();

  /// Render `report` as collapsed-stack text: one "path1;path2;... N" line
  /// per node with nonzero exclusive time, N = exclusive microseconds
  /// (integer, minimum 1 for nonzero time). Frame names have the
  /// separator characters ';' and ' ' escaped as ':' and '_' so standard
  /// flamegraph tooling parses them.
  static std::string CollapsedStacks(const Report& report);
  static bool WriteCollapsed(const Report& report, const std::string& path);

  // --- Hot-path internals (used by ProfScope / prof::OnAlloc) -------------
  // Enter/Exit are header-inline: two clock reads plus counter arithmetic.
  // Only first-visit node creation (CreateNode) takes the global mutex.
  struct ThreadState;
  static ThreadState& State() noexcept;
  static void Enter(ThreadState& ts, ProfScopeId id) noexcept;
  static void Exit(ThreadState& ts) noexcept;

 private:
  friend class ProfLeafScope;
  /// Slow path of Enter: create (and link) the path node for scope `id`
  /// under the current node. Mutex-guarded so Snapshot never observes the
  /// nodes vector mid-resize.
  static std::uint32_t CreateNode(ThreadState& ts, ProfScopeId id) noexcept;
};

struct Profiler::ThreadState {
  struct Frame {
    std::uint32_t node = 0;
    bool timed = false;  ///< This entry read the clock at Enter.
    bool exact = false;  ///< Entry was in the always-timed regime.
    std::uint64_t start_ticks = 0;
    std::uint64_t alloc_bytes_at_entry = 0;
    std::uint64_t allocs_at_entry = 0;
    std::uint64_t child_alloc_bytes = 0;
    std::uint64_t child_allocs = 0;
  };
  struct Node {
    ProfScopeId scope = kInvalidProfScope;
    std::uint32_t parent = 0;  ///< Node index; root is its own parent.
    std::uint64_t hits = 0;          ///< Every entry (exact).
    std::uint64_t exact_ticks = 0;   ///< Ticks from always-timed entries.
    std::uint64_t sampled_hits = 0;  ///< Entries past kExactTimedHits.
    std::uint64_t sampled_timed = 0;   ///< ...of which were clock-timed.
    std::uint64_t sampled_ticks = 0;   ///< Ticks from those timed entries.
    /// Smallest timed interval seen — the node's noise-free body floor.
    /// Leaf scopes winsorize against it (see ~ProfLeafScope).
    std::uint64_t min_timed_ticks = ~std::uint64_t{0};
    std::uint64_t alloc_bytes = 0;
    std::uint64_t excl_alloc_bytes = 0;
    std::uint64_t allocs = 0;
    std::uint64_t excl_allocs = 0;
    /// children[scope_id] = node index (0 = none yet). Sized lazily.
    std::vector<std::uint32_t> children;
  };

  static constexpr std::uint64_t kRngSeed = 0x9E3779B97F4A7C15ull;

  /// Advance the Knuth LCG; the top 4 bits give the 1/16 sampled-timing
  /// draw shared by ProfScope and ProfLeafScope.
  static bool SampledTimingDraw(std::uint64_t& rng) noexcept {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 60) == 0;
  }

  ThreadState();
  ~ThreadState();

  std::vector<Node> nodes;    ///< nodes[0] is the root.
  std::vector<Frame> stack;
  std::uint32_t current = 0;  ///< Node of the innermost open scope.
  std::uint64_t rng = kRngSeed;   ///< LCG for the sampled-timing draw.
  std::uint64_t alloc_bytes = 0;  ///< Running pool-allocation totals,
  std::uint64_t allocs = 0;       ///< bumped by prof::OnAlloc.
};

inline Profiler::ThreadState& Profiler::State() noexcept {
  thread_local ThreadState state;
  return state;
}

inline void Profiler::Enter(ThreadState& ts, ProfScopeId id) noexcept {
  const ThreadState::Node& parent = ts.nodes[ts.current];
  std::uint32_t child = id < parent.children.size() ? parent.children[id] : 0;
  if (child == 0) child = CreateNode(ts, id);  // First visit of this path.
  ThreadState::Frame frame;
  frame.node = child;
  frame.alloc_bytes_at_entry = ts.alloc_bytes;
  frame.allocs_at_entry = ts.allocs;
  if (ts.nodes[child].hits < kExactTimedHits) {
    frame.exact = true;
    frame.timed = true;
  } else {
    frame.timed = ThreadState::SampledTimingDraw(ts.rng);
  }
  ts.stack.push_back(frame);
  ts.current = child;
  if (frame.timed) {
    ts.stack.back().start_ticks = prof::NowTicks();  // Last: exclude setup.
  }
}

inline void Profiler::Exit(ThreadState& ts) noexcept {
  std::uint64_t incl = 0;
  {
    const ThreadState::Frame& open = ts.stack.back();
    if (open.timed) {  // Clock first: exclude the teardown below.
      const std::uint64_t end_ticks = prof::NowTicks();
      incl = end_ticks >= open.start_ticks ? end_ticks - open.start_ticks : 0;
    }
  }
  const ThreadState::Frame frame = ts.stack.back();
  ts.stack.pop_back();
  const std::uint64_t incl_bytes = ts.alloc_bytes - frame.alloc_bytes_at_entry;
  const std::uint64_t incl_allocs = ts.allocs - frame.allocs_at_entry;
  ThreadState::Node& node = ts.nodes[frame.node];
  ++node.hits;
  if (frame.exact) {
    node.exact_ticks += incl;
  } else {
    ++node.sampled_hits;
    if (frame.timed) {
      ++node.sampled_timed;
      node.sampled_ticks += incl;
    }
  }
  node.alloc_bytes += incl_bytes;
  node.excl_alloc_bytes +=
      incl_bytes - std::min(frame.child_alloc_bytes, incl_bytes);
  node.allocs += incl_allocs;
  node.excl_allocs += incl_allocs - std::min(frame.child_allocs, incl_allocs);
  if (!ts.stack.empty()) {
    ThreadState::Frame& up = ts.stack.back();
    up.child_alloc_bytes += incl_bytes;
    up.child_allocs += incl_allocs;
    ts.current = up.node;
  } else {
    ts.current = 0;
  }
}

/// RAII scope handle. Constructed with an interned id; pairs Enter/Exit.
class ProfScope {
 public:
  explicit ProfScope(ProfScopeId id) noexcept {
    if (Profiler::Enabled() && id != kInvalidProfScope) {
      state_ = &Profiler::State();
      Profiler::Enter(*state_, id);
    }
  }
  ~ProfScope() {
    if (state_ != nullptr) Profiler::Exit(*state_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler::ThreadState* state_ = nullptr;
};

/// Cheap RAII handle for guaranteed-LEAF scopes on per-item hot paths
/// (bus.publish, invariant.site_resolve/oracle_fetch: millions of entries
/// per run). Node identity and path placement match a full ProfScope, but
/// the frame push/pop and allocation bookkeeping are skipped —
/// `ThreadState::current` stays on the parent — and accounting is
/// ENTRY-sampled past a warmup: the call site's first kExactTimedHits
/// entries (per thread) get exact hits and exact timing, after which an
/// undrawn entry (15 in 16) touches nothing but the per-thread RNG, and a
/// drawn entry is timed and counts for 16 (`hits += 16`, unbiased; the
/// relative error at the millions-of-entries volumes these sites run is
/// well under 1%). The leaf contract that buys this:
///  * nothing may open a scope inside one (it would attach to the leaf's
///    PARENT and corrupt exclusive-time subtraction),
///  * pool allocations made inside attribute to the enclosing scope, not
///    the leaf (these sites do no pool allocation), and
///  * past warmup, hit counts are sub-percent ESTIMATES, not exact — and
///    the warmup counter is per call site / per thread, so Profiler::
///    Reset() does not rewind it (an already-warm site samples at once).
class ProfLeafScope {
 public:
  ProfLeafScope(ProfScopeId id, std::uint32_t& warm) noexcept {
    if (!Profiler::Enabled() || id == kInvalidProfScope) return;
    Profiler::ThreadState& ts = Profiler::State();
    bool exact = false;
    if (warm < Profiler::kExactTimedHits) {
      ++warm;
      exact = true;
    } else if (!Profiler::ThreadState::SampledTimingDraw(ts.rng)) {
      return;  // Undrawn: no node access at all.
    }
    const Profiler::ThreadState::Node& parent = ts.nodes[ts.current];
    std::uint32_t node = id < parent.children.size() ? parent.children[id] : 0;
    if (node == 0) node = Profiler::CreateNode(ts, id);
    ts_ = &ts;
    node_ = node;  // Index, not a reference: CreateNode may reallocate.
    exact_ = exact;
    start_ = prof::NowTicks();  // Last: exclude setup.
  }
  ~ProfLeafScope() {
    if (ts_ == nullptr) return;
    // Clock first: exclude the bookkeeping below.
    const std::uint64_t end_ticks = prof::NowTicks();
    std::uint64_t incl = end_ticks >= start_ ? end_ticks - start_ : 0;
    Profiler::ThreadState::Node& node = ts_->nodes[node_];
    // Winsorize against the node's running floor: leaf bodies are tiny and
    // uniform by contract, so a reading far above the best-ever interval is
    // a context switch caught between the two clock reads — milliseconds
    // billed to a nanoseconds body, then amplified 16x by the sampling
    // weight. 32x the floor comfortably covers legitimate cache-miss
    // variance; preemption (10 us and up) does not survive the clamp.
    if (incl < node.min_timed_ticks) node.min_timed_ticks = incl;
    const std::uint64_t cap = node.min_timed_ticks * 32;
    if (incl > cap) incl = cap;
    if (exact_) {
      ++node.hits;
      node.exact_ticks += incl;
    } else {
      // One drawn entry stands for 16: bumping sampled_hits by 16 and
      // sampled_timed by 1 makes Snapshot's sampled_hits/sampled_timed
      // scale come out as the sampling rate, no special casing.
      node.hits += 16;
      node.sampled_hits += 16;
      ++node.sampled_timed;
      node.sampled_ticks += incl;
    }
  }
  ProfLeafScope(const ProfLeafScope&) = delete;
  ProfLeafScope& operator=(const ProfLeafScope&) = delete;

 private:
  Profiler::ThreadState* ts_ = nullptr;
  std::uint32_t node_ = 0;
  bool exact_ = false;
  std::uint64_t start_ = 0;
};

namespace prof {

inline std::uint64_t NowTicks() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

inline void OnAlloc(std::size_t bytes) noexcept {
  if (!Profiler::Enabled()) return;
  Profiler::ThreadState& ts = Profiler::State();
  ts.alloc_bytes += static_cast<std::uint64_t>(bytes);
  ++ts.allocs;
}

}  // namespace prof

// --- Macros -----------------------------------------------------------------
//
// PROF_SCOPE("category", "name"): static interning + RAII scope. The
// arguments must be string literals (or at least live forever); interning
// happens once per call site.
//
// PROF_SCOPE_ID(id): RAII scope over an already-interned id (per-check,
// per-message-type call sites that cache their id in a member).
//
// PROF_LAZY_SCOPE(cache, category, name_expr): for call sites whose name
// is only known at runtime (message TypeName()); `cache` is a ProfScopeId
// lvalue that starts at kInvalidProfScope and memoizes the interned id.
//
// PROF_LEAF_SCOPE(category, name): like PROF_SCOPE but builds a
// ProfLeafScope over a per-call-site (thread-local) warmup counter —
// per-item hot paths only; see the leaf contract on that class (no
// nested scopes, allocations attribute to the parent, entry-sampled
// hit estimates past warmup).

#define PEERTRACK_PROF_CONCAT2(a, b) a##b
#define PEERTRACK_PROF_CONCAT(a, b) PEERTRACK_PROF_CONCAT2(a, b)

#define PROF_SCOPE(category, name)                                            \
  static const ::peertrack::obs::ProfScopeId PEERTRACK_PROF_CONCAT(           \
      prof_scope_id_, __LINE__) =                                             \
      ::peertrack::obs::Profiler::Intern((category), (name));                 \
  const ::peertrack::obs::ProfScope PEERTRACK_PROF_CONCAT(prof_scope_,        \
                                                          __LINE__)(          \
      PEERTRACK_PROF_CONCAT(prof_scope_id_, __LINE__))

#define PROF_SCOPE_ID(id) const ::peertrack::obs::ProfScope prof_scope_by_id_(id)

#define PROF_LEAF_SCOPE(category, name)                                       \
  static const ::peertrack::obs::ProfScopeId PEERTRACK_PROF_CONCAT(           \
      prof_leaf_id_, __LINE__) =                                              \
      ::peertrack::obs::Profiler::Intern((category), (name));                 \
  static thread_local std::uint32_t PEERTRACK_PROF_CONCAT(prof_leaf_warm_,    \
                                                          __LINE__) = 0;      \
  const ::peertrack::obs::ProfLeafScope PEERTRACK_PROF_CONCAT(prof_leaf_,     \
                                                              __LINE__)(      \
      PEERTRACK_PROF_CONCAT(prof_leaf_id_, __LINE__),                         \
      PEERTRACK_PROF_CONCAT(prof_leaf_warm_, __LINE__))

#define PROF_LAZY_SCOPE(cache, category, name_expr)                           \
  if ((cache) == ::peertrack::obs::kInvalidProfScope) {                       \
    (cache) = ::peertrack::obs::Profiler::Intern((category), (name_expr));    \
  }                                                                           \
  const ::peertrack::obs::ProfScope prof_scope_lazy_((cache))

}  // namespace peertrack::obs
