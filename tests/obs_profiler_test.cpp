// Correctness tests for the always-on cost-attribution profiler
// (obs/profiler.hpp): hierarchical exclusive/inclusive accounting,
// recursion handling, interned-id stability across threads, allocation
// attribution, collapsed-stack escaping, and the bit-identity guarantee
// that instrumentation never perturbs the simulation.
//
// The profiler is process-global state shared by every test in this
// binary, so each test starts with Profiler::Reset() and filters the
// snapshot by its own unique "test.*" scope names. Workloads stay well
// under Profiler::kExactTimedHits entries per node, so every assertion
// runs in the exact (always-timed) regime — no sampling noise.

#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/delta_bus.hpp"
#include "obs/flight_recorder.hpp"
#include "workload/perf_smoke.hpp"

namespace peertrack::obs {
namespace {

/// Busy-wait so the enclosing scope accumulates a measurable wall chunk.
void SpinFor(std::chrono::microseconds how_long) {
  const auto until = std::chrono::steady_clock::now() + how_long;
  while (std::chrono::steady_clock::now() < until) {
  }
}

const Profiler::ScopeReport* FindTotal(const Profiler::Report& report,
                                       const std::string& full) {
  for (const Profiler::ScopeReport& total : report.totals) {
    if (report.InfoOf(total.scope).full == full) return &total;
  }
  return nullptr;
}

std::vector<std::uint32_t> FindNodes(const Profiler::Report& report,
                                     const std::string& full) {
  std::vector<std::uint32_t> found;
  for (std::uint32_t i = 0; i < report.nodes.size(); ++i) {
    if (report.InfoOf(report.nodes[i].scope).full == full) found.push_back(i);
  }
  return found;
}

TEST(Profiler, NestedScopesSumExclusiveToParentInclusive) {
  Profiler::Reset();
  {
    PROF_SCOPE("test", "nest_outer");
    SpinFor(std::chrono::microseconds(400));
    {
      PROF_SCOPE("test", "nest_inner");
      SpinFor(std::chrono::microseconds(400));
    }
    SpinFor(std::chrono::microseconds(400));
  }
  const Profiler::Report report = Profiler::Snapshot();

  const auto outers = FindNodes(report, "test.nest_outer");
  const auto inners = FindNodes(report, "test.nest_inner");
  ASSERT_EQ(outers.size(), 1u);
  ASSERT_EQ(inners.size(), 1u);
  const Profiler::NodeReport& outer = report.nodes[outers[0]];
  const Profiler::NodeReport& inner = report.nodes[inners[0]];
  EXPECT_EQ(outer.hits, 1u);
  EXPECT_EQ(inner.hits, 1u);
  EXPECT_EQ(inner.parent, outers[0]);
  EXPECT_EQ(outer.parent, Profiler::NodeReport::kNoParent);

  // The inner scope is the outer's only child, so the snapshot-derived
  // exclusive must be exactly incl(outer) - incl(inner).
  EXPECT_GT(inner.incl_ms, 0.0);
  EXPECT_LT(inner.incl_ms, outer.incl_ms);
  EXPECT_NEAR(outer.excl_ms, outer.incl_ms - inner.incl_ms,
              1e-9 * outer.incl_ms + 1e-12);
  // ~400us of the ~1.2ms outer wall belongs to the inner scope.
  EXPECT_GT(outer.incl_ms, 1.0);
  EXPECT_GT(inner.incl_ms, 0.3);
  EXPECT_GT(outer.excl_ms, 0.6);
  // A leaf's exclusive equals its inclusive.
  EXPECT_DOUBLE_EQ(inner.excl_ms, inner.incl_ms);
}

void Recurse(ProfScopeId id, int depth) {
  PROF_SCOPE_ID(id);
  SpinFor(std::chrono::microseconds(200));
  if (depth > 1) Recurse(id, depth - 1);
}

TEST(Profiler, RecursionCreatesOnePathNodePerDepth) {
  Profiler::Reset();
  const ProfScopeId id = Profiler::Intern("test", "recurse");
  Recurse(id, 3);
  const Profiler::Report report = Profiler::Snapshot();

  const auto nodes = FindNodes(report, "test.recurse");
  ASSERT_EQ(nodes.size(), 3u);  // One node per depth, 1 hit each.
  double sum_excl = 0.0;
  double max_incl = 0.0;
  std::set<std::string> paths;
  for (const std::uint32_t index : nodes) {
    const Profiler::NodeReport& node = report.nodes[index];
    EXPECT_EQ(node.hits, 1u);
    sum_excl += node.excl_ms;
    max_incl = std::max(max_incl, node.incl_ms);
    paths.insert(report.PathOf(index));
  }
  EXPECT_TRUE(paths.contains("test.recurse"));
  EXPECT_TRUE(paths.contains("test.recurse;test.recurse"));
  EXPECT_TRUE(paths.contains("test.recurse;test.recurse;test.recurse"));

  // Exclusive never double counts: the depth-wise exclusive sum equals the
  // outermost inclusive, which is also the per-scope total's excl_ms.
  EXPECT_NEAR(sum_excl, max_incl, 1e-9 * max_incl + 1e-12);
  const Profiler::ScopeReport* total = FindTotal(report, "test.recurse");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->hits, 3u);
  EXPECT_NEAR(total->excl_ms, max_incl, 1e-9 * max_incl + 1e-12);
  // Per-scope INCLUSIVE totals double-count recursive nests by design: the
  // two inner depths' spins (400 + 200 us, wall-clock minimums) land in the
  // total a second time. An absolute floor rather than a ratio — preemption
  // during the outermost spin inflates excl_ms arbitrarily on loaded
  // single-core hosts, but can only ever widen this difference.
  EXPECT_GT(total->incl_ms, total->excl_ms + 0.5);
}

TEST(Profiler, InternIsStableAcrossThreads) {
  const ProfScopeId here = Profiler::Intern("test", "intern_race");
  std::vector<std::thread> threads;
  std::vector<ProfScopeId> seen(8, kInvalidProfScope);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([i, &seen] {
      seen[i] = Profiler::Intern("test", "intern_race");
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const ProfScopeId id : seen) EXPECT_EQ(id, here);
  EXPECT_NE(Profiler::Intern("test", "intern_other"), here);

  // Scopes entered on a now-dead thread still reach the snapshot (the
  // thread's tree is retired into the global registry, not dropped).
  Profiler::Reset();
  std::thread worker([here] {
    const ProfScope scope(here);
    SpinFor(std::chrono::microseconds(200));
  });
  worker.join();
  const Profiler::Report report = Profiler::Snapshot();
  const Profiler::ScopeReport* total = FindTotal(report, "test.intern_race");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->hits, 1u);
  EXPECT_GT(total->excl_ms, 0.0);
}

TEST(Profiler, DisabledScopesDoNotAccumulate) {
  Profiler::Reset();
  Profiler::SetEnabled(false);
  {
    PROF_SCOPE("test", "while_disabled");
    SpinFor(std::chrono::microseconds(100));
  }
  Profiler::SetEnabled(true);
  const Profiler::Report report = Profiler::Snapshot();
  const Profiler::ScopeReport* total = FindTotal(report, "test.while_disabled");
  // Either the node was never created, or it carries zero hits.
  if (total != nullptr) {
    EXPECT_EQ(total->hits, 0u);
    EXPECT_DOUBLE_EQ(total->incl_ms, 0.0);
  }
}

TEST(Profiler, ResetZeroesStatsButKeepsInternedIds) {
  Profiler::Reset();
  const ProfScopeId id = Profiler::Intern("test", "reset_me");
  {
    const ProfScope scope(id);
    SpinFor(std::chrono::microseconds(100));
  }
  {
    const Profiler::Report before = Profiler::Snapshot();
    const Profiler::ScopeReport* total = FindTotal(before, "test.reset_me");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->hits, 1u);
  }
  Profiler::Reset();
  const Profiler::Report after = Profiler::Snapshot();
  const Profiler::ScopeReport* total = FindTotal(after, "test.reset_me");
  if (total != nullptr) {
    EXPECT_EQ(total->hits, 0u);
    EXPECT_DOUBLE_EQ(total->incl_ms, 0.0);
    EXPECT_EQ(total->alloc_bytes, 0u);
  }
  EXPECT_EQ(Profiler::Intern("test", "reset_me"), id);  // Ids survive.
}

TEST(Profiler, AllocAttributionIsInclusiveAndExclusive) {
  Profiler::Reset();
  {
    PROF_SCOPE("test", "alloc_outer");
    prof::OnAlloc(100);
    {
      PROF_SCOPE("test", "alloc_inner");
      prof::OnAlloc(30);
      prof::OnAlloc(20);
    }
    prof::OnAlloc(5);
  }
  const Profiler::Report report = Profiler::Snapshot();
  const auto outers = FindNodes(report, "test.alloc_outer");
  const auto inners = FindNodes(report, "test.alloc_inner");
  ASSERT_EQ(outers.size(), 1u);
  ASSERT_EQ(inners.size(), 1u);
  const Profiler::NodeReport& outer = report.nodes[outers[0]];
  const Profiler::NodeReport& inner = report.nodes[inners[0]];
  EXPECT_EQ(outer.alloc_bytes, 155u);      // Inclusive: child's 50 counted.
  EXPECT_EQ(outer.excl_alloc_bytes, 105u); // Exclusive: child's 50 removed.
  EXPECT_EQ(outer.allocs, 4u);
  EXPECT_EQ(outer.excl_allocs, 2u);
  EXPECT_EQ(inner.alloc_bytes, 50u);
  EXPECT_EQ(inner.excl_alloc_bytes, 50u);
  EXPECT_EQ(inner.allocs, 2u);
}

// PROF_LEAF_SCOPE: same node identity and wall accounting as a full
// scope (exact through the per-call-site warmup), but no frame push — so
// allocations made inside a leaf attribute to the ENCLOSING scope (the
// documented leaf contract). 100 entries stay well inside the 1024-entry
// warmup, so every assertion here is exact.
TEST(Profiler, LeafScopeCountsHitsAndLeavesAllocsToParent) {
  Profiler::Reset();
  {
    PROF_SCOPE("test", "leaf_outer");
    for (int i = 0; i < 100; ++i) {
      PROF_LEAF_SCOPE("test", "leaf_inner");
      SpinFor(std::chrono::microseconds(20));
      prof::OnAlloc(10);  // Attributes to leaf_outer, not the leaf.
    }
    SpinFor(std::chrono::microseconds(400));
  }
  const Profiler::Report report = Profiler::Snapshot();
  const auto outers = FindNodes(report, "test.leaf_outer");
  const auto leaves = FindNodes(report, "test.leaf_inner");
  ASSERT_EQ(outers.size(), 1u);
  ASSERT_EQ(leaves.size(), 1u);
  const Profiler::NodeReport& outer = report.nodes[outers[0]];
  const Profiler::NodeReport& leaf = report.nodes[leaves[0]];

  // The leaf is a real child node of the enclosing path, with exact hits
  // and (at 100 entries, still in the exact-timed regime) real wall.
  EXPECT_EQ(leaf.parent, outers[0]);
  EXPECT_EQ(leaf.hits, 100u);
  EXPECT_DOUBLE_EQ(leaf.excl_ms, leaf.incl_ms);
  EXPECT_GT(leaf.incl_ms, 1.0);          // ~100 * 20us of spinning.
  EXPECT_LT(leaf.incl_ms, outer.incl_ms);
  // Exclusive subtraction treats the leaf like any child: the outer keeps
  // only its own ~400us.
  EXPECT_NEAR(outer.excl_ms, outer.incl_ms - leaf.incl_ms,
              1e-9 * outer.incl_ms + 1e-12);

  // Alloc bookkeeping skips the leaf entirely: all 1000 bytes stay with
  // the outer scope, inclusively AND exclusively.
  EXPECT_EQ(leaf.alloc_bytes, 0u);
  EXPECT_EQ(leaf.allocs, 0u);
  EXPECT_EQ(outer.alloc_bytes, 1000u);
  EXPECT_EQ(outer.excl_alloc_bytes, 1000u);
  EXPECT_EQ(outer.allocs, 100u);
  EXPECT_EQ(outer.excl_allocs, 100u);
}

// Past the warmup, leaf entries are SAMPLED: one drawn entry in ~16
// counts for 16, so hit totals become unbiased estimates. The LCG is
// deterministic, but the assertion uses a wide statistical band so it
// does not pin the draw sequence.
TEST(Profiler, LeafScopeSamplesEntriesPastWarmup) {
  Profiler::Reset();
  constexpr std::uint64_t kWarm = Profiler::kExactTimedHits;  // 1024
  constexpr std::uint64_t kAfter = 4096;
  {
    PROF_SCOPE("test", "leaf_sampled_outer");
    for (std::uint64_t i = 0; i < kWarm + kAfter; ++i) {
      PROF_LEAF_SCOPE("test", "leaf_sampled");
    }
  }
  const Profiler::Report report = Profiler::Snapshot();
  const Profiler::ScopeReport* total = FindTotal(report, "test.leaf_sampled");
  ASSERT_NE(total, nullptr);
  // Warmup hits are exact; the 4096 post-warmup entries are estimated in
  // units of 16 with sd = 16*sqrt(4096 * 1/16 * 15/16) ~= 248. A +-6 sd
  // band stays deterministic-safe without pinning LCG internals.
  EXPECT_GE(total->hits, kWarm);
  EXPECT_EQ((total->hits - kWarm) % 16, 0u);
  EXPECT_NEAR(static_cast<double>(total->hits), kWarm + kAfter, 1500.0);
  EXPECT_GT(total->incl_ms, 0.0);  // Drawn entries still accumulate wall.
}

// The recorder mirror of a published delta must be billed once: to the
// recorder's own scopes, never also to bus.publish. Staging is off, so
// bus.publish times an empty body and the mirror is the loop's only real
// work. The loop runs on a fresh thread, whose per-call-site warmup
// counters start at zero, so the first kExactTimedHits entries of every
// leaf are exactly timed; 1000 publishes stay inside that regime and
// leave the recorder's 4096-record staging buffer undrained.
TEST(Profiler, BusPublishBillsTheRecorderMirrorOnce) {
  Profiler::Reset();
  std::thread([] {
    FlightRecorder recorder(/*events_per_actor=*/64);
    StateDeltaBus bus;
    bus.AttachRecorder(&recorder);
    PROF_SCOPE("test", "publish_outer");
    for (std::uint32_t i = 0; i < 1000; ++i) {
      bus.Publish(StateDelta::Ring(DeltaKind::kRingNeighbors, i % 64));
    }
  }).join();
  const Profiler::Report report = Profiler::Snapshot();
  const auto outers = FindNodes(report, "test.publish_outer");
  ASSERT_EQ(outers.size(), 1u);
  const Profiler::NodeReport& outer = report.nodes[outers[0]];
  const Profiler::NodeReport* publish = nullptr;
  const Profiler::NodeReport* append = nullptr;
  double sum_excl = outer.excl_ms;
  for (const Profiler::NodeReport& node : report.nodes) {
    if (node.parent != outers[0]) continue;
    const std::string& full = report.InfoOf(node.scope).full;
    if (full == "bus.publish") publish = &node;
    if (full == "obs.recorder.append") append = &node;
    sum_excl += node.excl_ms;
  }
  ASSERT_NE(publish, nullptr);
  ASSERT_NE(append, nullptr);
  EXPECT_EQ(publish->hits, 1000u);
  EXPECT_EQ(append->hits, 1000u);
  EXPECT_GT(append->incl_ms, 0.0);
  // An empty staging body times less than a 64-byte record append. Were
  // the mirror inside bus.publish's leaf, each publish interval would hold
  // the whole append interval plus the append's two clock reads.
  EXPECT_LT(publish->incl_ms, append->incl_ms);
  // Exclusive totals sum to the truth: the outer's own time survives the
  // subtraction of its children, so nothing was clamped.
  EXPECT_GT(outer.excl_ms, 0.0);
  EXPECT_NEAR(sum_excl, outer.incl_ms, 1e-9 * outer.incl_ms + 1e-12);
}

TEST(Profiler, CollapsedStacksEscapeSeparatorsAndParse) {
  Profiler::Reset();
  const ProfScopeId weird =
      Profiler::Intern("test", "we;ird name\twith\nseps");
  {
    const ProfScope outer(Profiler::Intern("test", "collapse_root"));
    SpinFor(std::chrono::microseconds(200));
    const ProfScope inner(weird);
    SpinFor(std::chrono::microseconds(200));
  }
  const Profiler::Report report = Profiler::Snapshot();
  const std::string text = Profiler::CollapsedStacks(report);

  bool saw_nested = false;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    // Collapsed-stack grammar: "frame(;frame)* weight" — exactly one space,
    // integer weight >= 1, no control characters.
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find(' '), space) << line;
    const std::string weight = line.substr(space + 1);
    ASSERT_FALSE(weight.empty()) << line;
    EXPECT_NE(weight, "0") << line;
    for (const char c : weight) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    for (const char c : line) {
      EXPECT_FALSE(c == '\t' || c == '\r') << line;
    }
    if (line.find("test.collapse_root;test.we:ird_name_with_seps ") == 0) {
      saw_nested = true;
    }
  }
  EXPECT_TRUE(saw_nested) << text;
}

// The tentpole guarantee: turning the profiler on must not change what the
// simulation DOES — only observe it. Two same-seed runs, one profiled and
// one not, must agree on every deterministic output.
TEST(Profiler, InstrumentationNeverPerturbsTheSimulation) {
  workload::PerfSmokeParams params;
  params.nodes = 12;
  params.objects = 600;
  params.queries = 8;
  params.invariants = workload::InvariantMode::kIncremental;
  params.invariant_period_ms = 2000.0;

  Profiler::SetEnabled(true);
  Profiler::Reset();
  const workload::PerfSmokeReport profiled = workload::RunPerfSmoke(params);
  Profiler::SetEnabled(false);
  const workload::PerfSmokeReport bare = workload::RunPerfSmoke(params);
  Profiler::SetEnabled(true);

  EXPECT_EQ(profiled.events, bare.events);
  EXPECT_EQ(profiled.messages, bare.messages);
  EXPECT_EQ(profiled.bytes, bare.bytes);
  EXPECT_EQ(profiled.captures, bare.captures);
  EXPECT_EQ(profiled.queries_ok, bare.queries_ok);
  EXPECT_DOUBLE_EQ(profiled.sim_time_ms, bare.sim_time_ms);
  ASSERT_EQ(profiled.metric_rows.size(), bare.metric_rows.size());
  for (std::size_t i = 0; i < profiled.metric_rows.size(); ++i) {
    EXPECT_EQ(profiled.metric_rows[i], bare.metric_rows[i]) << "row " << i;
  }

  // And the profiled run actually attributed the work somewhere.
  const Profiler::Report report = Profiler::Snapshot();
  EXPECT_GT(report.root_incl_ms, 0.0);
  EXPECT_NE(FindTotal(report, "workload.index"), nullptr);
}

}  // namespace
}  // namespace peertrack::obs
