// MarkSet — the dirty/deferred bookkeeping the staged drain feeds millions
// of times per run. The one-element dedup memos sit directly under the
// staged drain; these are the regression tests for their invalidation
// rules (a stale memo silently swallows a mark, which surfaces as a
// cross-check miss a full sweep later — far from the cause).

#include "obs/mark_set.hpp"

#include <gtest/gtest.h>

namespace peertrack::obs {
namespace {

using IntMarks = MarkSet<int>;

// Fresh sets are all-dirty until the first scan retires them; mark memos
// only matter after that, so start every test from the post-scan state.
IntMarks AfterFirstScan() {
  IntMarks marks;
  marks.Retire(0.0);
  EXPECT_FALSE(marks.all);
  return marks;
}

TEST(MarkSet, AllUntilFirstRetire) {
  IntMarks marks;
  EXPECT_TRUE(marks.all);
  marks.Mark(1);  // Swallowed: everything is already dirty.
  marks.Defer(2, 5.0);
  EXPECT_TRUE(marks.dirty.Empty());
  EXPECT_TRUE(marks.deferred.Empty());
  marks.Retire(0.0);
  EXPECT_FALSE(marks.all);
}

TEST(MarkSet, MarkDedupsBursts) {
  IntMarks marks = AfterFirstScan();
  marks.Mark(7);
  marks.Mark(7);
  marks.Mark(7);
  EXPECT_EQ(marks.dirty.Size(), 1u);
  marks.Mark(8);
  marks.Mark(7);  // Memo now holds 8: the re-mark must insert (idempotent).
  EXPECT_EQ(marks.dirty.Size(), 2u);
}

TEST(MarkSet, ReMarkOfMemoizedKeyAfterRetireIsNotSwallowed) {
  IntMarks marks = AfterFirstScan();
  marks.Mark(42);  // Memo: last_mark_ == 42.
  EXPECT_TRUE(marks.dirty.Contains(42));
  marks.Retire(0.0);  // Scan consumed the mark; dirty is empty again.
  EXPECT_FALSE(marks.dirty.Contains(42));
  // The same subject mutates again next interval. A memo that survived
  // Retire would dedup against the *consumed* mark and drop this one.
  marks.Mark(42);
  EXPECT_TRUE(marks.dirty.Contains(42));
}

TEST(MarkSet, ReDeferOfMemoizedKeyAfterRetireIsNotSwallowed) {
  IntMarks marks = AfterFirstScan();
  marks.Defer(9, 100.0);
  marks.Retire(150.0);  // Gate 100 was judged; entry retired.
  EXPECT_FALSE(marks.deferred.Contains(9));
  // Same key, same gate value as the memoized one: must re-enter.
  marks.Defer(9, 100.0);
  EXPECT_TRUE(marks.deferred.Contains(9));
  EXPECT_EQ(*marks.deferred.Find(9), 100.0);
}

TEST(MarkSet, DeferMinMergesWhenLowerGateArrivesForMemoizedKey) {
  IntMarks marks = AfterFirstScan();
  marks.Defer(5, 300.0);  // Memo: (5, 300).
  // A lower gate for the memoized key must not be memo-skipped — auditing
  // at 300 when judgeable state landed at 200 delays a finding a full
  // sweep would already report.
  marks.Defer(5, 200.0);
  EXPECT_EQ(*marks.deferred.Find(5), 200.0);
  // And the memo must now carry the merged gate: an equal re-defer at 250
  // is safely skippable (250 >= 200 cannot lower the entry).
  marks.Defer(5, 250.0);
  EXPECT_EQ(*marks.deferred.Find(5), 200.0);
  EXPECT_EQ(marks.deferred.Size(), 1u);
}

TEST(MarkSet, DeferMemoSkipsOnlyNonLoweringGates) {
  IntMarks marks = AfterFirstScan();
  marks.Defer(1, 10.0);
  marks.Defer(1, 10.0);  // Duplicate burst: skipped.
  marks.Defer(1, 12.0);  // Higher: skipped, entry keeps the earlier gate.
  EXPECT_EQ(*marks.deferred.Find(1), 10.0);
  marks.Defer(2, 20.0);  // Different key resets the memo...
  marks.Defer(1, 11.0);  // ...so this probes the table; 11 > 10 no-ops.
  EXPECT_EQ(*marks.deferred.Find(1), 10.0);
  EXPECT_EQ(marks.deferred.Size(), 2u);
}

TEST(MarkSet, RetireKeepsUnjudgedGates) {
  IntMarks marks = AfterFirstScan();
  marks.Mark(1);
  marks.Defer(2, 50.0);
  marks.Defer(3, 500.0);
  marks.Retire(100.0);
  EXPECT_TRUE(marks.dirty.Empty());          // Dirty never survives a scan.
  EXPECT_FALSE(marks.deferred.Contains(2));  // Gate 50 <= 100: judged.
  EXPECT_TRUE(marks.deferred.Contains(3));   // Gate 500 still in flight.
}

TEST(MarkSet, MarkAllResetsMemosAndMarks) {
  IntMarks marks = AfterFirstScan();
  marks.Mark(1);
  marks.Defer(2, 10.0);
  marks.MarkAll();
  EXPECT_TRUE(marks.all);
  EXPECT_TRUE(marks.dirty.Empty());
  EXPECT_TRUE(marks.deferred.Empty());
  marks.Retire(0.0);
  // Memos must not have survived MarkAll either.
  marks.Mark(1);
  EXPECT_TRUE(marks.dirty.Contains(1));
  marks.Defer(2, 10.0);
  EXPECT_TRUE(marks.deferred.Contains(2));
}

// A key-partitioned drain marks one set per partition; the serial check
// that consumes them absorbs each into one union set, which must hold what
// a single drain would have marked, in any absorb order.
TEST(MarkSet, AbsorbUnionsPartitionsAndMarkAllDominates) {
  IntMarks left = AfterFirstScan();
  IntMarks right = AfterFirstScan();
  left.Mark(1);
  left.Defer(3, 9.0);
  right.Mark(2);
  right.Defer(3, 4.0);
  right.Defer(5, 7.0);
  for (const bool left_first : {true, false}) {
    IntMarks merged = AfterFirstScan();
    merged.Absorb(left_first ? left : right);
    merged.Absorb(left_first ? right : left);
    EXPECT_FALSE(merged.all);
    EXPECT_EQ(merged.dirty.Size(), 2u);
    EXPECT_TRUE(merged.dirty.Contains(1));
    EXPECT_TRUE(merged.dirty.Contains(2));
    ASSERT_NE(merged.deferred.Find(3), nullptr);
    EXPECT_EQ(*merged.deferred.Find(3), 4.0);  // Min-merged.
    ASSERT_NE(merged.deferred.Find(5), nullptr);
    EXPECT_EQ(*merged.deferred.Find(5), 7.0);
  }

  IntMarks flat;  // Never retired: everything dirty.
  IntMarks merged = AfterFirstScan();
  merged.Absorb(left);
  merged.Absorb(flat);
  merged.Absorb(right);
  EXPECT_TRUE(merged.all);
  EXPECT_TRUE(merged.dirty.Empty());
  EXPECT_TRUE(merged.deferred.Empty());
}

}  // namespace
}  // namespace peertrack::obs
