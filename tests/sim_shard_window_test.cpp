// Conservative-window semantics of the sharded kernel, pinned at the
// sim::ShardEngine level (no protocol stack on top): lookahead deferral of
// below-floor cross-shard sends, exact window-boundary ownership, the
// control-before-shard tie rule, liveness with empty shards, and the
// thread-free pass-through at one shard.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/shard_engine.hpp"

namespace peertrack::sim {
namespace {

constexpr double kFloor = 5.0;

TEST(ShardWindow, BelowFloorCrossShardSendIsDeferredToWindowEnd) {
  Simulator root;
  ShardEngine engine(root, 2, kFloor);
  double delivered_at = -1.0;
  std::uint32_t delivered_on = ShardEngine::kCoordinator;
  // An event at t=10 opens the window [10, 15). A cross-shard send with
  // latency 1 (a model lying about its floor) targets 11 — inside the very
  // window that produced it, which conservative synchronization cannot
  // honor. The engine must clamp it to the window end and count it.
  root.ScheduleAt(10.0, [&] {
    engine.StageCrossShard(1, engine.CurrentSim().Now() + 1.0, [&] {
      delivered_at = engine.CurrentSim().Now();
      delivered_on = engine.CurrentShard();
    });
  });
  engine.Run();
  EXPECT_EQ(engine.LookaheadDeferrals(), 1u);
  EXPECT_EQ(delivered_at, 15.0);
  EXPECT_EQ(delivered_on, 1u);
}

TEST(ShardWindow, FloorRespectingSendIsNotDeferred) {
  Simulator root;
  ShardEngine engine(root, 2, kFloor);
  double delivered_at = -1.0;
  root.ScheduleAt(10.0, [&] {
    // τ + floor == w_end exactly: legal (the window is half-open), and it
    // must arrive at its requested time, not be counted as a deferral.
    engine.StageCrossShard(1, engine.CurrentSim().Now() + kFloor, [&] {
      delivered_at = engine.CurrentSim().Now();
    });
  });
  engine.Run();
  EXPECT_EQ(engine.LookaheadDeferrals(), 0u);
  EXPECT_EQ(delivered_at, 15.0);
}

TEST(ShardWindow, SameInstantCrossShardDeliveriesRunInSourceThenSendOrder) {
  Simulator root;
  ShardEngine engine(root, 3, kFloor);
  std::vector<std::string> order;  // appended only by shard 0's events
  const auto stage = [&](double deliver, std::string label) {
    engine.StageCrossShard(0, deliver, [&order, label = std::move(label)] {
      order.push_back(label);
    });
  };
  // One window [10, 15): shards 1 and 2 each stage to shard 0, some sends
  // out of time order within a source, several landing on one instant.
  engine.SimOf(1).ScheduleAt(10.0, [&] {
    stage(20.0, "s1#0@20");
    stage(17.0, "s1#1@17");
    stage(20.0, "s1#2@20");
  });
  engine.SimOf(1).ScheduleAt(12.0, [&] { stage(17.0, "s1#3@17"); });
  engine.SimOf(2).ScheduleAt(10.0, [&] {
    stage(17.0, "s2#0@17");
    stage(20.0, "s2#1@20");
    stage(17.0, "s2#2@17");
  });
  engine.Run();
  EXPECT_EQ(engine.LookaheadDeferrals(), 0u);
  // Deliver time first, then source shard, then that source's send order.
  const std::vector<std::string> expected = {
      "s1#1@17", "s1#3@17", "s2#0@17", "s2#2@17",
      "s1#0@20", "s1#2@20", "s2#1@20"};
  EXPECT_EQ(order, expected);
}

TEST(ShardWindow, EventAtExactlyWindowEndRunsInTheNextWindow) {
  Simulator root;
  ShardEngine engine(root, 2, kFloor);
  std::uint64_t windows_at_first = 99, windows_at_second = 99;
  // Both events live on shard 0, which executes on this thread — reading
  // the engine's window counter from inside them is race-free.
  root.ScheduleAt(10.0, [&] {
    windows_at_first = engine.WindowsExecuted();
    engine.CurrentSim().ScheduleAt(15.0, [&] {
      windows_at_second = engine.WindowsExecuted();
    });
  });
  engine.Run();
  // [10, 15) is half-open: the event at exactly 15 belongs to the next
  // window, so the first window's barrier completed before it ran.
  EXPECT_EQ(windows_at_first, 0u);
  EXPECT_EQ(windows_at_second, 1u);
  EXPECT_EQ(engine.WindowsExecuted(), 2u);
}

TEST(ShardWindow, ControlEventsRunBeforeShardEventsAtTheSameInstant) {
  Simulator root;
  ShardEngine engine(root, 2, kFloor);
  std::vector<std::string> order;  // both run on the coordinator thread
  root.ScheduleAt(10.0, [&] { order.push_back("shard"); });
  engine.control().ScheduleAt(10.0, [&] { order.push_back("control"); });
  engine.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "control");
  EXPECT_EQ(order[1], "shard");
}

TEST(ShardWindow, EmptyShardsNeverStarveOrDeadlock) {
  Simulator root;
  ShardEngine engine(root, 4, kFloor);  // shards 1..3 never receive events
  int runs = 0;
  for (int i = 1; i <= 3; ++i) {
    root.ScheduleAt(10.0 * i, [&] { ++runs; });
  }
  engine.Run();  // must terminate with three idle shards
  EXPECT_EQ(runs, 3);
  // All clocks park at the global last-event time...
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(engine.SimOf(s).Now(), 30.0);
  }
  // ...and a bounded run over a fully drained world just advances clocks.
  engine.RunUntil(100.0);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(engine.SimOf(s).Now(), 100.0);
  }
  EXPECT_EQ(engine.Now(), 100.0);
}

TEST(ShardWindow, RunUntilIsInclusiveOfTheBound) {
  Simulator root;
  ShardEngine engine(root, 2, kFloor);
  int at_bound = 0, after_bound = 0;
  root.ScheduleAt(20.0, [&] { ++at_bound; });
  root.ScheduleAt(20.5, [&] { ++after_bound; });
  engine.RunUntil(20.0);
  EXPECT_EQ(at_bound, 1);
  EXPECT_EQ(after_bound, 0);
  engine.Run();
  EXPECT_EQ(after_bound, 1);
}

TEST(ShardWindow, OneShardIsAPassThroughOnTheRoot) {
  Simulator root;
  ShardEngine engine(root, 1, kFloor);
  EXPECT_EQ(&engine.control(), &root);
  EXPECT_EQ(&engine.CurrentSim(), &root);
  int drains = 0;
  root.AddDrainHook([&] { ++drains; });
  bool in_event = false;
  root.ScheduleAt(1.0, [&] { in_event = engine.CurrentSim().InEvent(); });
  root.ScheduleAt(2.0, [] {});
  EXPECT_EQ(engine.Run(), 2u);
  EXPECT_TRUE(in_event);
  EXPECT_FALSE(engine.CurrentSim().InEvent());
  EXPECT_EQ(engine.ProcessedEvents(), 2u);  // root and control are one
  EXPECT_EQ(drains, 1);                      // the root's own Run drained
  EXPECT_EQ(engine.WindowsExecuted(), 0u);
}

TEST(ShardWindow, PinActorOverridesTheHashAssignment) {
  Simulator root;
  ShardEngine engine(root, 4, kFloor);
  for (std::uint32_t actor = 0; actor < 64; ++actor) {
    EXPECT_LT(engine.ShardOf(actor), 4u);
  }
  engine.PinActor(7, 2);
  EXPECT_EQ(engine.ShardOf(7), 2u);
}

}  // namespace
}  // namespace peertrack::sim
