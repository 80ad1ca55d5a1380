// End-to-end tests: captures flow through indexing (both modes), IOP links
// form, and distributed queries agree with the ground-truth oracle.

#include <gtest/gtest.h>

#include "tracking/tracking_system.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

namespace peertrack::tracking {
namespace {

using moods::NodeIndex;

SystemConfig MakeConfig(IndexingMode mode, std::uint64_t seed = 0xfeedULL) {
  SystemConfig config;
  config.tracker.mode = mode;
  config.tracker.window.tmax_ms = 100.0;
  config.tracker.window.nmax = 64;
  config.tracker.lmin = 2;
  config.seed = seed;
  return config;
}

/// Compare a distributed trace result against the oracle's full trajectory.
void ExpectMatchesOracle(TrackingSystem& system, const hash::UInt160& object,
                         const TrackerNode::TraceResult& result) {
  const auto* expected = system.oracle().FullTrace(object);
  ASSERT_NE(expected, nullptr);
  ASSERT_TRUE(result.ok) << "query failed for " << object.ToShortHex();
  ASSERT_EQ(result.path.size(), expected->size());
  for (std::size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ(system.NodeIndexOfActor(result.path[i].node.actor), (*expected)[i].node)
        << "step " << i;
    EXPECT_DOUBLE_EQ(result.path[i].arrived, (*expected)[i].arrived) << "step " << i;
  }
}

class TraceModes : public ::testing::TestWithParam<IndexingMode> {};

TEST_P(TraceModes, SingleObjectFullTrace) {
  TrackingSystem system(16, MakeConfig(GetParam()));
  const auto object = hash::ObjectKey("epc:solo");
  workload::InjectTrajectory(system, object, {3, 7, 1, 12, 5}, 10.0, 500.0);
  system.Run();
  system.FlushAllWindows();

  bool done = false;
  system.TraceQuery(0, object, [&](TrackerNode::TraceResult result) {
    ExpectMatchesOracle(system, object, result);
    done = true;
  });
  system.Run();
  EXPECT_TRUE(done);
}

TEST_P(TraceModes, UnmovedObjectHasSingleStepTrace) {
  TrackingSystem system(8, MakeConfig(GetParam()));
  const auto object = hash::ObjectKey("epc:static");
  workload::InjectTrajectory(system, object, {4}, 10.0, 500.0);
  system.Run();
  system.FlushAllWindows();

  bool done = false;
  system.TraceQuery(2, object, [&](TrackerNode::TraceResult result) {
    ASSERT_TRUE(result.ok);
    ASSERT_EQ(result.path.size(), 1u);
    EXPECT_EQ(system.NodeIndexOfActor(result.path[0].node.actor), 4u);
    done = true;
  });
  system.Run();
  EXPECT_TRUE(done);
}

TEST_P(TraceModes, UnknownObjectReportsNotFound) {
  TrackingSystem system(8, MakeConfig(GetParam()));
  system.Run();
  bool done = false;
  system.TraceQuery(1, hash::ObjectKey("epc:ghost"), [&](TrackerNode::TraceResult r) {
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.path.empty());
    done = true;
  });
  system.Run();
  EXPECT_TRUE(done);
}

TEST_P(TraceModes, LocateReturnsLatestLocation) {
  TrackingSystem system(16, MakeConfig(GetParam()));
  const auto object = hash::ObjectKey("epc:locate-me");
  workload::InjectTrajectory(system, object, {2, 9, 14}, 10.0, 500.0);
  system.Run();
  system.FlushAllWindows();

  bool done = false;
  system.LocateQuery(5, object, [&](TrackerNode::LocateResult result) {
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(system.NodeIndexOfActor(result.node.actor), 14u);
    done = true;
  });
  system.Run();
  EXPECT_TRUE(done);
}

TEST_P(TraceModes, ManyObjectsAllTracesMatchOracle) {
  TrackingSystem system(24, MakeConfig(GetParam()));
  workload::MovementParams params;
  params.nodes = 24;
  params.objects_per_node = 40;
  params.move_fraction = 0.25;
  params.trace_length = 6;
  params.move_in_groups = (GetParam() == IndexingMode::kGroup);
  params.step_ms = 1000.0;
  const auto scenario = workload::ExecuteScenario(system, params, /*epc_seed=*/7);

  // Query a sample of movers and non-movers from random origins.
  util::Rng rng(99);
  std::size_t checked = 0;
  for (std::size_t trial = 0; trial < 30; ++trial) {
    const bool pick_mover = trial % 2 == 0 && !scenario.movers.empty();
    const std::uint64_t seq =
        pick_mover
            ? scenario.movers[rng.NextBelow(scenario.movers.size())]
            : rng.NextBelow(scenario.object_keys.size());
    const auto& object = scenario.object_keys[seq];
    const auto origin = static_cast<std::size_t>(rng.NextBelow(system.NodeCount()));
    bool done = false;
    system.TraceQuery(origin, object, [&](TrackerNode::TraceResult result) {
      ExpectMatchesOracle(system, object, result);
      done = true;
    });
    system.Run();
    ASSERT_TRUE(done);
    ++checked;
  }
  EXPECT_EQ(checked, 30u);
}

TEST_P(TraceModes, QueryTimeIncludesNetworkLatency) {
  TrackingSystem system(32, MakeConfig(GetParam()));
  const auto object = hash::ObjectKey("epc:timed");
  workload::InjectTrajectory(system, object, {1, 2, 3}, 10.0, 500.0);
  system.Run();
  system.FlushAllWindows();

  bool done = false;
  system.TraceQuery(17, object, [&](TrackerNode::TraceResult result) {
    ASSERT_TRUE(result.ok);
    // At least one network round-trip at 5 ms per message (unless node 17
    // handled everything locally, which the chosen object avoids).
    EXPECT_GT(result.DurationMs(), 0.0);
    EXPECT_LT(result.DurationMs(), 1000.0);
    done = true;
  });
  system.Run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Modes, TraceModes,
                         ::testing::Values(IndexingMode::kIndividual,
                                           IndexingMode::kGroup));

TEST(TrackingSystem, IopLinksFormDoublyLinkedList) {
  TrackingSystem system(8, MakeConfig(IndexingMode::kIndividual));
  const auto object = hash::ObjectKey("epc:links");
  workload::InjectTrajectory(system, object, {0, 3, 6}, 10.0, 500.0);
  system.Run();

  // Node 0: first appearance, to -> node 3.
  const auto* v0 = system.Tracker(0).iop().VisitsOf(object);
  ASSERT_NE(v0, nullptr);
  ASSERT_EQ(v0->size(), 1u);
  ASSERT_TRUE(v0->front().from.has_value());
  EXPECT_FALSE(v0->front().from->Valid());  // nil: first node of the trace.
  ASSERT_TRUE(v0->front().to.has_value());
  EXPECT_EQ(system.NodeIndexOfActor(v0->front().to->actor), 3u);

  // Node 3: from node 0, to node 6.
  const auto* v3 = system.Tracker(3).iop().VisitsOf(object);
  ASSERT_NE(v3, nullptr);
  EXPECT_EQ(system.NodeIndexOfActor((*v3)[0].from->actor), 0u);
  EXPECT_EQ(system.NodeIndexOfActor((*v3)[0].to->actor), 6u);

  // Node 6: from node 3, still here.
  const auto* v6 = system.Tracker(6).iop().VisitsOf(object);
  ASSERT_NE(v6, nullptr);
  EXPECT_EQ(system.NodeIndexOfActor((*v6)[0].from->actor), 3u);
  EXPECT_FALSE((*v6)[0].to.has_value());
}

TEST(TrackingSystem, GroupModeBatchesIndexMessages) {
  // Same workload, both modes: group indexing must send substantially
  // fewer routed index messages (the paper's core claim).
  // Group indexing pays off when windows hold many more objects than there
  // are prefix groups (paper Section IV-C1: No >> 2^Lp); size the windows
  // accordingly.
  workload::MovementParams params;
  params.nodes = 16;
  params.objects_per_node = 500;
  params.move_fraction = 0.1;
  params.trace_length = 4;
  params.move_in_groups = true;

  auto individual_config = MakeConfig(IndexingMode::kIndividual);
  TrackingSystem individual(16, individual_config);
  const auto r1 = workload::ExecuteScenario(individual, params, 7);

  auto group_config = MakeConfig(IndexingMode::kGroup);
  group_config.tracker.window.nmax = 1024;
  TrackingSystem group(16, group_config);
  const auto r2 = workload::ExecuteScenario(group, params, 7);

  EXPECT_GT(r1.indexing_messages, r2.indexing_messages);
  EXPECT_LT(static_cast<double>(r2.indexing_messages),
            0.8 * static_cast<double>(r1.indexing_messages));
}

TEST(TrackingSystem, IntermediateNodeCanAnswerTraceQuery) {
  TrackingSystem system(16, MakeConfig(IndexingMode::kIndividual));
  const auto object = hash::ObjectKey("epc:intercept");
  workload::InjectTrajectory(system, object, {2, 11}, 10.0, 500.0);
  system.Run();

  // Query from node 2 itself — it witnessed the object, so the query is
  // answered without routing to the gateway (0 probe hops) and must still
  // produce the full, forward-walked trace.
  bool done = false;
  system.TraceQuery(2, object, [&](TrackerNode::TraceResult result) {
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.probe_hops, 0u);
    ASSERT_EQ(result.path.size(), 2u);
    EXPECT_EQ(system.NodeIndexOfActor(result.path[0].node.actor), 2u);
    EXPECT_EQ(system.NodeIndexOfActor(result.path[1].node.actor), 11u);
    done = true;
  });
  system.Run();
  EXPECT_TRUE(done);
}

TEST(TrackingSystem, GatewayLoadSpreadAcrossNodes) {
  // With Scheme 2, nearly every node should carry some indexing load
  // (δ ≈ 1, Eq. 5).
  TrackingSystem system(32, MakeConfig(IndexingMode::kGroup));
  workload::MovementParams params;
  params.nodes = 32;
  params.objects_per_node = 300;
  params.move_fraction = 0.0;
  params.trace_length = 1;
  workload::ExecuteScenario(system, params, 11);

  const auto loads = system.IndexLoadPerNode();
  EXPECT_GT(util::NonZeroFraction(loads), 0.75);
}

TEST(TrackingSystem, WindowTimerFlushesWithoutManualFlush) {
  TrackingSystem system(8, MakeConfig(IndexingMode::kGroup));
  const auto object = hash::ObjectKey("epc:timer");
  system.CaptureAt(3, object, 10.0);
  // Run far past the Tmax deadline; no manual FlushAllWindows.
  system.Run();
  EXPECT_GE(system.Tracker(3).WindowsFlushed(), 1u);

  bool done = false;
  system.LocateQuery(0, object, [&](TrackerNode::LocateResult result) {
    EXPECT_TRUE(result.ok);
    done = true;
  });
  system.Run();
  EXPECT_TRUE(done);
}

TEST(TrackingSystem, NmaxCausesImmediateFlush) {
  auto config = MakeConfig(IndexingMode::kGroup);
  config.tracker.window.nmax = 5;
  config.tracker.window.tmax_ms = 1e9;  // Timer effectively disabled.
  TrackingSystem system(8, config);
  for (int i = 0; i < 5; ++i) {
    system.CaptureAt(2, hash::ObjectKey("epc:burst-" + std::to_string(i)), 10.0);
  }
  system.Run();
  EXPECT_EQ(system.Tracker(2).WindowsFlushed(), 1u);
}

TEST(TrackingSystem, ConsecutiveCapturesAtSameNodeDoNotSelfLoop) {
  // Regression: an object re-captured at the node it is already at (e.g. a
  // second reader in the same warehouse) once created a to-link pointing at
  // its own visit, cycling trace walks forever.
  for (const IndexingMode mode : {IndexingMode::kIndividual, IndexingMode::kGroup}) {
    TrackingSystem system(8, MakeConfig(mode));
    const auto object = hash::ObjectKey("epc:sessile");
    workload::InjectTrajectory(system, object, {4, 4, 4}, 10.0, 500.0);
    system.Run();
    system.FlushAllWindows();

    bool done = false;
    system.TraceQuery(1, object, [&](TrackerNode::TraceResult result) {
      ExpectMatchesOracle(system, object, result);
      done = true;
    });
    system.Run();
    ASSERT_TRUE(done);
  }
}

TEST(TrackingSystem, ObjectRevisitingANodeTracesCorrectly) {
  TrackingSystem system(8, MakeConfig(IndexingMode::kIndividual));
  const auto object = hash::ObjectKey("epc:boomerang");
  // 2 -> 5 -> 2: returns to its origin.
  workload::InjectTrajectory(system, object, {2, 5, 2}, 10.0, 500.0);
  system.Run();

  bool done = false;
  system.TraceQuery(7, object, [&](TrackerNode::TraceResult result) {
    ExpectMatchesOracle(system, object, result);
    done = true;
  });
  system.Run();
  EXPECT_TRUE(done);
}

TEST(TrackingSystem, SingleNodeNetworkWorks) {
  TrackingSystem system(1, MakeConfig(IndexingMode::kGroup));
  const auto object = hash::ObjectKey("epc:lonely");
  system.CaptureAt(0, object, 10.0);
  system.Run();
  system.FlushAllWindows();
  bool done = false;
  system.TraceQuery(0, object, [&](TrackerNode::TraceResult result) {
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.path.size(), 1u);
    done = true;
  });
  system.Run();
  EXPECT_TRUE(done);
}

TEST(TrackingSystem, QueryToDownGatewayFailsWithErrorInsteadOfHanging) {
  TrackingSystem system(16, MakeConfig(IndexingMode::kIndividual));

  // Pick an object whose gateway is neither on its trajectory {1, 2} nor
  // the query origin 0, so the query genuinely depends on the gateway.
  hash::UInt160 object;
  TrackerNode* gateway = nullptr;
  for (int salt = 0;; ++salt) {
    object = hash::ObjectKey("epc:down-gw-" + std::to_string(salt));
    gateway = system.OwnerOf(object);
    ASSERT_NE(gateway, nullptr);
    const auto index = system.NodeIndexOfActor(gateway->Self().actor);
    if (index != 0 && index != 1 && index != 2) break;
  }
  workload::InjectTrajectory(system, object, {1, 2}, 10.0, 500.0);
  system.Run();
  system.FlushAllWindows();

  system.network().SetUp(gateway->Self().actor, false);

  bool trace_done = false;
  system.TraceQuery(0, object, [&](TrackerNode::TraceResult result) {
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.path.empty());
    trace_done = true;
  });
  system.Run();
  EXPECT_TRUE(trace_done);

  bool locate_done = false;
  system.LocateQuery(0, object, [&](TrackerNode::LocateResult result) {
    EXPECT_FALSE(result.ok);
    locate_done = true;
  });
  system.Run();
  EXPECT_TRUE(locate_done);

  // The failures came from exhausted RPC attempts, not the global safety
  // timer: the per-hop deadlines fail the query long before 60 s.
  EXPECT_GE(system.metrics().RpcTimeouts(), 1u);
  EXPECT_GE(system.metrics().Counter("track.probe_timeout"), 1u);
  EXPECT_EQ(system.metrics().Counter("track.query_timeout"), 0u);
}

TEST(TrackingSystem, DeterministicAcrossRuns) {
  auto run_once = [] {
    TrackingSystem system(16, MakeConfig(IndexingMode::kGroup, 0xabcdULL));
    workload::MovementParams params;
    params.nodes = 16;
    params.objects_per_node = 50;
    params.move_fraction = 0.2;
    params.trace_length = 4;
    const auto result = workload::ExecuteScenario(system, params, 3);
    return std::make_pair(result.indexing_messages, result.indexing_bytes);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace peertrack::tracking
