// Long-running churn soak on the 8-shard kernel (ctest label: shard_soak).
//
// Where sim_shard_differential_test pins outcome equivalence against the
// single-threaded oracle on small worlds, this suite hammers the parallel
// kernel itself: 30 rounds of randomized join/crash/leave churn with
// captures and live queries interleaved, at --shards=8, with the
// incremental invariant monitor riding the control plane the whole time.
// The pass criteria are the system's own health guarantees, which must
// hold at every interleaving the window schedule produces:
//   * zero violations still open once the world quiesces (self-healing),
//   * zero cross-check misses on the forced final full sweep (the lane
//     merge fed the monitor every delta),
//   * zero cross-shard direct calls (the colocation contract held),
//   * and the parallel path demonstrably ran (windows > 0).

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "obs/invariants.hpp"
#include "tracking/tracking_system.hpp"
#include "util/format.hpp"

namespace peertrack::sim {
namespace {

void RunSoak(std::uint64_t seed) {
  tracking::SystemConfig config;
  config.tracker.mode = tracking::IndexingMode::kGroup;
  config.tracker.window.tmax_ms = 100.0;
  config.tracker.replicate_index = true;
  config.tracker.query_timeout_ms = 5000.0;
  config.tracker.leave_settle_ms = 2500.13;
  config.tracker.delegation_threshold = std::numeric_limits<std::size_t>::max();
  config.stabilize_every_ms = 100.0;
  config.fix_fingers_every_ms = 10.0;
  config.seed = seed;
  config.shards = 8;
  tracking::TrackingSystem system(24, std::move(config));
  util::Rng rng(seed * 6151 + 17);

  std::vector<hash::UInt160> objects;
  for (int i = 0; i < 32; ++i) {
    objects.push_back(hash::ObjectKey(util::Format("epc:soak8-{}-{}", seed, i)));
  }
  for (std::size_t i = 0; i < objects.size(); ++i) {
    system.CaptureAt(i % 24, objects[i], 10.0 + static_cast<double>(i));
  }
  system.RunUntil(system.simulator().Now() + 3000.0);

  obs::InvariantMonitor monitor(system.MonitorSimulator(),
                                system.metrics().registry());
  monitor.EnableIncremental(system.network().delta_bus());
  obs::InstallRingChecks(monitor, system.ring());
  obs::InstallTrackingChecks(monitor, system);
  monitor.Start(/*period_ms=*/500.13,
                /*until_ms=*/system.simulator().Now() + 600000.0);

  const auto usable = [&system] {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < system.NodeCount(); ++i) {
      auto& tracker = system.Tracker(i);
      if (tracker.chord().Alive() && !tracker.Leaving()) out.push_back(i);
    }
    return out;
  };

  int joins_left = 4, crashes_left = 4, leaves_left = 4;
  for (int round = 0; round < 30; ++round) {
    const auto nodes = usable();
    ASSERT_GE(nodes.size(), 2u);
    const std::uint64_t op = rng.Next() % 10;
    bool destructive = false;
    if (op >= 7 && joins_left > 0 && op % 3 == 1) {
      system.ProtocolJoinNode();
      --joins_left;
      destructive = true;
    } else if (op == 7 && crashes_left > 0 && nodes.size() > 16) {
      system.CrashNode(nodes[rng.Next() % nodes.size()]);
      --crashes_left;
      destructive = true;
    } else if (op == 9 && leaves_left > 0 && nodes.size() > 16) {
      system.LeaveNode(nodes[rng.Next() % nodes.size()]);
      --leaves_left;
      destructive = true;
    } else if (op == 4 || op == 5) {
      const auto& object = objects[rng.Next() % objects.size()];
      const std::size_t origin = nodes[rng.Next() % nodes.size()];
      if (op == 4) {
        system.LocateQuery(origin, object,
                           [](tracking::TrackerNode::LocateResult) {});
      } else {
        system.TraceQuery(origin, object,
                          [](tracking::TrackerNode::TraceResult) {});
      }
    } else {
      // Burst of captures: several objects move in the same round so
      // windows carry real concurrent work across shards.
      for (int burst = 0; burst < 4; ++burst) {
        const auto& object = objects[rng.Next() % objects.size()];
        const std::size_t node = nodes[rng.Next() % nodes.size()];
        system.CaptureAt(node, object,
                         system.simulator().Now() + 10.0 +
                             static_cast<double>(burst));
      }
    }
    system.RunUntil(system.simulator().Now() + (destructive ? 6000.0 : 800.0));
  }
  system.RunUntil(system.simulator().Now() + 60000.0);
  monitor.RunOnce(/*force_full_sweep=*/true);

  EXPECT_EQ(monitor.OpenViolations(), 0u)
      << "violations open at quiesce (seed " << seed << ")";
  EXPECT_EQ(monitor.CrossCheckMisses(), 0u)
      << "lane merge dropped deltas (seed " << seed << ")";
  EXPECT_GT(monitor.DeltasRouted(), 0u);

  ASSERT_NE(system.engine(), nullptr);
  EXPECT_EQ(system.engine()->ShardCount(), 8u);
  EXPECT_GT(system.engine()->WindowsExecuted(), 0u);
  EXPECT_GT(system.engine()->CrossShardMessages(), 0u);
  EXPECT_EQ(system.engine()->CrossShardDirectCalls(), 0u)
      << "colocation contract breached (seed " << seed << ")";
}

class ShardSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardSoak, EightShardChurnSelfHeals) { RunSoak(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSoak,
                         ::testing::Values(101ull, 211ull, 307ull));

}  // namespace
}  // namespace peertrack::sim
