// Gateway-index replication (extension): queries survive gateway crashes.
//
// Without replication, a crashed gateway takes its index entries with it
// (the paper's Chord substrate does not replicate) and locate queries for
// the affected keys fail. With replication, every index update is mirrored
// to the gateway's ring successor — which is precisely the node that owns
// the key range after the crash — so queries fall through to the replica.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tracking/tracking_system.hpp"
#include "workload/scenario.hpp"

namespace peertrack::tracking {
namespace {

SystemConfig ReplicationConfig(IndexingMode mode, bool replicate) {
  SystemConfig config;
  config.tracker.mode = mode;
  config.tracker.window.tmax_ms = 100.0;
  config.tracker.replicate_index = replicate;
  config.tracker.query_timeout_ms = 5000.0;
  config.seed = 0x4e91ULL;
  return config;
}

/// The node currently acting as gateway for `object` under `mode`.
std::size_t GatewayIndexOf(TrackingSystem& system, const hash::UInt160& object,
                           IndexingMode mode) {
  const chord::Key target =
      mode == IndexingMode::kIndividual
          ? object
          : hash::GroupKey(hash::Prefix::OfKey(object, system.CurrentLp()));
  chord::ChordNode* owner = system.ring().ExpectedOwner(target);
  return system.NodeIndexOfActor(owner->Self().actor);
}

class ReplicationModes : public ::testing::TestWithParam<IndexingMode> {};

TEST_P(ReplicationModes, LocateSurvivesGatewayCrashWithReplication) {
  TrackingSystem system(16, ReplicationConfig(GetParam(), /*replicate=*/true));
  const auto object = hash::ObjectKey("epc:replicated");
  workload::InjectTrajectory(system, object, {2, 9}, 10.0, 500.0);
  system.Run();
  system.FlushAllWindows();

  const std::size_t gateway = GatewayIndexOf(system, object, GetParam());
  system.Tracker(gateway).chord().Crash();
  system.ring().OracleBootstrap();  // Survivors re-converge.

  std::size_t origin = (gateway + 1) % system.NodeCount();
  bool done = false;
  system.LocateQuery(origin, object, [&](TrackerNode::LocateResult result) {
    EXPECT_TRUE(result.ok) << "replica should answer after gateway crash";
    if (result.ok) {
      EXPECT_EQ(system.NodeIndexOfActor(result.node.actor), 9u);
    }
    done = true;
  });
  system.Run();
  EXPECT_TRUE(done);
  EXPECT_GT(system.metrics().Counter("track.replica_hit") +
                system.metrics().ForType("track.replica").count,
            0u);
}

TEST_P(ReplicationModes, LocateFailsAfterCrashWithoutReplication) {
  TrackingSystem system(16, ReplicationConfig(GetParam(), /*replicate=*/false));
  const auto object = hash::ObjectKey("epc:unreplicated");
  workload::InjectTrajectory(system, object, {2, 9}, 10.0, 500.0);
  system.Run();
  system.FlushAllWindows();

  const std::size_t gateway = GatewayIndexOf(system, object, GetParam());
  // Only meaningful when the gateway is a third party (the data nodes keep
  // their IOP regardless).
  system.Tracker(gateway).chord().Crash();
  system.ring().OracleBootstrap();

  std::size_t origin = (gateway + 1) % system.NodeCount();
  bool done = false;
  system.LocateQuery(origin, object, [&](TrackerNode::LocateResult result) {
    EXPECT_FALSE(result.ok) << "index entries died with the gateway";
    done = true;
  });
  system.Run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Modes, ReplicationModes,
                         ::testing::Values(IndexingMode::kIndividual,
                                           IndexingMode::kGroup));

TEST(Replication, ReplicaEntriesAccumulateAtSuccessors) {
  TrackingSystem system(16, ReplicationConfig(IndexingMode::kIndividual, true));
  workload::MovementParams params;
  params.nodes = 16;
  params.objects_per_node = 50;
  params.move_fraction = 0.2;
  params.trace_length = 3;
  workload::ExecuteScenario(system, params, 3);

  std::size_t total_replicas = 0;
  for (std::size_t i = 0; i < system.NodeCount(); ++i) {
    total_replicas += system.Tracker(i).ReplicaEntries();
  }
  // Every object indexed somewhere must also exist as a replica somewhere.
  EXPECT_GE(total_replicas, 16u * 50u);
}

TEST(Replication, CostIsBoundedPerIndexBatchAndTarget) {
  // Replication adds at most one request + one ack per index update batch
  // per replica target (R targets), plus debounced anti-entropy rounds.
  workload::MovementParams params;
  params.nodes = 16;
  params.objects_per_node = 100;
  params.move_fraction = 0.0;
  params.trace_length = 1;

  TrackingSystem plain(16, ReplicationConfig(IndexingMode::kGroup, false));
  const auto base = workload::ExecuteScenario(plain, params, 3);

  TrackingSystem replicated(16, ReplicationConfig(IndexingMode::kGroup, true));
  const auto with = workload::ExecuteScenario(replicated, params, 3);

  const std::uint64_t groups =
      replicated.metrics().Counter("track.group_handled");
  const std::uint64_t anti_entropy =
      replicated.metrics().Counter("track.anti_entropy");
  const std::uint64_t r = replicated.config().tracker.replication_factor;
  EXPECT_LE(with.indexing_messages,
            base.indexing_messages + 2 * r * (groups + anti_entropy));
  EXPECT_GT(with.indexing_messages, base.indexing_messages);
}

/// `count` distinct object keys under `prefix`: group reports for them all
/// go to the one gateway owning hash::GroupKey(prefix).
std::vector<hash::UInt160> ObjectsUnder(const hash::Prefix& prefix,
                                        std::size_t count) {
  std::vector<hash::UInt160> objects;
  for (std::size_t i = 0; objects.size() < count; ++i) {
    const auto object = hash::ObjectKey("epc:batch-" + std::to_string(i));
    if (prefix.Matches(object)) objects.push_back(object);
  }
  return objects;
}

/// The first `r` distinct successors of `node` (ReplicaTargets' rule).
std::vector<TrackerNode*> ReplicaHolders(TrackingSystem& system,
                                         TrackerNode& node, std::size_t r) {
  std::vector<TrackerNode*> holders;
  for (const chord::NodeRef& entry : node.chord().successors().Entries()) {
    TrackerNode* holder = system.TrackerByActor(entry.actor);
    if (holder == &node ||
        std::find(holders.begin(), holders.end(), holder) != holders.end()) {
      continue;
    }
    holders.push_back(holder);
    if (holders.size() == r) break;
  }
  return holders;
}

TEST(Replication, GroupArrivalsInsideOneFlushCostOnePushPerTarget) {
  TrackingSystem system(16, ReplicationConfig(IndexingMode::kGroup, true));
  system.Run();
  const hash::Prefix prefix =
      hash::Prefix::OfKey(hash::ObjectKey("epc:anchor"), system.CurrentLp());
  // One capture per node: each node's window closes into its own group
  // report, and all K reports reach the gateway within a few hops of
  // each other — well inside one replica flush.
  constexpr std::size_t kArrivals = 8;
  const auto objects = ObjectsUnder(prefix, kArrivals);
  const double at = system.simulator().Now() + 10.0;
  for (std::size_t i = 0; i < kArrivals; ++i) system.CaptureAt(i, objects[i], at);

  const std::uint64_t groups_before =
      system.metrics().Counter("track.group_handled");
  const std::uint64_t pushes_before =
      system.metrics().ForType("track.replica").count;
  system.Run();
  ASSERT_EQ(system.metrics().Counter("track.group_handled") - groups_before,
            kArrivals);

  const std::size_t r = system.config().tracker.replication_factor;
  EXPECT_EQ(system.metrics().ForType("track.replica").count - pushes_before, r);
  TrackerNode* gateway = system.OwnerOf(hash::GroupKey(prefix));
  const auto holders = ReplicaHolders(system, *gateway, r);
  ASSERT_EQ(holders.size(), r);
  for (TrackerNode* holder : holders) {
    for (const auto& object : objects) {
      EXPECT_NE(holder->replica_store().Find(object), nullptr)
          << "replica missing at " << holder->Self().Describe();
    }
  }
}

TEST(Replication, BufferedUpsertDoesNotResurrectAnErasedReplica) {
  SystemConfig config = ReplicationConfig(IndexingMode::kGroup, true);
  config.tracker.delegation_threshold = 4;
  TrackingSystem system(16, config);
  system.Run();
  const hash::Prefix prefix =
      hash::Prefix::OfKey(hash::ObjectKey("epc:anchor"), system.CurrentLp());
  // One report of 8 objects: the gateway buffers their replica upserts,
  // then overflows the threshold and delegates half of them, erasing
  // those replicas while the upserts are still buffered.
  const auto objects = ObjectsUnder(prefix, 8);
  const double at = system.simulator().Now() + 10.0;
  for (const auto& object : objects) system.CaptureAt(3, object, at);
  system.Run();
  ASSERT_GT(system.metrics().Counter("track.triangle_delegation"), 0u);

  TrackerNode* gateway = system.OwnerOf(hash::GroupKey(prefix));
  const PrefixBucket* bucket = gateway->prefix_store().TryBucket(prefix);
  ASSERT_NE(bucket, nullptr);
  ASSERT_LT(bucket->Size(), objects.size()) << "nothing was delegated";
  // A replica filed under the parent prefix must mirror a live parent
  // entry; one for a delegated object would resurrect it on promotion.
  for (std::size_t i = 0; i < system.NodeCount(); ++i) {
    for (const auto& [object, record] : system.Tracker(i).replica_store().Records()) {
      if (record.prefix != prefix) continue;
      EXPECT_NE(bucket->Find(object), nullptr)
          << "resurrected replica for " << object.ToShortHex() << " at node "
          << i;
    }
  }
}

TEST(Replication, CrashedGatewayDropsItsBufferedPush) {
  TrackingSystem system(16, ReplicationConfig(IndexingMode::kGroup, true));
  system.Run();
  const hash::Prefix prefix =
      hash::Prefix::OfKey(hash::ObjectKey("epc:anchor"), system.CurrentLp());
  TrackerNode* gateway = system.OwnerOf(hash::GroupKey(prefix));
  const std::size_t gateway_index = system.NodeIndexOfActor(gateway->Self().actor);
  const std::size_t capturer = (gateway_index + 1) % system.NodeCount();
  const auto objects = ObjectsUnder(prefix, 4);
  const double at = system.simulator().Now() + 10.0;
  for (const auto& object : objects) system.CaptureAt(capturer, object, at);

  // The window closes at at + Tmax (100 ms); the report reaches the
  // gateway a few hops later, and its replica flush is due 100 ms after
  // that. Stop in between, with the push still buffered.
  const std::uint64_t groups_before =
      system.metrics().Counter("track.group_handled");
  system.RunUntil(at + 150.0);
  ASSERT_EQ(system.metrics().Counter("track.group_handled") - groups_before, 1u);
  ASSERT_NE(gateway->prefix_store().TryBucket(prefix), nullptr);

  const std::uint64_t pushes_before =
      system.metrics().ForType("track.replica").count;
  system.CrashNode(gateway_index);
  system.Run();
  EXPECT_EQ(system.metrics().ForType("track.replica").count, pushes_before);
  for (std::size_t i = 0; i < system.NodeCount(); ++i) {
    for (const auto& object : objects) {
      EXPECT_EQ(system.Tracker(i).replica_store().Find(object), nullptr);
    }
  }
}

}  // namespace
}  // namespace peertrack::tracking
