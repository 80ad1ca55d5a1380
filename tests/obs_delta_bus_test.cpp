// StateDeltaBus — the staging claim, the per-lane staged streams behind
// the monitor's batched drain, and the staging cap that bounds them.

#include "obs/delta_bus.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "obs/lane.hpp"

namespace peertrack::obs {
namespace {

hash::UInt160 Key(std::uint32_t tag) { return hash::UInt160(tag); }

TEST(StateDeltaBus, StagingClaimIsExclusive) {
  StateDeltaBus bus;
  EXPECT_FALSE(bus.Staging());
  EXPECT_TRUE(bus.BeginStaging());
  EXPECT_TRUE(bus.Active());
  EXPECT_FALSE(bus.BeginStaging());  // A second consumer is refused.
  bus.EndStaging();
  EXPECT_FALSE(bus.Active());
  EXPECT_TRUE(bus.BeginStaging());  // Released claims can be retaken.
  bus.EndStaging();
}

TEST(StateDeltaBus, DrainReplaysStagedDeltasWithFieldsIntact) {
  StateDeltaBus bus;
  ASSERT_TRUE(bus.BeginStaging());

  StateDelta visit = StateDelta::Object(DeltaKind::kIopVisit, 7, Key(1), 10.0);
  visit.gate = 25.0;  // Departure write judged at the next hop's arrival.
  bus.Publish(visit);
  const hash::Prefix prefix{0xA000000000000000ull, 3};
  bus.Publish(StateDelta::Index(DeltaKind::kIndexUpsert, 8, Key(2), false,
                                prefix, 30.0));
  bus.Publish(StateDelta::Index(DeltaKind::kIndexErase, 8, Key(2), false,
                                prefix));
  bus.Publish(StateDelta::Ring(DeltaKind::kMembership, 9));
  EXPECT_EQ(bus.StagedCount(), 4u);
  ASSERT_EQ(bus.Lanes(), 1u);

  // One stream, every kind, fields intact; upsert-before-erase survives.
  const std::vector<StateDelta>& staged = bus.Staged(0);
  ASSERT_EQ(staged.size(), 4u);
  EXPECT_EQ(staged[0].kind, DeltaKind::kIopVisit);
  EXPECT_EQ(staged[0].actor, 7u);
  EXPECT_EQ(staged[0].object, Key(1));
  EXPECT_EQ(staged[0].when, 10.0);
  EXPECT_EQ(staged[0].gate, 25.0);
  EXPECT_EQ(staged[1].kind, DeltaKind::kIndexUpsert);
  EXPECT_EQ(staged[1].actor, 8u);
  EXPECT_EQ(staged[1].object, Key(2));
  EXPECT_EQ(staged[1].when, 30.0);
  EXPECT_FALSE(staged[1].individual);
  EXPECT_EQ(staged[1].prefix(), prefix);
  EXPECT_EQ(staged[2].kind, DeltaKind::kIndexErase);
  EXPECT_EQ(staged[2].prefix(), prefix);
  EXPECT_EQ(staged[3].kind, DeltaKind::kMembership);
  EXPECT_EQ(staged[3].actor, 9u);

  bus.ClearStaged();
  EXPECT_EQ(bus.StagedCount(), 0u);
  EXPECT_TRUE(bus.Staged(0).empty());

  // A drained bus stages the next interval into a clean buffer.
  bus.Publish(StateDelta::Global(DeltaKind::kLpChange));
  ASSERT_EQ(bus.StagedCount(), 1u);
  EXPECT_EQ(bus.Staged(0)[0].kind, DeltaKind::kLpChange);
  bus.EndStaging();
}

TEST(StateDeltaBus, EndStagingDiscardsBacklog) {
  StateDeltaBus bus;
  ASSERT_TRUE(bus.BeginStaging());
  bus.Publish(StateDelta::Ring(DeltaKind::kMembership, 1));
  bus.EndStaging();
  ASSERT_TRUE(bus.BeginStaging());
  EXPECT_EQ(bus.StagedCount(), 0u);
  EXPECT_TRUE(bus.Staged(0).empty());
  bus.EndStaging();
}

TEST(StateDeltaBus, EachLaneStagesItsOwnPublishesInOrder) {
  StateDeltaBus bus;
  bus.EnableLanes(4);
  ASSERT_EQ(bus.Lanes(), 4u);
  ASSERT_TRUE(bus.BeginStaging());
  const hash::Prefix prefix{};
  // Lane L publishes L+1 interleaved upsert/erase deltas of one
  // (object, actor), the stream the monitor's site mirror is fed.
  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    LaneScope scope(lane);
    for (std::uint32_t i = 0; i <= lane; ++i) {
      const DeltaKind kind =
          i % 2 == 0 ? DeltaKind::kIndexUpsert : DeltaKind::kIndexErase;
      bus.Publish(StateDelta::Index(kind, /*actor=*/lane, Key(100 + lane),
                                    true, prefix, static_cast<double>(i)));
    }
  }
  EXPECT_EQ(CurrentLane(), 0u);
  EXPECT_EQ(bus.StagedCount(), 1u + 2u + 3u + 4u);
  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    const std::vector<StateDelta>& staged = bus.Staged(lane);
    ASSERT_EQ(staged.size(), lane + 1u);
    for (std::uint32_t i = 0; i <= lane; ++i) {
      EXPECT_EQ(staged[i].kind, i % 2 == 0 ? DeltaKind::kIndexUpsert
                                           : DeltaKind::kIndexErase);
      EXPECT_EQ(staged[i].actor, lane);
      EXPECT_EQ(staged[i].object, Key(100 + lane));
      EXPECT_EQ(staged[i].when, static_cast<double>(i));
    }
  }

  bus.ClearStaged();
  EXPECT_EQ(bus.StagedCount(), 0u);
  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    EXPECT_TRUE(bus.Staged(lane).empty());
  }

  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    LaneScope scope(lane);
    bus.Publish(StateDelta::Ring(DeltaKind::kRingNeighbors, lane));
  }
  EXPECT_EQ(bus.StagedCount(), 4u);
  bus.EndStaging();
  EXPECT_EQ(bus.StagedCount(), 0u);
  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    EXPECT_TRUE(bus.Staged(lane).empty());
  }
}

TEST(StateDeltaBus, StagedKindsMaskTracksEachLaneUntilCleared) {
  StateDeltaBus bus;
  bus.EnableLanes(3);
  ASSERT_TRUE(bus.BeginStaging());
  const auto bit = [](DeltaKind kind) { return StateDeltaBus::KindBit(kind); };
  for (std::size_t lane = 0; lane < bus.Lanes(); ++lane) {
    EXPECT_EQ(bus.StagedKinds(lane), 0u);
  }
  {
    LaneScope scope(1);
    bus.Publish(StateDelta::Object(DeltaKind::kObjectTruth, 4, Key(1), 2.0));
    bus.Publish(StateDelta::Ring(DeltaKind::kRingFinger, 4));
    bus.Publish(StateDelta::Object(DeltaKind::kObjectTruth, 4, Key(2), 3.0));
  }
  {
    LaneScope scope(2);
    bus.Publish(StateDelta::Global(DeltaKind::kLpChange));
  }
  // Each lane's mask holds exactly the kinds staged on it; lane 0 staged
  // nothing, so a ring consumer skips it and lane 2 unread.
  EXPECT_EQ(bus.StagedKinds(0), 0u);
  EXPECT_EQ(bus.StagedKinds(1),
            bit(DeltaKind::kObjectTruth) | bit(DeltaKind::kRingFinger));
  EXPECT_EQ(bus.StagedKinds(2), bit(DeltaKind::kLpChange));
  EXPECT_NE(bit(DeltaKind::kRingFinger), bit(DeltaKind::kRingNeighbors));

  bus.ClearStaged();
  for (std::size_t lane = 0; lane < bus.Lanes(); ++lane) {
    EXPECT_EQ(bus.StagedKinds(lane), 0u) << "lane " << lane;
  }
  bus.Publish(StateDelta::Ring(DeltaKind::kMembership, 9));
  EXPECT_EQ(bus.StagedKinds(0), bit(DeltaKind::kMembership));
  bus.EndStaging();
  EXPECT_EQ(bus.StagedKinds(0), 0u);

  // Without a staging claim nothing is staged, so nothing is masked.
  bus.Publish(StateDelta::Ring(DeltaKind::kMembership, 9));
  EXPECT_EQ(bus.StagedKinds(0), 0u);
}

TEST(StateDeltaBus, OutsideAWindowNoLaneHoldsMoreThanTheCap) {
  constexpr std::size_t kCap = 5;
  StateDeltaBus bus;
  bus.EnableLanes(3);
  ASSERT_TRUE(bus.BeginStaging());
  std::vector<std::uint64_t> drained;  // Backlog size at each spill.
  bus.SetSpill(
      [&bus, &drained] {
        drained.push_back(bus.StagedCount());
        bus.ClearStaged();
      },
      kCap);
  for (std::uint32_t i = 0; i < 26; ++i) {
    LaneScope scope(i % 3);  // A coordinator or control-phase lane.
    bus.Publish(StateDelta::Ring(DeltaKind::kRingFinger, i));
    for (std::size_t lane = 0; lane < bus.Lanes(); ++lane) {
      ASSERT_LT(bus.Staged(lane).size(), kCap)
          << "lane " << lane << " after publish " << i;
    }
  }
  // Every spill fires on the publish that filled one lane to the cap; the
  // other lanes ride along in the same drain.
  EXPECT_EQ(drained, (std::vector<std::uint64_t>{13, 13}));
  EXPECT_EQ(bus.StagedCount(), 0u);

  // Inside a shard window the lanes keep growing: the drain must wait for
  // every worker to park, which is the engine's window epilogue's job.
  {
    LaneScope window(1, /*window=*/true);
    EXPECT_TRUE(InWindow());
    for (std::uint32_t i = 0; i < 2 * kCap; ++i) {
      bus.Publish(StateDelta::Ring(DeltaKind::kRingFinger, i));
    }
  }
  EXPECT_FALSE(InWindow());
  EXPECT_EQ(bus.Staged(1).size(), 2 * kCap);
  EXPECT_EQ(drained.size(), 2u);
  // The first publish outside the window drains the burst.
  bus.Publish(StateDelta::Ring(DeltaKind::kRingFinger, 0));
  EXPECT_EQ(drained.size(), 2u) << "lane 0 is below the cap";
  {
    LaneScope scope(1);
    bus.Publish(StateDelta::Ring(DeltaKind::kRingFinger, 1));
  }
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained.back(), 2 * kCap + 2);

  // EndStaging removes the hook with the claim.
  bus.EndStaging();
  ASSERT_TRUE(bus.BeginStaging());
  for (std::uint32_t i = 0; i < 2 * kCap; ++i) {
    bus.Publish(StateDelta::Ring(DeltaKind::kRingFinger, i));
  }
  EXPECT_EQ(bus.StagedCount(), 2 * kCap);
  EXPECT_EQ(drained.size(), 3u);
  bus.EndStaging();
}

}  // namespace
}  // namespace peertrack::obs
