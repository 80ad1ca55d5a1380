// StateDeltaBus — the staging claim and the per-kind staged buffers behind
// the monitor's batched drain.

#include "obs/delta_bus.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

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
  bus.Publish(StateDelta::Index(DeltaKind::kIndexUpsert, 8, Key(2), true,
                                hash::Prefix{}, 30.0));
  bus.Publish(StateDelta::Index(DeltaKind::kIndexErase, 8, Key(2), true,
                                hash::Prefix{}));
  bus.Publish(StateDelta::Ring(DeltaKind::kMembership, 9));
  EXPECT_EQ(bus.StagedCount(), 4u);

  // Each kind lands in its own buffer with the fields it consumes.
  ASSERT_EQ(bus.StagedMembership().size(), 1u);
  EXPECT_EQ(bus.StagedMembership()[0], 9u);
  ASSERT_EQ(bus.StagedVisits().size(), 1u);
  const StateDeltaBus::StagedVisit& v = bus.StagedVisits()[0];
  EXPECT_EQ(v.actor, 7u);
  EXPECT_EQ(v.object, Key(1));
  EXPECT_EQ(v.when, 10.0);
  EXPECT_EQ(v.gate, 25.0);

  // Upserts and erases share one stream in arrival order — the site mirror
  // depends on upsert-before-erase.
  const auto& index = bus.StagedIndexStream();
  ASSERT_EQ(index.size(), 2u);
  EXPECT_FALSE(index[0].erase);
  EXPECT_EQ(index[0].actor, 8u);
  EXPECT_EQ(index[0].object, Key(2));
  EXPECT_EQ(index[0].when, 30.0);
  EXPECT_TRUE(index[0].individual);
  EXPECT_TRUE(index[1].erase);
  EXPECT_TRUE(index[1].individual);

  bus.ClearStaged();
  EXPECT_EQ(bus.StagedCount(), 0u);
  EXPECT_TRUE(bus.StagedMembership().empty());
  EXPECT_TRUE(bus.StagedVisits().empty());
  EXPECT_TRUE(bus.StagedIndexStream().empty());

  // A drained bus stages the next interval into clean buffers.
  bus.Publish(StateDelta::Global(DeltaKind::kLpChange));
  EXPECT_EQ(bus.StagedCount(), 1u);
  EXPECT_EQ(bus.StagedLpChanges(), 1u);
  bus.EndStaging();
}

TEST(StateDeltaBus, EndStagingDiscardsBacklog) {
  StateDeltaBus bus;
  ASSERT_TRUE(bus.BeginStaging());
  bus.Publish(StateDelta::Ring(DeltaKind::kMembership, 1));
  bus.EndStaging();
  ASSERT_TRUE(bus.BeginStaging());
  EXPECT_EQ(bus.StagedCount(), 0u);
  EXPECT_TRUE(bus.StagedMembership().empty());
  EXPECT_EQ(bus.Published(), 1u);  // The publish tally survives the discard.
  bus.EndStaging();
}

}  // namespace
}  // namespace peertrack::obs
