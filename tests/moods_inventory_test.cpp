// Local inventory ("what is here?") over IOP.

#include <gtest/gtest.h>

#include <algorithm>

#include "moods/iop.hpp"
#include "tracking/tracking_system.hpp"
#include "workload/scenario.hpp"

namespace peertrack::moods {
namespace {

hash::UInt160 Obj(int i) { return hash::ObjectKey("inv-" + std::to_string(i)); }

chord::NodeRef Node(sim::ActorId actor) {
  return chord::NodeRef{hash::UInt160(actor), actor};
}

TEST(Inventory, PresentUntilDeparture) {
  IopStore store;
  store.RecordArrival(Obj(1), 10.0);
  store.SetTo(Obj(1), Node(5), 100.0);  // Left, arriving elsewhere at t=100.
  store.RecordArrival(Obj(2), 20.0);    // Never left.

  auto at_50 = store.InventoryAt(50.0);
  std::sort(at_50.begin(), at_50.end());
  EXPECT_EQ(at_50.size(), 2u);  // Both still present at t=50.

  const auto at_150 = store.InventoryAt(150.0);
  ASSERT_EQ(at_150.size(), 1u);
  EXPECT_EQ(at_150[0], Obj(2));

  EXPECT_TRUE(store.InventoryAt(5.0).empty());  // Before any arrival.
}

TEST(Inventory, RevisitCountsCurrentVisitOnly) {
  IopStore store;
  store.RecordArrival(Obj(1), 10.0);
  store.SetTo(Obj(1), Node(9), 50.0);   // Gone at t=50.
  store.RecordArrival(Obj(1), 200.0);   // Back at t=200.

  EXPECT_TRUE(store.InventoryAt(100.0).empty());
  EXPECT_EQ(store.InventoryAt(250.0).size(), 1u);
}

TEST(Inventory, EndToEndMatchesOracle) {
  // After a full workload, each node's IOP inventory must equal the set of
  // objects the oracle places there "now".
  tracking::SystemConfig config;
  config.tracker.mode = tracking::IndexingMode::kIndividual;
  tracking::TrackingSystem system(10, config);
  workload::MovementParams params;
  params.nodes = 10;
  params.objects_per_node = 40;
  params.move_fraction = 0.3;
  params.trace_length = 4;
  const auto scenario = workload::ExecuteScenario(system, params, 13);

  const double now = 1e12;  // Far after all movements.
  std::size_t total_inventory = 0;
  for (std::size_t i = 0; i < system.NodeCount(); ++i) {
    const auto inventory = system.Tracker(i).iop().InventoryAt(now);
    total_inventory += inventory.size();
    for (const auto& object : inventory) {
      EXPECT_EQ(system.oracle().Locate(object, now), static_cast<NodeIndex>(i))
          << "object " << object.ToShortHex() << " claimed by node " << i;
    }
  }
  // Every object is somewhere, exactly once.
  EXPECT_EQ(total_inventory, scenario.object_keys.size());
}

}  // namespace
}  // namespace peertrack::moods
