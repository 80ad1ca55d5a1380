// Protocol-level membership: join, stabilize convergence, graceful leave,
// crash failover.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chord/chord_ring.hpp"
#include "hash/keyspace.hpp"
#include "util/format.hpp"

namespace peertrack::chord {
namespace {

class ChurnFixture {
 public:
  ChurnFixture()
      : latency_(5.0), net_(sim_, latency_, /*seed=*/17), ring_(net_, RingOptions()) {}

  static ChordRing::Options RingOptions() {
    ChordRing::Options options;
    options.stabilize_every_ms = 100.0;
    options.fix_fingers_every_ms = 10.0;
    return options;
  }

  void Settle(double ms) { sim_.RunUntil(sim_.Now() + ms); }

  sim::Simulator sim_;
  sim::ConstantLatency latency_;
  sim::Network net_;
  ChordRing ring_;
};

// Records every range-transfer hand-off the node's app is told about.
struct RecordingApp final : ChordNode::AppHandler {
  struct Transfer {
    Key lo;
    Key hi;
    NodeRef new_owner;
  };
  std::vector<Transfer> transfers;
  void OnAppMessage(sim::ActorId, std::unique_ptr<sim::Message>) override {}
  void OnRangeTransfer(const Key& lo, const Key& hi, const NodeRef& new_owner) override {
    transfers.push_back({lo, hi, new_owner});
  }
};

TEST(ChordChurn, ProtocolBootstrapConverges) {
  ChurnFixture f;
  for (int i = 0; i < 12; ++i) f.ring_.AddNode(util::Format("boot-{}", i));
  f.ring_.ProtocolBootstrap(/*settle_ms=*/30000.0);
  EXPECT_TRUE(f.ring_.IsConverged());
}

TEST(ChordChurn, LateJoinIsAbsorbed) {
  ChurnFixture f;
  for (int i = 0; i < 8; ++i) f.ring_.AddNode(util::Format("base-{}", i));
  f.ring_.ProtocolBootstrap(20000.0);
  ASSERT_TRUE(f.ring_.IsConverged());

  f.ring_.ProtocolJoin("latecomer");
  f.Settle(20000.0);
  EXPECT_TRUE(f.ring_.IsConverged());
  EXPECT_EQ(f.ring_.AliveCount(), 9u);
}

TEST(ChordChurn, GracefulLeaveRepairsRing) {
  ChurnFixture f;
  for (int i = 0; i < 8; ++i) f.ring_.AddNode(util::Format("n-{}", i));
  f.ring_.ProtocolBootstrap(20000.0);
  ASSERT_TRUE(f.ring_.IsConverged());

  f.ring_.Node(3).Leave();
  f.Settle(20000.0);
  EXPECT_EQ(f.ring_.AliveCount(), 7u);
  EXPECT_TRUE(f.ring_.IsConverged());
}

TEST(ChordChurn, CrashFailoverViaSuccessorList) {
  ChurnFixture f;
  for (int i = 0; i < 10; ++i) f.ring_.AddNode(util::Format("c-{}", i));
  f.ring_.ProtocolBootstrap(20000.0);
  ASSERT_TRUE(f.ring_.IsConverged());

  f.ring_.Node(5).Crash();
  // Stabilization timeouts detect the dead successor and fail over.
  f.Settle(60000.0);
  EXPECT_EQ(f.ring_.AliveCount(), 9u);
  EXPECT_TRUE(f.ring_.IsConverged());
}

TEST(ChordChurn, MultipleCrashesStillConverge) {
  ChurnFixture f;
  for (int i = 0; i < 12; ++i) f.ring_.AddNode(util::Format("m-{}", i));
  f.ring_.ProtocolBootstrap(20000.0);
  ASSERT_TRUE(f.ring_.IsConverged());

  f.ring_.Node(2).Crash();
  f.ring_.Node(7).Crash();
  f.Settle(90000.0);
  EXPECT_EQ(f.ring_.AliveCount(), 10u);
  EXPECT_TRUE(f.ring_.IsConverged());
}

TEST(ChordChurn, LookupsStayCorrectAfterChurn) {
  ChurnFixture f;
  for (int i = 0; i < 10; ++i) f.ring_.AddNode(util::Format("q-{}", i));
  f.ring_.ProtocolBootstrap(20000.0);
  f.ring_.Node(4).Leave();
  f.ring_.ProtocolJoin("fresh");
  f.Settle(60000.0);
  ASSERT_TRUE(f.ring_.IsConverged());

  util::Rng keys(5);
  for (int trial = 0; trial < 20; ++trial) {
    hash::UInt160::Words words;
    for (auto& w : words) w = static_cast<std::uint32_t>(keys.Next());
    const Key key{words};
    // Pick an alive origin.
    ChordNode* origin = nullptr;
    for (const auto& node : f.ring_.Nodes()) {
      if (node->Alive()) origin = node.get();
    }
    ASSERT_NE(origin, nullptr);
    NodeRef resolved;
    origin->Lookup(key, [&](const NodeRef& owner, std::size_t) { resolved = owner; });
    f.Settle(10000.0);
    EXPECT_EQ(resolved.actor, f.ring_.ExpectedSuccessor(key).actor);
  }
}

TEST(ChordChurn, RangeTransferFiresOnJoin) {
  // When a predecessor joins, the successor's app is told which range it
  // lost (the hook the tracking layer uses to re-home index entries).
  ChurnFixture f;
  for (int i = 0; i < 6; ++i) f.ring_.AddNode(util::Format("r-{}", i));
  f.ring_.ProtocolBootstrap(20000.0);
  ASSERT_TRUE(f.ring_.IsConverged());

  ChordNode& first = f.ring_.ProtocolJoin("newcomer");
  f.Settle(20000.0);
  ASSERT_TRUE(f.ring_.IsConverged());
  ChordNode* successor = f.ring_.FindByActor(first.Successor().actor);
  ASSERT_NE(successor, nullptr);
  ASSERT_TRUE(successor->Predecessor().has_value());
  ASSERT_EQ(successor->Predecessor()->actor, first.Self().actor);

  // A second newcomer whose id lands between `first` and its successor
  // takes (first, newcomer] off the successor.
  std::string address;
  for (int i = 0; address.empty(); ++i) {
    const std::string candidate = util::Format("between-{}", i);
    if (hash::NodeKey(candidate).InOpenInterval(first.Self().id,
                                                successor->Self().id)) {
      address = candidate;
    }
  }
  RecordingApp app;
  successor->SetAppHandler(&app);
  ChordNode& newcomer = f.ring_.ProtocolJoin(address);
  f.Settle(20000.0);
  ASSERT_TRUE(f.ring_.IsConverged());
  EXPECT_EQ(successor->Predecessor()->actor, newcomer.Self().actor);

  ASSERT_EQ(app.transfers.size(), 1u);
  EXPECT_EQ(app.transfers[0].lo, first.Self().id);
  EXPECT_EQ(app.transfers[0].hi, newcomer.Self().id);
  EXPECT_EQ(app.transfers[0].new_owner, newcomer.Self());
}

TEST(ChordChurn, RangeTransferFiresOnLeave) {
  // A graceful leave hands the leaver's whole range (pred, self] to its
  // successor before the node goes (the hook the tracking layer uses to
  // re-home index entries on the way out).
  ChurnFixture f;
  for (int i = 0; i < 6; ++i) f.ring_.AddNode(util::Format("l-{}", i));
  f.ring_.ProtocolBootstrap(20000.0);
  ASSERT_TRUE(f.ring_.IsConverged());

  ChordNode& leaver = f.ring_.Node(2);
  ASSERT_TRUE(leaver.Predecessor().has_value());
  const NodeRef pred = *leaver.Predecessor();
  const NodeRef successor = leaver.Successor();
  ASSERT_NE(successor.actor, leaver.Self().actor);
  RecordingApp app;
  leaver.SetAppHandler(&app);
  leaver.Leave();

  ASSERT_EQ(app.transfers.size(), 1u);
  EXPECT_EQ(app.transfers[0].lo, pred.id);
  EXPECT_EQ(app.transfers[0].hi, leaver.Self().id);
  EXPECT_EQ(app.transfers[0].new_owner, successor);

  f.Settle(20000.0);
  EXPECT_TRUE(f.ring_.IsConverged());
  EXPECT_EQ(app.transfers.size(), 1u);  // A departed node hands off once.
}

}  // namespace
}  // namespace peertrack::chord
