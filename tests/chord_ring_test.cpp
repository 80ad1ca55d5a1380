// Oracle-bootstrapped ring invariants.

#include <gtest/gtest.h>

#include "chord/chord_ring.hpp"
#include "util/format.hpp"

namespace peertrack::chord {
namespace {

class RingFixture {
 public:
  explicit RingFixture(std::size_t n)
      : latency_(5.0), net_(sim_, latency_, /*seed=*/42), ring_(net_) {
    for (std::size_t i = 0; i < n; ++i) {
      ring_.AddNode(util::Format("node-{}", i));
    }
    ring_.OracleBootstrap();
  }

  sim::Simulator sim_;
  sim::ConstantLatency latency_;
  sim::Network net_;
  ChordRing ring_;
};

TEST(ChordRingOracle, BootstrapsConvergedRing) {
  RingFixture f(32);
  EXPECT_TRUE(f.ring_.IsConverged());
  EXPECT_EQ(f.ring_.AliveCount(), 32u);
}

TEST(ChordRingOracle, SuccessorPredecessorAreMutual) {
  RingFixture f(16);
  for (const auto& node : f.ring_.Nodes()) {
    ChordNode* successor = f.ring_.FindByActor(node->Successor().actor);
    ASSERT_NE(successor, nullptr);
    ASSERT_TRUE(successor->Predecessor().has_value());
    EXPECT_EQ(successor->Predecessor()->actor, node->Self().actor);
  }
}

TEST(ChordRingOracle, FingersMatchOracleSuccessors) {
  RingFixture f(20);
  for (const auto& node : f.ring_.Nodes()) {
    for (unsigned i = 0; i < FingerTable::kBits; i += 13) {
      const auto& finger = node->fingers().Get(i);
      ASSERT_TRUE(finger.has_value());
      EXPECT_EQ(finger->actor,
                f.ring_.ExpectedSuccessor(node->fingers().Start(i)).actor);
    }
  }
}

TEST(ChordRingOracle, EveryKeyOwnedByExactlyOneNode) {
  RingFixture f(12);
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    hash::UInt160::Words words;
    for (auto& w : words) w = static_cast<std::uint32_t>(rng.Next());
    const Key key{words};
    std::size_t owners = 0;
    ChordNode* owner = nullptr;
    for (const auto& node : f.ring_.Nodes()) {
      if (node->Owns(key)) {
        ++owners;
        owner = node.get();
      }
    }
    EXPECT_EQ(owners, 1u);
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->Self().actor, f.ring_.ExpectedSuccessor(key).actor);
  }
}

TEST(ChordRingOracle, NextRouteStepNeverOvershoots) {
  RingFixture f(24);
  util::Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    hash::UInt160::Words words;
    for (auto& w : words) w = static_cast<std::uint32_t>(rng.Next());
    const Key key{words};
    for (const auto& node : f.ring_.Nodes()) {
      const auto step = node->NextRouteStep(key);
      if (step.done) {
        EXPECT_EQ(step.node.actor, f.ring_.ExpectedSuccessor(key).actor);
      } else {
        // The next hop must lie strictly between us and the key: progress
        // without overshooting.
        EXPECT_TRUE(step.node.id.InOpenInterval(node->Self().id, key));
      }
    }
  }
}

TEST(ChordRingOracle, SingleNodeOwnsEverything) {
  RingFixture f(1);
  auto& node = f.ring_.Node(0);
  EXPECT_EQ(node.Successor().actor, node.Self().actor);
  EXPECT_TRUE(node.Owns(Key(0)));
  EXPECT_TRUE(node.Owns(Key::Max()));
  const auto step = node.NextRouteStep(Key(12345));
  EXPECT_TRUE(step.done);
  EXPECT_EQ(step.node.actor, node.Self().actor);
}

TEST(ChordRingOracle, TwoNodesSplitTheRing) {
  RingFixture f(2);
  auto& a = f.ring_.Node(0);
  auto& b = f.ring_.Node(1);
  EXPECT_EQ(a.Successor().actor, b.Self().actor);
  EXPECT_EQ(b.Successor().actor, a.Self().actor);
  // Each key owned by exactly one.
  for (std::uint64_t k : {0ULL, 1ULL, 999999ULL}) {
    EXPECT_NE(a.Owns(Key(k)), b.Owns(Key(k)));
  }
}

TEST(ChordRingOracle, ExpectedSuccessorWrapsAroundZero) {
  RingFixture f(8);
  // A key larger than every node id wraps to the smallest node id.
  Key largest_node(0);
  Key smallest_node = Key::Max();
  for (const auto& node : f.ring_.Nodes()) {
    largest_node = std::max(largest_node, node->Self().id);
    smallest_node = std::min(smallest_node, node->Self().id);
  }
  const Key beyond = largest_node + Key(1);
  EXPECT_EQ(f.ring_.ExpectedSuccessor(beyond).id, smallest_node);
}

}  // namespace
}  // namespace peertrack::chord
