// Iterative lookup correctness and hop-count properties against the ring
// oracle, parameterized over network size.

#include <gtest/gtest.h>

#include <cmath>

#include "chord/chord_ring.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

namespace peertrack::chord {
namespace {

Key RandomKey(util::Rng& rng) {
  hash::UInt160::Words words;
  for (auto& w : words) w = static_cast<std::uint32_t>(rng.Next());
  return Key{words};
}

class LookupSweep : public ::testing::TestWithParam<std::size_t> {
 protected:
  LookupSweep() : latency_(5.0), net_(sim_, latency_, GetParam()), ring_(net_) {
    for (std::size_t i = 0; i < GetParam(); ++i) {
      ring_.AddNode(util::Format("peer-{}", i));
    }
    ring_.OracleBootstrap();
  }

  sim::Simulator sim_;
  sim::ConstantLatency latency_;
  sim::Network net_;
  ChordRing ring_;
};

TEST_P(LookupSweep, ResolvesToOracleSuccessor) {
  util::Rng keys(123);
  for (int trial = 0; trial < 50; ++trial) {
    const Key key = RandomKey(keys);
    const NodeRef expected = ring_.ExpectedSuccessor(key);
    auto& origin = ring_.Node(static_cast<std::size_t>(keys.NextBelow(ring_.NodeCount())));

    NodeRef resolved;
    bool completed = false;
    origin.Lookup(key, [&](const NodeRef& owner, std::size_t) {
      resolved = owner;
      completed = true;
    });
    sim_.Run();
    ASSERT_TRUE(completed);
    EXPECT_EQ(resolved.actor, expected.actor)
        << "key=" << key.ToShortHex() << " n=" << GetParam();
  }
}

TEST_P(LookupSweep, HopsAreLogarithmic) {
  util::Rng keys(321);
  util::RunningStats hops;
  for (int trial = 0; trial < 100; ++trial) {
    const Key key = RandomKey(keys);
    auto& origin = ring_.Node(static_cast<std::size_t>(keys.NextBelow(ring_.NodeCount())));
    origin.Lookup(key, [&](const NodeRef&, std::size_t h) {
      hops.Add(static_cast<double>(h));
    });
    sim_.Run();
  }
  const double log_n = std::log2(static_cast<double>(GetParam()));
  // Chord guarantee: O(log N) w.h.p.; with perfect fingers, mean ≈ ½·log2 N.
  EXPECT_LE(hops.Mean(), log_n + 1.0);
  EXPECT_LE(hops.Max(), 2.0 * log_n + 3.0);
}

TEST_P(LookupSweep, AllOriginsAgree) {
  util::Rng keys(99);
  const Key key = RandomKey(keys);
  const NodeRef expected = ring_.ExpectedSuccessor(key);
  for (std::size_t i = 0; i < ring_.NodeCount(); i += 7) {
    NodeRef resolved;
    ring_.Node(i).Lookup(key, [&](const NodeRef& owner, std::size_t) { resolved = owner; });
    sim_.Run();
    EXPECT_EQ(resolved.actor, expected.actor) << "origin=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(NetworkSizes, LookupSweep,
                         ::testing::Values(2, 3, 8, 32, 64, 128));

TEST(ChordLookup, OwnKeyResolvesLocally) {
  sim::Simulator sim;
  sim::ConstantLatency latency(5.0);
  sim::Network net(sim, latency, /*seed=*/4);
  ChordRing ring(net);
  for (int i = 0; i < 10; ++i) ring.AddNode(util::Format("n{}", i));
  ring.OracleBootstrap();

  // A key this node owns must resolve without leaving the initiator's
  // successor knowledge: hops may be 0 (successor-owned keys).
  auto& node = ring.Node(0);
  const Key own = node.Self().id;  // Owned by node itself.
  NodeRef resolved;
  std::size_t hops = 99;
  // Look up the key equal to our successor's id: done in 0 hops.
  node.Lookup(node.Successor().id, [&](const NodeRef& owner, std::size_t h) {
    resolved = owner;
    hops = h;
  });
  sim.Run();
  EXPECT_EQ(resolved.actor, node.Successor().actor);
  EXPECT_EQ(hops, 0u);
  (void)own;
}

TEST(ChordLookup, DeadNodeLookupFailsGracefully) {
  sim::Simulator sim;
  sim::ConstantLatency latency(5.0);
  sim::Network net(sim, latency, /*seed=*/4);
  ChordRing ring(net);
  for (int i = 0; i < 4; ++i) ring.AddNode(util::Format("n{}", i));
  ring.OracleBootstrap();

  auto& node = ring.Node(0);
  node.Crash();
  bool called = false;
  node.Lookup(Key(1), [&](const NodeRef& owner, std::size_t) {
    called = true;
    EXPECT_FALSE(owner.Valid());
  });
  sim.Run();
  EXPECT_TRUE(called);
}

TEST(ChordLookup, HopMetricsRecorded) {
  sim::Simulator sim;
  sim::ConstantLatency latency(5.0);
  sim::Network net(sim, latency, /*seed=*/4);
  ChordRing ring(net);
  for (int i = 0; i < 32; ++i) ring.AddNode(util::Format("n{}", i));
  ring.OracleBootstrap();

  util::Rng keys(8);
  for (int i = 0; i < 10; ++i) {
    ring.Node(0).Lookup(RandomKey(keys), [](const NodeRef&, std::size_t) {});
    sim.Run();
  }
  EXPECT_EQ(net.metrics().LookupHops().Count(), 10u);
}

}  // namespace
}  // namespace peertrack::chord
