// Successor-list scrubbing via death-certificate gossip (regression).
//
// Pre-fix gap (DESIGN.md §8, PR 4 known-open): successor lists only shed a
// dead node when the holder *itself* probes it — i.e. when the corpse sits
// at the head of the list. Deeper slots are refilled by gossip merges,
// which only ever add, so a node two or more hops upstream of the crash
// keeps the dead entry forever and the ring.successor_list invariant warns
// indefinitely. The fix gossips death certificates on stabilize replies,
// letting every upstream holder evict the corpse without probing it.
//
// `Options::death_cert_ttl_ms = 0` disables the gossip and restores the
// pre-fix behaviour, which the first test pins down as a reproducer.

#include <gtest/gtest.h>

#include "chord/chord_ring.hpp"
#include "obs/invariants.hpp"
#include "util/format.hpp"

namespace peertrack::chord {
namespace {

class ScrubFixture {
 public:
  explicit ScrubFixture(double death_cert_ttl_ms)
      : latency_(5.0),
        net_(sim_, latency_, /*seed=*/17),
        ring_(net_, RingOptions(death_cert_ttl_ms)) {}

  static ChordRing::Options RingOptions(double death_cert_ttl_ms) {
    ChordRing::Options options;
    options.stabilize_every_ms = 100.0;
    options.fix_fingers_every_ms = 10.0;
    options.node.death_cert_ttl_ms = death_cert_ttl_ms;
    return options;
  }

  void Settle(double ms) { sim_.RunUntil(sim_.Now() + ms); }

  /// Deepest zero-based successor-list slot holding `actor` on any alive
  /// node (-1 when fully scrubbed).
  int DeepestRetainedSlot(sim::ActorId actor) const {
    int deepest = -1;
    for (const auto& node : ring_.Nodes()) {
      if (!node->Alive()) continue;
      const auto& entries = node->successors().Entries();
      for (std::size_t slot = 0; slot < entries.size(); ++slot) {
        if (entries[slot].actor == actor) {
          deepest = std::max(deepest, static_cast<int>(slot));
        }
      }
    }
    return deepest;
  }

  sim::Simulator sim_;
  sim::ConstantLatency latency_;
  sim::Network net_;
  ChordRing ring_;
};

TEST(ChordScrub, PreFixPathRetainsCrashedNodeInDeepSlots) {
  // Reproducer: with death-cert gossip disabled, only the crashed node's
  // immediate neighbourhood (whoever probes it as First()) evicts it; a
  // holder that never probed it keeps the corpse at slot >= 2 forever.
  ScrubFixture f(/*death_cert_ttl_ms=*/0.0);
  for (int i = 0; i < 12; ++i) f.ring_.AddNode(util::Format("pre-{}", i));
  f.ring_.ProtocolBootstrap(30000.0);
  ASSERT_TRUE(f.ring_.IsConverged());

  const sim::ActorId crashed = f.ring_.Node(5).Self().actor;
  f.ring_.Node(5).Crash();
  f.Settle(120000.0);  // Ample time: the gap never heals, however long.

  EXPECT_TRUE(f.ring_.IsConverged()) << "failover itself still works";
  EXPECT_GE(f.DeepestRetainedSlot(crashed), 2)
      << "expected the pre-fix path to strand the corpse in a deep slot";
  EXPECT_EQ(f.net_.metrics().Counter("chord.death_cert_scrub"), 0u);
}

TEST(ChordScrub, DeathCertGossipScrubsEveryList) {
  // Same scenario with the fix enabled (default TTL): certificates ride
  // stabilize replies upstream and every holder evicts the corpse.
  ScrubFixture f(/*death_cert_ttl_ms=*/30000.0);
  for (int i = 0; i < 12; ++i) f.ring_.AddNode(util::Format("fix-{}", i));
  f.ring_.ProtocolBootstrap(30000.0);
  ASSERT_TRUE(f.ring_.IsConverged());

  const sim::ActorId crashed = f.ring_.Node(5).Self().actor;
  f.ring_.Node(5).Crash();
  f.Settle(120000.0);

  EXPECT_TRUE(f.ring_.IsConverged());
  EXPECT_EQ(f.DeepestRetainedSlot(crashed), -1)
      << "a death certificate should have reached every upstream holder";
  EXPECT_GT(f.net_.metrics().Counter("chord.death_cert_scrub"), 0u);
}

TEST(ChordScrub, SuccessorListInvariantHealsWithGossip) {
  // The PR 4 known-open ring.successor_list warning now closes: attach the
  // monitor, crash a node, and require zero open violations at quiesce.
  ScrubFixture f(/*death_cert_ttl_ms=*/30000.0);
  for (int i = 0; i < 12; ++i) f.ring_.AddNode(util::Format("mon-{}", i));
  f.ring_.ProtocolBootstrap(30000.0);
  ASSERT_TRUE(f.ring_.IsConverged());

  obs::InvariantMonitor monitor(f.sim_, f.net_.metrics().registry());
  obs::InstallRingChecks(monitor, f.ring_);
  monitor.Start(/*period_ms=*/500.0, /*until_ms=*/f.sim_.Now() + 120000.0);

  f.ring_.Node(3).Crash();
  f.ring_.Node(8).Crash();
  f.Settle(120000.0);
  monitor.RunOnce();

  EXPECT_TRUE(f.ring_.IsConverged());
  EXPECT_EQ(monitor.ledger().OpenCount("ring.successor_list"), 0u)
      << "deep-slot corpses must be scrubbed, not left as permanent warns";
  EXPECT_EQ(monitor.OpenViolations(), 0u);
}

}  // namespace
}  // namespace peertrack::chord
