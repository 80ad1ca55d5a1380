// Generic DHT put/get facade over the Chord overlay.

#include <gtest/gtest.h>

#include "chord/dht.hpp"

#include "hash/keyspace.hpp"
#include "chord/chord_ring.hpp"
#include "util/format.hpp"

namespace peertrack::chord {
namespace {

struct DhtFixture {
  explicit DhtFixture(std::size_t n)
      : latency(5.0), network(sim, latency, /*seed=*/21), ring(network) {
    for (std::size_t i = 0; i < n; ++i) ring.AddNode(util::Format("kv-{}", i));
    ring.OracleBootstrap();
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<DhtNode>(ring.Node(i)));
    }
  }

  sim::Simulator sim;
  sim::ConstantLatency latency;
  sim::Network network;
  ChordRing ring;
  std::vector<std::unique_ptr<DhtNode>> nodes;
};

Key KeyOf(const std::string& name) { return hash::ObjectKey(name); }

TEST(Dht, PutThenGetFromAnyNode) {
  DhtFixture f(16);
  bool stored = false;
  f.nodes[0]->Put(KeyOf("color"), "teal", [&](bool ok) { stored = ok; });
  f.sim.Run();
  ASSERT_TRUE(stored);

  for (const std::size_t reader : {std::size_t{3}, std::size_t{9}, std::size_t{15}}) {
    bool done = false;
    f.nodes[reader]->Get(KeyOf("color"), [&](bool found, const std::string& value) {
      EXPECT_TRUE(found);
      EXPECT_EQ(value, "teal");
      done = true;
    });
    f.sim.Run();
    ASSERT_TRUE(done) << "reader " << reader;
  }
}

TEST(Dht, MissingKeyReportsNotFound) {
  DhtFixture f(8);
  bool done = false;
  f.nodes[2]->Get(KeyOf("nothing"), [&](bool found, const std::string& value) {
    EXPECT_FALSE(found);
    EXPECT_TRUE(value.empty());
    done = true;
  });
  f.sim.Run();
  EXPECT_TRUE(done);
}

TEST(Dht, OverwriteReplacesValue) {
  DhtFixture f(8);
  f.nodes[0]->Put(KeyOf("k"), "v1");
  f.sim.Run();
  f.nodes[5]->Put(KeyOf("k"), "v2");
  f.sim.Run();
  bool done = false;
  f.nodes[1]->Get(KeyOf("k"), [&](bool found, const std::string& value) {
    EXPECT_TRUE(found);
    EXPECT_EQ(value, "v2");
    done = true;
  });
  f.sim.Run();
  EXPECT_TRUE(done);
}

TEST(Dht, ValuesLandOnOracleOwner) {
  DhtFixture f(12);
  for (int i = 0; i < 40; ++i) {
    f.nodes[static_cast<std::size_t>(i) % 12]->Put(
        KeyOf("item-" + std::to_string(i)), std::to_string(i));
  }
  f.sim.Run();
  for (int i = 0; i < 40; ++i) {
    const Key key = KeyOf("item-" + std::to_string(i));
    const NodeRef owner = f.ring.ExpectedSuccessor(key);
    const auto owner_index = [&] {
      for (std::size_t n = 0; n < f.nodes.size(); ++n) {
        if (f.nodes[n]->chord().Self().actor == owner.actor) return n;
      }
      return std::size_t{999};
    }();
    ASSERT_LT(owner_index, f.nodes.size());
    EXPECT_TRUE(f.nodes[owner_index]->LocalValue(key).has_value()) << i;
  }
}

TEST(Dht, GracefulLeaveMigratesValues) {
  DhtFixture f(10);
  std::vector<Key> keys;
  for (int i = 0; i < 60; ++i) {
    keys.push_back(KeyOf("migrate-" + std::to_string(i)));
    f.nodes[0]->Put(keys.back(), "payload-" + std::to_string(i));
  }
  f.sim.Run();

  // Leave with the most-loaded node so migration definitely happens.
  std::size_t loaded = 0;
  for (std::size_t n = 1; n < f.nodes.size(); ++n) {
    if (f.nodes[n]->StoredEntries() > f.nodes[loaded]->StoredEntries()) loaded = n;
  }
  ASSERT_GT(f.nodes[loaded]->StoredEntries(), 0u);
  f.ring.Node(loaded).Leave();
  f.sim.Run();
  f.ring.OracleBootstrap();  // Re-converge survivor routing state.

  // Every key must still be retrievable from a surviving node.
  std::size_t alive_reader = loaded == 0 ? 1 : 0;
  for (const auto& key : keys) {
    bool done = false;
    f.nodes[alive_reader]->Get(key, [&](bool found, const std::string&) {
      EXPECT_TRUE(found) << key.ToShortHex();
      done = true;
    });
    f.sim.Run();
    ASSERT_TRUE(done);
  }
}

}  // namespace
}  // namespace peertrack::chord
