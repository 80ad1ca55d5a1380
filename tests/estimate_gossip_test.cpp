#include "estimate/gossip.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace peertrack::estimate {
namespace {

struct GossipFixture {
  GossipFixture() : latency(5.0), rng(31), network(sim, latency, /*seed=*/31) {}
  sim::Simulator sim;
  sim::ConstantLatency latency;
  util::Rng rng;
  sim::Network network;
};

class GossipSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GossipSizes, EstimatesConvergeNearTrueSize) {
  GossipFixture f;
  const std::size_t n = GetParam();
  SizeEstimationEpoch epoch(f.network, f.rng, n);
  epoch.Start(/*round_ms=*/50.0, /*rounds=*/60);
  f.sim.Run();

  const double mean = epoch.MeanEstimate();
  EXPECT_NEAR(mean, static_cast<double>(n), 0.35 * static_cast<double>(n))
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GossipSizes, ::testing::Values(8, 32, 128));

TEST(Gossip, MassIsApproximatelyConserved) {
  GossipFixture f;
  SizeEstimationEpoch epoch(f.network, f.rng, 64);
  epoch.Start(50.0, 40);
  f.sim.Run();
  // Push-pull averaging conserves the field sum (= 1) up to in-flight
  // exchanges that finished cleanly; allow a modest tolerance.
  double sum = 0.0;
  for (const double e : epoch.Estimates()) sum += 1.0 / e;
  EXPECT_NEAR(sum, 1.0, 0.5);
}

TEST(Gossip, VarianceShrinksWithRounds) {
  auto variance_after = [](std::size_t rounds) {
    GossipFixture f;
    SizeEstimationEpoch epoch(f.network, f.rng, 64);
    epoch.Start(50.0, rounds);
    f.sim.Run();
    const auto estimates = epoch.Estimates();
    double mean = 0.0;
    for (const double e : estimates) mean += e;
    mean /= static_cast<double>(estimates.size());
    double var = 0.0;
    for (const double e : estimates) var += (e - mean) * (e - mean);
    return var / static_cast<double>(estimates.size());
  };
  EXPECT_LT(variance_after(50), variance_after(5));
}

TEST(Gossip, SingleAgentEstimatesOne) {
  GossipFixture f;
  SizeEstimationEpoch epoch(f.network, f.rng, 1);
  epoch.Start(50.0, 10);
  f.sim.Run();
  EXPECT_DOUBLE_EQ(epoch.Estimates().front(), 1.0);
}

TEST(Gossip, MessagesAreCounted) {
  GossipFixture f;
  SizeEstimationEpoch epoch(f.network, f.rng, 16);
  epoch.Start(50.0, 10);
  f.sim.Run();
  EXPECT_GT(f.network.metrics().ForType("gossip.push").count, 0u);
  EXPECT_GT(f.network.metrics().ForType("gossip.pull").count, 0u);
}

}  // namespace
}  // namespace peertrack::estimate
