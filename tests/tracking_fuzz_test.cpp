// Randomized end-to-end property sweep: for random seeds, network sizes,
// modes, and movement shapes, EVERY object's distributed trace must equal
// the ground-truth oracle. This is the repository's strongest single
// correctness statement about the whole stack (capture -> window -> DHT
// routing -> gateway index -> triangle -> M2/M3 -> IOP walk).

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "tracking/tracking_system.hpp"
#include "workload/scenario.hpp"

namespace peertrack::tracking {
namespace {

// gtest prints a parameter that has no printer as its raw bytes, and the
// case names ctest discovers embed that dump. So FuzzCase has no padding:
// padding bytes are never initialised, and would make the names differ
// from build to build. A PrintTo would fix that too, but would rename
// every case.
struct FuzzCase {
  std::uint64_t seed;
  std::size_t nodes;
  IndexingMode mode;
  std::uint32_t move_in_groups;  ///< 0 or 1; a bool would leave padding.
};
static_assert(std::has_unique_object_representations_v<FuzzCase>,
              "FuzzCase must have no padding bytes");

class EndToEndFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(EndToEndFuzz, EverySampledTraceMatchesOracle) {
  const FuzzCase& fuzz = GetParam();
  SystemConfig config;
  config.tracker.mode = fuzz.mode;
  config.tracker.window.tmax_ms = 150.0;
  config.tracker.window.nmax = 256;
  config.tracker.delegation_threshold = 32;  // Make the triangle work hard.
  config.tracker.alpha = 0.6;
  config.seed = fuzz.seed;
  TrackingSystem system(fuzz.nodes, config);

  workload::MovementParams params;
  params.nodes = fuzz.nodes;
  params.objects_per_node = 25;
  params.move_fraction = 0.4;
  params.trace_length = 5;
  params.move_in_groups = fuzz.move_in_groups != 0;
  params.step_ms = 2500.0;
  params.jitter_ms = fuzz.move_in_groups ? 0.0 : 800.0;
  const auto scenario = workload::ExecuteScenario(system, params, fuzz.seed ^ 0xf);

  util::Rng rng(fuzz.seed * 31 + 7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t seq =
        trial % 2 == 0 && !scenario.movers.empty()
            ? scenario.movers[rng.NextBelow(scenario.movers.size())]
            : rng.NextBelow(scenario.object_keys.size());
    const auto& object = scenario.object_keys[seq];
    const auto origin = static_cast<std::size_t>(rng.NextBelow(fuzz.nodes));

    bool done = false;
    system.TraceQuery(origin, object, [&](TrackerNode::TraceResult result) {
      const auto* expected = system.oracle().FullTrace(object);
      ASSERT_NE(expected, nullptr);
      ASSERT_TRUE(result.ok)
          << "seed=" << fuzz.seed << " object=" << object.ToShortHex();
      ASSERT_EQ(result.path.size(), expected->size())
          << "seed=" << fuzz.seed << " object=" << object.ToShortHex();
      for (std::size_t i = 0; i < expected->size(); ++i) {
        EXPECT_EQ(system.NodeIndexOfActor(result.path[i].node.actor),
                  (*expected)[i].node);
        EXPECT_DOUBLE_EQ(result.path[i].arrived, (*expected)[i].arrived);
      }
      done = true;
    });
    system.Run();
    ASSERT_TRUE(done);
  }
}

std::vector<FuzzCase> MakeCases() {
  std::vector<FuzzCase> cases;
  std::uint64_t seed = 0xbeef;
  for (const std::size_t nodes : {5u, 13u, 29u}) {
    for (const auto mode : {IndexingMode::kIndividual, IndexingMode::kGroup}) {
      for (const bool grouped : {true, false}) {
        cases.push_back(FuzzCase{seed++, nodes, mode, grouped});
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<FuzzCase>& info) {
  std::string name = "n";
  name += std::to_string(info.param.nodes);
  name += info.param.mode == IndexingMode::kGroup ? "_group" : "_individual";
  name += info.param.move_in_groups ? "_pallets" : "_loose";
  name += "_s";
  name += std::to_string(info.param.seed & 0xFF);
  return name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EndToEndFuzz, ::testing::ValuesIn(MakeCases()),
                         CaseName);

}  // namespace
}  // namespace peertrack::tracking
