// Supply-chain scenario: a three-echelon network (manufacturers ->
// distribution centers -> retailers) with pallets moving downstream, then a
// product recall — exactly the application the paper's introduction
// motivates.
//
// The recall traces every object of an affected production lot back to its
// manufacturing line, using only P2P queries; results are validated against
// the ground-truth oracle.
//
//   ./supply_chain [--manufacturers=4] [--dcs=8] [--retailers=20]
//                  [--lots=6] [--lot-size=40]

#include <cstdio>
#include <vector>

#include "peertrack.hpp"
#include "util/config.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

using namespace peertrack;

int main(int argc, char** argv) {
  const auto cli = util::Config::FromArgs(argc, argv);
  const std::size_t manufacturers = cli.GetUInt("manufacturers", 4);
  const std::size_t dcs = cli.GetUInt("dcs", 8);
  const std::size_t retailers = cli.GetUInt("retailers", 20);
  const std::size_t lots = cli.GetUInt("lots", 6);
  const std::size_t lot_size = cli.GetUInt("lot-size", 40);
  const std::size_t nodes = manufacturers + dcs + retailers;

  tracking::SystemConfig config;
  config.tracker.mode = tracking::IndexingMode::kGroup;
  config.tracker.window.tmax_ms = 500.0;
  tracking::TrackingSystem system(nodes, config);

  auto dc_of = [&](std::uint64_t lot) {
    return static_cast<std::uint32_t>(manufacturers + lot % dcs);
  };
  auto retailer_of = [&](std::uint64_t lot, std::uint64_t item) {
    return static_cast<std::uint32_t>(manufacturers + dcs +
                                      (lot * 7 + item) % retailers);
  };

  // Production: each lot is made at one manufacturer, shipped as a pallet
  // to one DC, then broken into cases that fan out to retailers.
  workload::EpcGenerator epc(/*seed=*/2024);
  std::vector<std::vector<hash::UInt160>> lot_objects(lots);
  moods::Time t = 10.0;
  for (std::uint64_t lot = 0; lot < lots; ++lot) {
    const auto factory = static_cast<std::uint32_t>(lot % manufacturers);
    for (std::uint64_t item = 0; item < lot_size; ++item) {
      const auto key = epc.Key(lot * lot_size + item);
      lot_objects[lot].push_back(key);
      system.CaptureAt(factory, key, t);                        // Produced.
      system.CaptureAt(dc_of(lot), key, t + 3'600'000.0);       // At the DC.
      system.CaptureAt(retailer_of(lot, item), key,
                       t + 7'200'000.0);                        // On the shelf.
    }
    t += 60'000.0;  // Lots start an hour-ish apart (compressed).
  }
  system.Run();
  system.FlushAllWindows();
  std::printf("supply chain: %zu orgs (%zu mfg, %zu DC, %zu retail), %zu lots x %zu "
              "items; %llu messages during operations\n",
              nodes, manufacturers, dcs, retailers, lots, lot_size,
              static_cast<unsigned long long>(system.metrics().TotalMessages()));

  // --- Recall: lot 3 is contaminated. Trace every item. -------------------
  const std::uint64_t recalled = 3 % lots;
  std::printf("\nRECALL of lot %llu: tracing %zu items...\n",
              static_cast<unsigned long long>(recalled), lot_objects[recalled].size());

  std::size_t verified = 0;
  std::size_t failures = 0;
  util::RunningStats latency;
  std::vector<std::size_t> shelf_counts(nodes, 0);
  for (const auto& object : lot_objects[recalled]) {
    system.TraceQuery(/*origin=*/0, object,
                      [&](tracking::TrackerNode::TraceResult result) {
                        if (!result.ok) {
                          ++failures;
                          return;
                        }
                        latency.Add(result.DurationMs());
                        // Validate against ground truth.
                        const auto* expected = system.oracle().FullTrace(object);
                        if (expected != nullptr &&
                            expected->size() == result.path.size()) {
                          ++verified;
                        }
                        const auto last =
                            system.NodeIndexOfActor(result.path.back().node.actor);
                        if (last < nodes) ++shelf_counts[last];
                      });
    system.Run();
  }

  std::printf("traced %zu/%zu items (%zu failures); every trace matched the oracle: "
              "%s; mean query time %.1f ms (simulated)\n",
              verified, lot_objects[recalled].size(), failures,
              verified == lot_objects[recalled].size() ? "yes" : "NO",
              latency.Mean());

  std::printf("\npull-from-shelf list (retailers holding recalled items):\n");
  for (std::size_t i = manufacturers + dcs; i < nodes; ++i) {
    if (shelf_counts[i] > 0) {
      std::printf("  org-%zu: %zu items\n", i, shelf_counts[i]);
    }
  }
  return 0;
}
