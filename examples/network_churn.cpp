// Network dynamics: organizations joining and leaving, gossip-based size
// estimation, and Lp adaptation with the Data-Triangle split cascade —
// the machinery of paper Sections IV-A1/IV-A2 that the static experiments
// do not exercise.
//
// Phase 1: protocol-level Chord churn (joins, graceful leaves, a crash)
//          with stabilization repairing the ring. An InvariantMonitor
//          audits the ring against the true membership throughout: churn
//          opens transient violations, stabilization closes them, and the
//          repair-latency percentiles land in the health report.
// Phase 2: gossip size estimation approximating Nn (the paper's [14]).
// Phase 3: growing the tracked network until Scheme-2's Lp increments,
//          splitting the prefix index, and verifying queries still resolve
//          — with ring + tracking invariants audited end-to-end.
//
//   ./network_churn [--nodes=24] [--growth=40] [--health=health.json]
//                   [--invariant-mode=off|full|incremental]
//                   [--recorder-events=256] [--forensics=DIR]
//
// --recorder-events sizes the per-actor flight-recorder ring (0 disables
// recording); with --forensics=DIR every violation a monitor opens dumps
// a forensic bundle (peertrack.forensics.v1 JSON + Perfetto track) under
// DIR/<phase>/, and the health summary prints each bundle's cause tree.
//
// --invariant-mode selects how phases 1 and 3 audit: `full` (default)
// re-scans the whole world every tick, `incremental` audits only subjects
// the StateDeltaBus marked dirty (with periodic full cross-check sweeps
// that must find nothing new), `off` skips the monitors — and with them
// the health report and exit-code verdict.
//
// Exit code 2 if ANY violation is still open at the end of a phase — with
// successor-list scrubbing, gateway-index replication, and graceful-leave
// handoff in place, every violation is expected to heal by quiesce. In
// incremental mode a nonzero cross-check miss count also exits 2: it means
// a mutation site forgot to publish a delta.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "peertrack.hpp"
#include "util/config.hpp"
#include "util/format.hpp"

using namespace peertrack;

namespace {

/// Named per-phase health reports, combined into one JSON document.
using HealthLog = std::vector<std::pair<std::string, obs::HealthReport>>;

enum class AuditMode { kOff, kFull, kIncremental };

/// Flight-recorder knobs shared by the audited phases.
struct RecorderOptions {
  std::size_t events_per_actor = 256;
  std::string forensics_dir;  ///< Empty = record but never dump.
};

void RunChordChurnPhase(std::size_t n, AuditMode mode,
                        const RecorderOptions& recorder_options,
                        HealthLog& health) {
  std::printf("--- phase 1: Chord membership under churn (%zu nodes) ---\n", n);
  sim::Simulator sim;
  sim::ConstantLatency latency(5.0);
  sim::Network network(sim, latency, /*seed=*/17);
  chord::ChordRing::Options options;
  options.stabilize_every_ms = 100.0;
  options.fix_fingers_every_ms = 10.0;
  chord::ChordRing ring(network, options);
  if (recorder_options.events_per_actor > 0) {
    network.EnableRecorder(recorder_options.events_per_actor);
  }
  for (std::size_t i = 0; i < n; ++i) ring.AddNode(util::Format("org-{}", i));
  ring.ProtocolBootstrap(/*settle_ms=*/30'000.0);
  std::printf("bootstrap converged: %s\n", ring.IsConverged() ? "yes" : "NO");

  // Audit the ring against the true membership for the whole churn window.
  // Every leave/join/crash opens violations (wrong successors, dead finger
  // targets) that stabilization then repairs; the monitor times each one.
  obs::Registry registry;
  std::unique_ptr<obs::InvariantMonitor> monitor;
  if (mode != AuditMode::kOff) {
    monitor = std::make_unique<obs::InvariantMonitor>(sim, registry);
    if (mode == AuditMode::kIncremental) {
      monitor->EnableIncremental(network.delta_bus());
    }
    obs::InstallRingChecks(*monitor, ring);
    if (network.recorder() != nullptr &&
        !recorder_options.forensics_dir.empty()) {
      obs::InvariantMonitor::ForensicOptions forensics;
      forensics.dir =
          util::Format("{}/chord_churn", recorder_options.forensics_dir);
      monitor->EnableForensics(*network.recorder(), std::move(forensics));
    }
    monitor->Start(/*period_ms=*/250.0, /*until_ms=*/sim.Now() + 90'000.0);
  }

  ring.Node(n / 3).Leave();
  ring.ProtocolJoin("late-joiner");
  ring.Node(n / 2).Crash();
  sim.RunUntil(sim.Now() + 90'000.0);
  std::printf("after leave+join+crash: %zu alive, converged: %s, failovers: %llu\n",
              ring.AliveCount(), ring.IsConverged() ? "yes" : "NO",
              static_cast<unsigned long long>(
                  network.metrics().Counter("chord.successor_failover")));

  if (monitor != nullptr) {
    // Final scan on the settled ring (forced full sweep so incremental runs
    // end with a populated cross-check).
    monitor->RunOnce(/*force_full_sweep=*/true);
    const obs::HealthReport report = monitor->Report();
    std::fputs(report.SummaryTable().c_str(), stdout);
    health.emplace_back("chord_churn", report);
  }
}

double RunGossipPhase(std::size_t n) {
  std::printf("\n--- phase 2: gossip size estimation (%zu nodes) ---\n", n);
  sim::Simulator sim;
  sim::ConstantLatency latency(5.0);
  util::Rng rng(23);
  sim::Network network(sim, latency, /*seed=*/23);
  estimate::SizeEstimationEpoch epoch(network, rng, n);
  epoch.Start(/*round_ms=*/50.0, /*rounds=*/50);
  sim.Run();
  const double estimate = epoch.MeanEstimate();
  std::printf("true Nn=%zu, gossip estimate=%.1f (%.0f%% error), %llu messages\n", n,
              estimate, 100.0 * (estimate - static_cast<double>(n)) /
                            static_cast<double>(n),
              static_cast<unsigned long long>(network.metrics().TotalMessages()));
  return estimate;
}

void RunGrowthPhase(std::size_t n, std::size_t growth, AuditMode mode,
                    const RecorderOptions& recorder_options,
                    HealthLog& health) {
  std::printf("\n--- phase 3: network growth, Lp adaptation, index splitting ---\n");
  tracking::SystemConfig config;
  config.tracker.mode = tracking::IndexingMode::kGroup;
  config.tracker.replicate_index = true;  // Exercise gateway.replication.
  tracking::TrackingSystem system(n, config);
  if (recorder_options.events_per_actor > 0) {
    system.network().EnableRecorder(recorder_options.events_per_actor);
  }
  std::printf("start: %zu orgs, Lp=%u, replication R=%zu\n", n, system.CurrentLp(),
              static_cast<std::size_t>(config.tracker.replication_factor));

  // Ring + tracking invariants audited across indexing, growth, and the
  // post-growth queries. The workload below finishes well before the
  // horizon; growth and queries drain the event queue themselves, so late
  // scans come from the manual RunOnce below.
  obs::Registry registry;
  std::unique_ptr<obs::InvariantMonitor> monitor;
  if (mode != AuditMode::kOff) {
    monitor = std::make_unique<obs::InvariantMonitor>(system.simulator(), registry);
    if (mode == AuditMode::kIncremental) {
      monitor->EnableIncremental(system.network().delta_bus());
    }
    obs::InstallRingChecks(*monitor, system.ring());
    obs::InstallTrackingChecks(*monitor, system);
    if (system.network().recorder() != nullptr &&
        !recorder_options.forensics_dir.empty()) {
      obs::InvariantMonitor::ForensicOptions forensics;
      forensics.dir =
          util::Format("{}/growth", recorder_options.forensics_dir);
      monitor->EnableForensics(*system.network().recorder(),
                               std::move(forensics));
    }
    monitor->Start(/*period_ms=*/1000.0, /*until_ms=*/60'000.0);
  }

  // Seed the network with objects.
  workload::MovementParams params;
  params.nodes = n;
  params.objects_per_node = 100;
  params.move_fraction = 0.1;
  params.trace_length = 4;
  const auto scenario = workload::ExecuteScenario(system, params, /*epc_seed=*/5);

  const unsigned lp_before = system.CurrentLp();
  system.GrowNetwork(growth);
  const unsigned lp_after = system.RecomputePrefixLength();
  std::printf("after +%zu joins: %zu orgs, Lp %u -> %u, index splits: %llu\n", growth,
              system.NodeCount(), lp_before, lp_after,
              static_cast<unsigned long long>(
                  system.metrics().Counter("track.triangle_split")));

  // Old objects must still resolve through the re-shaped index.
  util::Rng rng(9);
  std::size_t ok = 0;
  const std::size_t probes = 25;
  for (std::size_t i = 0; i < probes; ++i) {
    const auto& object =
        scenario.object_keys[rng.NextBelow(scenario.object_keys.size())];
    system.LocateQuery(rng.NextBelow(system.NodeCount()), object,
                       [&](tracking::TrackerNode::LocateResult result) {
                         if (result.ok) ++ok;
                       });
    system.Run();
  }
  std::printf("post-growth locate queries: %zu/%zu resolved\n", ok, probes);

  // Let in-flight repairs settle past the staleness window, then take the
  // final scan the health verdict is based on.
  system.RunUntil(system.simulator().Now() +
                  config.tracker.window.tmax_ms + 3000.0);
  if (monitor != nullptr) {
    monitor->RunOnce(/*force_full_sweep=*/true);
    const obs::HealthReport report = monitor->Report();
    std::fputs(report.SummaryTable().c_str(), stdout);
    health.emplace_back("growth", report);
  }
}

std::string CombinedHealthJson(const HealthLog& health) {
  std::string json = "{\n  \"report\": \"network_churn_health\",\n  \"phases\": [";
  for (std::size_t i = 0; i < health.size(); ++i) {
    if (i > 0) json += ",";
    json += util::Format("\n    {{\"name\": \"{}\", \"health\": ",
                         obs::JsonEscape(health[i].first));
    json += health[i].second.ToJson();
    json += "}";
  }
  json += "\n  ]\n}\n";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = util::Config::FromArgs(argc, argv);
  const std::size_t nodes = cli.GetUInt("nodes", 24);
  const std::size_t growth = cli.GetUInt("growth", 40);
  const std::string health_path = cli.GetString("health", "");
  const std::string mode_name = cli.GetString("invariant-mode", "full");
  AuditMode mode = AuditMode::kFull;
  if (mode_name == "off") {
    mode = AuditMode::kOff;
  } else if (mode_name == "incremental") {
    mode = AuditMode::kIncremental;
  } else if (mode_name != "full") {
    std::fprintf(stderr,
                 "network_churn: unknown --invariant-mode=%s "
                 "(want off|full|incremental)\n",
                 mode_name.c_str());
    return 1;
  }

  RecorderOptions recorder_options;
  recorder_options.events_per_actor =
      cli.GetUInt("recorder-events", recorder_options.events_per_actor);
  recorder_options.forensics_dir = cli.GetString("forensics", "");

  HealthLog health;
  RunChordChurnPhase(nodes, mode, recorder_options, health);
  RunGossipPhase(nodes);
  RunGrowthPhase(nodes, growth, mode, recorder_options, health);

  if (!health_path.empty()) {
    std::ofstream out(health_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "network_churn: cannot write %s\n", health_path.c_str());
      return 1;
    }
    out << CombinedHealthJson(health);
    std::fprintf(stderr, "(health report written to %s)\n", health_path.c_str());
  }

  // ANY still-open violation means the run ended in a state the protocols
  // failed to repair — structural debt, not noise. Churn-resilient
  // recovery (successor-list scrubbing, index replication, graceful-leave
  // handoff) is expected to close every violation by quiesce, so the
  // former warn-level tolerance is gone: surface it all in the exit code.
  for (const auto& [name, report] : health) {
    if (report.open_violations > 0) {
      std::fprintf(stderr,
                   "network_churn: %zu violation(s) (%zu fatal) still open after %s\n",
                   report.open_violations, report.open_fatal, name.c_str());
      return 2;
    }
    if (report.cross_check_misses > 0) {
      std::fprintf(stderr,
                   "network_churn: %llu cross-check miss(es) in %s — a "
                   "mutation site forgot to publish a delta\n",
                   static_cast<unsigned long long>(report.cross_check_misses),
                   name.c_str());
      return 2;
    }
  }
  return 0;
}
