#include "workload/perf_smoke.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>

#include "obs/explain.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/profiler.hpp"
#include "tracking/tracking_system.hpp"
#include "util/format.hpp"
#include "workload/scenario.hpp"

namespace peertrack::workload {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

PerfSmokeReport RunPerfSmoke(const PerfSmokeParams& params) {
  PerfSmokeReport report;

  auto mark = std::chrono::steady_clock::now();
  // Top-level phase scopes: everything the wall_* clocks measure runs
  // under a named root scope, which is what makes the profile's coverage
  // fraction (root inclusive / measured wall) meaningful.
  tracking::SystemConfig config;
  config.tracker.mode = tracking::IndexingMode::kGroup;
  config.tracker.window.tmax_ms = 1000.0;
  config.tracker.window.nmax = 8192;
  config.tracker.replicate_index = params.replicate;
  config.seed = params.seed;
  config.shards = std::max<std::size_t>(params.shards, 1);
  if (config.shards > 1 || params.disable_delegation) {
    // Delegated ascent resolves the child gateway with a synchronous
    // cross-actor call; under the sharded kernel that call could cross a
    // shard boundary mid-window (TrackerByActor asserts on it). Push the
    // threshold out of reach so no bucket ever delegates.
    config.tracker.delegation_threshold =
        std::numeric_limits<std::size_t>::max();
  }
  const std::size_t nodes = std::max<std::size_t>(params.nodes, 2);
  std::unique_ptr<tracking::TrackingSystem> system;
  {
    PROF_SCOPE("workload", "build");
    system = std::make_unique<tracking::TrackingSystem>(nodes, config);
  }
  report.wall_build_ms = ElapsedMs(mark);

  // Always-on black box: per-actor ring buffers of protocol events. The
  // recorder never schedules sim events or touches the RNG, so runs are
  // bit-identical with it on or off — which is exactly what the
  // determinism test asserts via the recorder_events=0 leg.
  if (params.recorder_events > 0) {
    system->network().EnableRecorder(params.recorder_events);
  }
  obs::FlightRecorder* recorder = system->network().recorder();

  mark = std::chrono::steady_clock::now();
  MovementParams movement;
  movement.nodes = nodes;
  movement.objects_per_node = std::max<std::size_t>(params.objects / nodes, 1);
  movement.move_fraction = 0.10;
  movement.trace_length = 10;
  movement.move_in_groups = true;
  movement.step_ms = 4000.0;

  // Health auditing rides along when asked: scan on a fixed sim-time
  // cadence over the indexing phase, plus one final settled scan below.
  // The monitor only schedules deterministic sim events, so same-params
  // repeats stay bit-identical.
  std::unique_ptr<obs::InvariantMonitor> monitor;
  if (params.invariants != InvariantMode::kOff) {
    // The monitor is coordinator-plane work: its scans make cross-actor
    // reads, so under the sharded kernel they run on the control simulator
    // (every shard parked at the scan instant).
    monitor = std::make_unique<obs::InvariantMonitor>(
        system->MonitorSimulator(), system->metrics().registry());
    if (params.invariants == InvariantMode::kIncremental) {
      monitor->EnableIncremental(system->network().delta_bus(),
                                 params.full_sweep_every_n_ticks);
    }
    obs::InstallRingChecks(*monitor, system->ring());
    obs::InstallTrackingChecks(*monitor, *system);
    if (recorder != nullptr && !params.forensics_dir.empty()) {
      obs::InvariantMonitor::ForensicOptions forensics;
      forensics.dir = params.forensics_dir;
      monitor->EnableForensics(*recorder, std::move(forensics));
    }
    const double horizon = movement.start_time +
                           movement.step_ms *
                               static_cast<double>(movement.trace_length + 1);
    monitor->Start(params.invariant_period_ms, horizon);
  }

  ScenarioResult scenario;
  {
    PROF_SCOPE("workload", "index");
    scenario = ExecuteScenario(*system, movement, params.seed ^ 0xE9C5EEDULL);
  }
  report.captures = scenario.captures;
  report.wall_index_ms = ElapsedMs(mark);

  mark = std::chrono::steady_clock::now();
  {
    PROF_SCOPE("workload", "query");
    util::Rng query_rng(params.seed ^ 0x9E3779B97F4A7C15ULL);
    for (std::size_t i = 0; i < params.queries; ++i) {
      const hash::UInt160& object =
          scenario.object_keys[query_rng.NextBelow(scenario.object_keys.size())];
      const auto origin = static_cast<std::size_t>(query_rng.NextBelow(nodes));
      bool ok = false;
      system->TraceQuery(origin, object,
                         [&ok](tracking::TrackerNode::TraceResult result) {
                           ok = result.ok;
                         });
      system->Run();
      ++(ok ? report.queries_ok : report.queries_failed);
      if (!ok && recorder != nullptr && !params.forensics_dir.empty()) {
        // A failed query is a forensic trigger like a violation opening:
        // dump the recorded history around the queried object.
        obs::ForensicTrigger trigger;
        trigger.check = "query.trace";
        trigger.subject = object.ToShortHex();
        trigger.detail = util::Format("trace query from node {} failed", origin);
        trigger.actor = system->Tracker(origin).Self().actor;
        trigger.when_ms = system->simulator().Now();
        trigger.event_seq = recorder->LastSeq();
        trigger.object = object;
        trigger.has_object = true;
        const obs::ForensicBundle bundle =
            recorder->Collect(trigger, {trigger.actor});
        if (!recorder->WriteBundle(bundle, params.forensics_dir).empty()) {
          ++report.forensic_bundles;
        }
      }
    }
  }
  report.wall_query_ms = ElapsedMs(mark);

  if (monitor != nullptr) {
    // Final scan with every message drained; in incremental mode force it
    // to a full sweep so every run ends with a populated cross-check. The
    // wall_* clocks have stopped: this sweep is the benchmark verifying
    // itself, so its wall time is reported separately from the periodic
    // scans that ran inside the index phase.
    const double steady_scan_ms = monitor->ScanWallMs();
    monitor->RunOnce(/*force_full_sweep=*/true);
    report.invariant_final_sweep_ms = monitor->ScanWallMs() - steady_scan_ms;
    report.invariant_scan_ms = steady_scan_ms;
    report.invariant_scans = monitor->ScansRun();
    report.invariant_violations = monitor->ViolationsOpened();
    report.invariant_open = monitor->OpenViolations();
    report.invariant_full_sweeps = monitor->FullSweeps();
    report.invariant_deltas = monitor->DeltasRouted();
    report.invariant_spills = monitor->Staging().spills;
    report.invariant_peak_staged = monitor->Staging().peak_staged;
    report.invariant_cross_check_misses = monitor->CrossCheckMisses();
    for (const auto& check : monitor->Report().checks) {
      report.invariant_check_ids.push_back(check.id);
    }
  }

  if (recorder != nullptr) {
    report.recorder_events = recorder->EventsRecorded();
  }
  if (monitor != nullptr) report.forensic_bundles += monitor->ForensicBundles();

  report.events = system->ProcessedEvents();
  report.messages = system->metrics().TotalMessages();
  report.bytes = system->metrics().TotalBytes();
  report.sim_time_ms = system->MonitorSimulator().Now();
  report.shards = config.shards;
  const sim::ShardEngine& engine = *system->engine();
  report.shard_windows = engine.WindowsExecuted();
  report.cross_shard_messages = engine.CrossShardMessages();
  report.lookahead_deferrals = engine.LookaheadDeferrals();
  report.cross_shard_direct_calls = engine.CrossShardDirectCalls();
  report.metric_rows = system->metrics().CsvRows();
  return report;
}

}  // namespace peertrack::workload
