#pragma once
// Fixed-seed, fixed-scale performance scenario ("perf smoke").
//
// One canonical run that every PR can measure: build a converged
// group-indexing TrackingSystem, drive the Section V movement workload
// through it, then issue a batch of trace queries. The scenario is
// deterministic given its params (seeded RNG, (time, seq) event
// tie-breaking), so two same-seed runs must produce bit-identical
// Metrics::CsvRows() — the determinism regression test asserts exactly
// that, and bench/perf_smoke times the run and writes BENCH.json so the
// repo records its performance trajectory.

#include <cstdint>
#include <string>
#include <vector>

namespace peertrack::workload {

/// How the obs::InvariantMonitor rides along with the scenario.
enum class InvariantMode {
  kOff,          ///< No monitor at all.
  kFull,         ///< Every scan audits the full universe (legacy behaviour).
  kIncremental,  ///< Delta-driven dirty sets; every Nth scan is a full
                 ///< cross-check sweep (see obs::InvariantMonitor).
};

struct PerfSmokeParams {
  std::size_t nodes = 256;    ///< Organizations in the ring.
  std::size_t objects = 512000; ///< Total tracked objects (spread over nodes):
                                ///< 2000 per node at the default 256 nodes —
                                ///< ~5M events, ~10s at the pre-pass baseline,
                                ///< big enough that kernel changes move the
                                ///< needle well past run-to-run noise.
  std::size_t queries = 100;  ///< Trace queries after the indexing phase.
  std::uint64_t seed = 0xBE9C5ULL;

  /// Shard the event loop across this many threads (sim::ShardEngine).
  /// 1 runs the engine's thread-free pass-through on one simulator. >= 2
  /// runs conservative parallel windows; the final state (events,
  /// messages, bytes, captures, query outcomes, health ledger) matches the
  /// 1-shard oracle on the same seed. Sharding forces
  /// disable_delegation (the delegated-ascent fast path makes synchronous
  /// cross-actor calls, which would cross shard boundaries).
  std::size_t shards = 1;

  /// Raise the delegation threshold out of reach so gateways never take
  /// the delegated-ascent fast path. Implied by shards > 1; a 1-shard
  /// baseline leg sets it explicitly so sharded-vs-single comparisons
  /// measure the kernel, not a feature difference.
  bool disable_delegation = false;

  /// Replicate the gateway index to R successors (TrackerConfig defaults:
  /// R=2). On by default so the canonical BENCH.json numbers include the
  /// replication write path — the churn-recovery machinery is meant to be
  /// cheap enough to leave on. --replicate=0 measures the bare index.
  bool replicate = true;

  /// Run the obs::InvariantMonitor alongside the workload and record its
  /// overhead. The monitor schedules sim events, so two runs with the same
  /// params (including this mode) stay bit-identical, but a monitored run
  /// is not comparable event-for-event with a bare one. kFull and
  /// kIncremental schedule identical sim events (the modes differ only in
  /// host-side audit work), so they ARE comparable with each other — the
  /// differential harness relies on that.
  InvariantMode invariants = InvariantMode::kOff;
  double invariant_period_ms = 5000.0;  ///< Scan cadence (sim time).
  /// Incremental mode: every Nth scan is a full cross-check sweep.
  std::uint32_t full_sweep_every_n_ticks = 10;

  /// Flight recorder ring capacity per actor (obs::FlightRecorder). On by
  /// default: the canonical BENCH.json numbers include always-on recording,
  /// and the perf gate caps its profiled attribution at 5%. 0 disables
  /// recording entirely (A/B leg for the overhead measurement). Recording
  /// never schedules sim events, so same-seed runs stay bit-identical
  /// whether it is on or off.
  std::size_t recorder_events = 256;

  /// When non-empty, dump forensic bundles here: every violation the
  /// monitor opens (and every failed query) writes a
  /// peertrack.forensics.v1 JSON + Perfetto pair. Requires
  /// recorder_events > 0 and invariants != kOff for violation dumps.
  std::string forensics_dir;
};

struct PerfSmokeReport {
  // Simulation-side volume (deterministic across same-seed runs).
  std::uint64_t events = 0;    ///< Simulator events processed end-to-end.
  std::uint64_t messages = 0;  ///< Remote messages sent (index + query phases).
  std::uint64_t bytes = 0;     ///< Wire bytes for those messages.
  std::uint64_t captures = 0;  ///< Workload captures driven into receptors.
  std::size_t queries_ok = 0;
  std::size_t queries_failed = 0;
  double sim_time_ms = 0.0;    ///< Final simulated clock.

  // Host-side wall-clock timings (informational; never fed back into the
  // simulation, so they cannot perturb determinism).
  double wall_build_ms = 0.0;  ///< System construction + ring convergence.
  double wall_index_ms = 0.0;  ///< Movement workload (capture -> index).
  double wall_query_ms = 0.0;  ///< Query batch.
  double WallTotalMs() const noexcept {
    return wall_build_ms + wall_index_ms + wall_query_ms;
  }

  // Invariant-monitor results (all zero unless params.invariants != kOff).
  std::uint64_t invariant_scans = 0;      ///< Health scans run.
  std::size_t invariant_violations = 0;   ///< Violations opened over the run.
  std::size_t invariant_open = 0;         ///< Still open at the end.
  /// Wall-clock spent in the periodic scans that ride along with the
  /// workload, and in the staged-delta drains between them (informational,
  /// like wall_*). Both run inside the index phase, so this is the
  /// overhead numerator over WallTotalMs().
  double invariant_scan_ms = 0.0;
  /// Wall-clock of the forced final full sweep. That sweep runs after the
  /// wall_* clocks stop: it is the benchmark's verification step (settled
  /// world, populated cross-check), not steady-state monitoring overhead,
  /// so it is accounted separately. Violations / open / cross-check-miss
  /// counts are read after it and therefore still cover it.
  double invariant_final_sweep_ms = 0.0;
  std::uint64_t invariant_full_sweeps = 0;  ///< Scans run as full sweeps.
  std::uint64_t invariant_deltas = 0;       ///< Deltas routed to dirty sets.
  /// Drains between scans, when the staged backlog reached the cap.
  std::uint64_t invariant_spills = 0;
  /// Largest staged backlog any drain found (scan or spill).
  std::uint64_t invariant_peak_staged = 0;
  /// Full-sweep findings the incremental path would have missed — must be
  /// zero; nonzero means a mutation site forgot to publish a delta.
  std::uint64_t invariant_cross_check_misses = 0;
  /// Registered check ids, in registration order.
  std::vector<std::string> invariant_check_ids;

  // Flight-recorder results (zero when params.recorder_events == 0).
  std::uint64_t recorder_events = 0;   ///< Protocol events recorded.
  std::size_t forensic_bundles = 0;    ///< Bundles written (violations +
                                       ///< failed queries).

  // Sharded-kernel counters (defaults when params.shards == 1: no engine).
  std::size_t shards = 1;                      ///< Echo of the shard count run.
  std::uint64_t shard_windows = 0;             ///< Parallel windows executed.
  std::uint64_t cross_shard_messages = 0;      ///< Mailbox-staged deliveries.
  std::uint64_t lookahead_deferrals = 0;       ///< Sends clamped to window end.
  /// Synchronous cross-actor calls made from a foreign shard mid-window —
  /// colocation-contract breaches. Must be zero; the bench hard-fails on it.
  std::uint64_t cross_shard_direct_calls = 0;

  /// Full Metrics::CsvRows() dump at the end of the run; the determinism
  /// test compares this row-for-row between same-seed runs.
  std::vector<std::vector<std::string>> metric_rows;
};

/// Run the scenario. Deterministic given `params`.
PerfSmokeReport RunPerfSmoke(const PerfSmokeParams& params);

}  // namespace peertrack::workload
