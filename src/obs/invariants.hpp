#pragma once
// Online invariant monitor: continuous structural health auditing.
//
// The paper's correctness rests on three distributed structures staying
// mutually consistent — the Chord ring, the IOP doubly-linked list, and the
// Data Triangle's delegation — yet under churn and loss they drift and
// (usually) re-converge without anything observing either event. The
// InvariantMonitor is the distributed-systems analogue of a NaN/divergence
// watchdog: it registers named checks, runs them periodically on the
// simulated clock, and turns the findings into open/close Violation
// records via a HealthLedger, so transient inconsistency becomes a
// measurable time-to-repair distribution instead of silent luck.
//
// Checks are omniscient-but-read-only: they scan live node state directly
// (the simulator's equivalent of a debug sidecar with a consistent
// snapshot) and never mutate it, so an enabled monitor cannot change
// protocol behaviour — only event counts (its own ticks) and wall time.
//
// Pass/fail counters, open-violation gauges, and repair-latency histograms
// feed the obs::Registry, so the existing TimeSeriesSampler captures
// structural health as a time series next to traffic metrics.
//
// Like export.hpp, this header sits *above* sim/chord/tracking; health.hpp
// and registry.hpp stay below sim. See DESIGN.md §8 for the check
// catalogue.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/delta_bus.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"

namespace peertrack::chord {
class ChordRing;
}
namespace peertrack::sim {
class ShardEngine;
}
namespace peertrack::tracking {
class TrackingSystem;
}

namespace peertrack::obs {

/// Collector handed to a check for one scan.
class CheckContext {
 public:
  explicit CheckContext(double now, bool full_pass = true,
                        bool incremental = false)
      : now_(now), full_pass_(full_pass), incremental_(incremental) {}

  /// Report one finding. `subject` must identify the fault stably across
  /// scans (the ledger matches on it); `detail` is free-form.
  void Report(std::uint32_t actor, std::string subject, std::string detail) {
    Finding finding;
    finding.actor = actor;
    finding.subject = std::move(subject);
    finding.detail = std::move(detail);
    findings_.push_back(std::move(finding));
  }
  /// Object-grain overload: also carries the object key, so the forensic
  /// dump can match recorded history by key instead of parsing `subject`.
  void Report(std::uint32_t actor, const hash::UInt160& object,
              std::string subject, std::string detail) {
    Finding finding;
    finding.actor = actor;
    finding.subject = std::move(subject);
    finding.detail = std::move(detail);
    finding.object = object;
    finding.has_object = true;
    findings_.push_back(std::move(finding));
  }
  void Report(Finding finding) { findings_.push_back(std::move(finding)); }

  double Now() const noexcept { return now_; }

  /// True when this scan must audit the full universe: every scan in
  /// legacy full mode, every Nth tick (the cross-check sweep) in
  /// incremental mode. Checks written with a dirty set fall back to their
  /// full enumeration when set.
  bool FullPass() const noexcept { return full_pass_; }
  /// True when the monitor is delta-driven (EnableIncremental succeeded).
  bool Incremental() const noexcept { return incremental_; }

  /// Record one cross-check miss: a full-sweep finding on a subject the
  /// incremental path had no reason to audit (not dirty, not watched, not
  /// already open). Nonzero means a mutation site forgot to publish a
  /// delta — see DESIGN.md §8.2.
  void CrossCheckMiss() noexcept { ++cross_check_misses_; }
  std::size_t CrossCheckMisses() const noexcept { return cross_check_misses_; }

  const std::vector<Finding>& findings() const noexcept { return findings_; }

  /// Put the findings in canonical order: by subject, then actor, detail
  /// and object. The monitor calls this before reconciling, so the ledger
  /// (its record order, and so the capped forensic-bundle choice) does not
  /// depend on the order keys were audited in or on the partition count.
  void SortFindings();

 private:
  double now_;
  bool full_pass_ = true;
  bool incremental_ = false;
  std::size_t cross_check_misses_ = 0;
  std::vector<Finding> findings_;
};

class InvariantMonitor {
 public:
  using CheckFn = std::function<void(CheckContext&)>;

  /// Instruments are created in `registry` (typically
  /// network.metrics().registry() so samplers see them). The monitor must
  /// not outlive the simulator, the registry, or any structure its checks
  /// scan.
  InvariantMonitor(sim::Simulator& simulator, Registry& registry);
  ~InvariantMonitor();

  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  /// Switch to event-driven auditing: claim `bus`'s staging buffers (which
  /// arms the publishers' Active() guard) so mutations append compact PODs
  /// there, and route the backlog into the installers' marks through
  /// DrainStaged — at the top of every scan, and between scans whenever
  /// it passes the staging cap (the bus's spill hook; see
  /// SpillAfterWindows for sharded runs). Regular ticks then audit only
  /// dirty/watched subjects; every `full_sweep_every_n_ticks`-th scan still
  /// audits the full universe as a cross-check, counting any finding the
  /// incremental path would have missed (CrossCheckMisses() must stay 0).
  /// Returns false — and the monitor stays in full mode — when another
  /// consumer already holds the bus's staging. Call before Start(); `bus`
  /// must outlive the monitor.
  bool EnableIncremental(StateDeltaBus& bus,
                         std::uint32_t full_sweep_every_n_ticks = 10);
  bool IncrementalEnabled() const noexcept { return bus_ != nullptr; }

  /// Test seam: drain whenever the backlog reaches `deltas` instead of
  /// StateDeltaBus::kStagingCap. Call before EnableIncremental.
  void SetStagingCap(std::size_t deltas);

  /// Register a stage drain (one per installer): route `backlog`'s staged
  /// deltas into the installer's mark sets. DrainStaged runs every drain,
  /// in registration order, then clears the backlog, so this is the only
  /// way deltas reach the checks. A drain may run between scans, from
  /// inside a protocol event or right after a shard window's barrier, so
  /// it must touch monitor-owned state only, and it may run several times
  /// per scan: its operations must commute across chunks. It may run
  /// key-partitioned work through RunPartitioned().
  using StageDrain = std::function<void(const StateDeltaBus& backlog)>;
  void AddStageDrain(StageDrain drain);

  /// Route every staged delta into the installers' marks now and clear the
  /// backlog. The routed count is held back until the next scan, so
  /// DeltasRouted() and the delta-depth gauge move only at scans; the wall
  /// time counts in ScanWallMs(). Never call it from inside a partitioned
  /// pass.
  void DrainStaged();

  /// Sharded runs: drain from `engine`'s window epilogue whenever the
  /// backlog has reached the staging cap, so a burst staged inside windows
  /// is drained as soon as the workers park. `engine` must outlive the
  /// monitor; the destructor clears the epilogue.
  void SpillAfterWindows(sim::ShardEngine& engine);

  /// Register a scan phase (one per installer). Phases run at the top of
  /// every scan, after DrainStaged, in registration order, before any
  /// check. `scan` carries the scan's sim time and pass flags; findings go
  /// to the checks' own contexts, never to it. A phase may run
  /// key-partitioned work through RunPartitioned().
  using ScanPhase = std::function<void(const CheckContext& scan)>;
  void AddScanPhase(ScanPhase phase);

  /// Key-partitioned fan-out (DESIGN.md §8.2). `run(fn)` must call fn(p)
  /// once for every p in [0, partitions) — concurrently or not — and return
  /// when all calls are done. Set it before installing checks: installers
  /// size their per-partition state from Partitions().
  /// InstallTrackingChecks adopts the system's shard engine (one partition
  /// per shard, partition p on shard p's parked thread) unless a fan-out
  /// was set already; setting one first is how a single-shard test splits
  /// its scan. It also calls SpillAfterWindows on the engine when the
  /// monitor is incremental.
  using FanOut =
      std::function<void(const std::function<void(std::uint32_t)>& fn)>;
  void SetFanOut(std::uint32_t partitions, FanOut run);
  bool HasFanOut() const noexcept { return static_cast<bool>(fan_out_); }
  /// Partition count: 1 until SetFanOut.
  std::uint32_t Partitions() const noexcept { return partitions_; }
  /// Run fn(p) for every partition through the fan-out (inline without
  /// one); returns when every call is done.
  void RunPartitioned(const std::function<void(std::uint32_t)>& fn) const;

  /// Register a hook that runs after every scan, once all checks have run,
  /// with the scan's sim time. Installers use it to retire dirty marks that
  /// several checks share (a check cannot clear them itself without
  /// starving its siblings) and to erase deferred gates every check judged.
  void AddScanEpilogue(std::function<void(double now)> epilogue);

  /// Register a named check. Per-check instruments:
  ///   counter invariant.pass:<id> / invariant.fail:<id>  (scan granularity)
  ///   gauge   invariant.open:<id>                        (open violations)
  ///   histogram invariant.repair_ms:<id>                 (heal latencies)
  /// The check body also runs under profiler scope "invariant.<id>".
  void AddCheck(std::string id, Severity severity, CheckFn fn);

  /// Scan now, then every `period_ms` while the next tick is <= `until_ms`
  /// (the shared BoundedPeriodicSchedule in export.hpp, so a drained
  /// simulator still terminates). May be called mid-run; the first scan
  /// happens at the current simulated time.
  void Start(double period_ms, double until_ms);

  /// Run every check once at the current simulated time. In incremental
  /// mode `force_full_sweep` promotes this scan to a full cross-check
  /// sweep regardless of cadence (workloads use it for the final settled
  /// scan); in full mode every scan is a full sweep anyway.
  void RunOnce(bool force_full_sweep = false);

  /// Automated violation forensics: every violation a scan *opens* dumps a
  /// forensic bundle from `recorder` (the afflicted actor's window plus
  /// every actor whose ring mentions the subject object, merged in sim-time
  /// order), runs the causal explainer over it, and attaches bundle path /
  /// trigger event id / cause tree to the Violation record (rendered into
  /// the health report; see DESIGN.md §12). `recorder` must outlive the
  /// monitor. `max_bundles` caps dumps per run so a violation storm cannot
  /// fill the disk; 0 bundles dumped after the cap, counters keep going.
  struct ForensicOptions {
    std::string dir = "forensics";
    std::size_t max_bundles = 16;
  };
  void EnableForensics(FlightRecorder& recorder, ForensicOptions options);
  void EnableForensics(FlightRecorder& recorder) {
    EnableForensics(recorder, ForensicOptions{});
  }
  /// Bundles written so far (post-cap triggers are not counted).
  std::size_t ForensicBundles() const noexcept { return forensic_bundles_; }

  /// Snapshot: per-check aggregates plus the violation log. Violations
  /// still open are reported with open=true and no cleared_ms.
  HealthReport Report() const;

  const HealthLedger& ledger() const noexcept { return ledger_; }
  std::uint64_t ScansRun() const noexcept { return scans_; }
  std::size_t OpenViolations() const noexcept { return ledger_.OpenCount(); }
  std::size_t ViolationsOpened() const noexcept { return opened_total_; }
  /// Cumulative host wall-clock spent inside RunOnce — the monitor's
  /// overhead (informational; never fed back into the simulation).
  double ScanWallMs() const noexcept { return scan_wall_ms_; }
  /// Scans that ran as full-universe sweeps (== ScansRun() in full mode).
  std::uint64_t FullSweeps() const noexcept { return full_sweeps_; }
  /// Deltas routed to dirty sets since EnableIncremental.
  std::uint64_t DeltasRouted() const noexcept { return deltas_routed_; }
  /// Total cross-check misses across checks (see CheckContext).
  std::uint64_t CrossCheckMisses() const noexcept { return cross_check_misses_; }

  /// How the staged backlog was drained since EnableIncremental.
  struct StagingStats {
    std::uint64_t spills = 0;          ///< Drains run between scans.
    std::uint64_t barrier_spills = 0;  ///< ...of which after a shard window.
    std::uint64_t peak_staged = 0;     ///< Largest backlog any drain found.
  };
  const StagingStats& Staging() const noexcept { return staging_; }

 private:
  struct Check {
    std::string id;
    Severity severity;
    CheckFn fn;
    std::uint64_t scans = 0;
    std::uint64_t failed_scans = 0;
    std::uint64_t findings = 0;
    std::uint64_t opened = 0;
    std::uint64_t healed = 0;
    std::uint64_t cross_check_misses = 0;
    Counter& pass;
    Counter& fail;
    Gauge& open_gauge;
    Histogram& repair;
    ProfScopeId prof_scope = kInvalidProfScope;
  };

  void DumpForensics(const Check& check, const HealthLedger::Delta& delta,
                     double now);
  /// A drain between scans, from either trigger.
  void Spill(bool after_window);

  sim::Simulator& simulator_;
  Registry& registry_;
  std::vector<std::unique_ptr<Check>> checks_;
  HealthLedger ledger_;
  std::uint64_t scans_ = 0;
  std::uint64_t opened_total_ = 0;
  double scan_wall_ms_ = 0.0;
  StateDeltaBus* bus_ = nullptr;  ///< Non-null once staging is claimed.
  std::size_t staging_cap_ = StateDeltaBus::kStagingCap;
  sim::ShardEngine* engine_ = nullptr;  ///< Set by SpillAfterWindows.
  std::uint32_t full_sweep_every_n_ = 10;
  std::vector<StageDrain> drains_;
  std::vector<ScanPhase> phases_;
  std::uint32_t partitions_ = 1;
  FanOut fan_out_;
  /// True while RunPartitioned fans out: a drain then would re-enter it.
  mutable bool partitioned_ = false;
  std::vector<std::function<void(double)>> epilogues_;
  std::uint64_t deltas_routed_ = 0;
  /// Deltas drained since the last scan, folded into deltas_routed_ there.
  std::uint64_t pending_routed_ = 0;
  StagingStats staging_;
  std::uint64_t full_sweeps_ = 0;
  std::uint64_t cross_check_misses_ = 0;
  std::uint64_t deltas_routed_at_last_scan_ = 0;
  FlightRecorder* forensic_recorder_ = nullptr;
  ForensicOptions forensic_options_;
  std::size_t forensic_bundles_ = 0;
  Counter& ctr_scans_;
  Counter& ctr_opened_;
  Counter& ctr_cleared_;
  Gauge& open_gauge_;
  /// Deltas routed since the previous scan — the "depth" of mutation
  /// backlog each tick drains. Zero in full (non-incremental) mode.
  Gauge& delta_depth_gauge_;
  Histogram& repair_all_;
};

// --- Concrete check installers ---------------------------------------------
//
// Every check is always installed. Each key-grained check is one sub of an
// audit scope (DESIGN.md §8.2) that a scan phase runs once per scan; the
// check body only emits what the pass buffered, and the pass's cost shows
// under the scope's profiler scope (named per installer below).

/// Ring-structure checks against the oracle ring (the sorted alive id set):
///   ring.successor       successor pointer agrees with the true ring (error)
///   ring.predecessor     predecessor set, alive, and correct        (warn)
///   ring.successor_list  list is a prefix of the true successor seq (warn)
///   ring.finger          populated fingers point at successor(start)(warn)
/// The first three share one scope over the neighbour-pointer marks
/// (profiler scope invariant.ring_neighbors), ring.finger has its own over
/// the finger marks (invariant.ring_fingers). `ring` must outlive the
/// monitor.
void InstallRingChecks(InvariantMonitor& monitor, const chord::ChordRing& ring);

/// Tracking-layer checks against the ground-truth oracle:
///   iop.link           every to-link has the matching from-link (and vice
///                      versa) on the counterpart node              (error)
///   iop.acyclic        links move strictly forward in time — a cycle
///                      must contain a non-increasing link          (fatal)
///   gateway.staleness  the index entry for each settled object points at
///                      its true latest location                    (error)
///   triangle.coverage  each settled object has exactly one authoritative
///                      index entry (query caching along the object's own
///                      parent/child prefix chain is allowed)       (fatal)
///   prefix.shape       buckets live at level Lp or Lp+1 on the gateway
///                      that owns their prefix key; individual entries
///                      live on the owner of the object key         (error)
///   gateway.replication  every settled object's freshest index entry is
///                      mirrored (replica or authoritative copy) on the
///                      first min(R, alive-1) true successors of some
///                      node holding it — i.e. a single gateway crash
///                      cannot lose L(o,t). No-op unless the tracker
///                      config enables replicate_index             (error)
///   handoff.complete   no alive node's IOP link, index entry, or replica
///                      references a node that has completed a graceful
///                      leave — the departing handoff repointed them all
///                                                                 (error)
/// Each key partition runs the iop pair in one scope
/// (invariant.visit_fused) and the staleness / coverage / replication trio
/// in another (invariant.object_fused), both under invariant.partition;
/// prefix.shape then runs serially (invariant.shape). handoff.complete is a
/// node sweep, not key-grained: its body audits directly.
///
/// Updates younger than `staleness_ms` are considered in flight and not
/// judged (capture windows hold reports for up to Tmax, then M1 routing
/// and M2/M3 delivery add network latency). 0 = derive from the tracker
/// config: window Tmax + 2000 ms. `system` must outlive the monitor.
void InstallTrackingChecks(InvariantMonitor& monitor,
                           tracking::TrackingSystem& system,
                           double staleness_ms = 0.0);

}  // namespace peertrack::obs
