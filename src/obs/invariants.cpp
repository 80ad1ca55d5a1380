#include "obs/invariants.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string_view>

#include "chord/chord_ring.hpp"
#include "obs/explain.hpp"
#include "obs/export.hpp"  // BoundedPeriodicSchedule.
#include "obs/mark_set.hpp"
#include "sim/shard_engine.hpp"
#include "tracking/tracking_system.hpp"
#include "util/flat_hash.hpp"
#include "util/format.hpp"

namespace peertrack::obs {

// --- InvariantMonitor -------------------------------------------------------

InvariantMonitor::InvariantMonitor(sim::Simulator& simulator, Registry& registry)
    : simulator_(simulator),
      registry_(registry),
      ctr_scans_(registry.GetCounter("invariant.scans")),
      ctr_opened_(registry.GetCounter("invariant.violations_opened")),
      ctr_cleared_(registry.GetCounter("invariant.violations_healed")),
      open_gauge_(registry.GetGauge("invariant.open")),
      delta_depth_gauge_(registry.GetGauge("invariants.delta_bus.depth")),
      repair_all_(registry.GetHistogram("invariant.repair_ms")) {}

InvariantMonitor::~InvariantMonitor() {
  if (engine_ != nullptr) engine_->SetWindowEpilogue(nullptr);
  if (bus_ != nullptr) bus_->EndStaging();  // Also removes the spill hook.
}

bool InvariantMonitor::EnableIncremental(StateDeltaBus& bus,
                                         std::uint32_t full_sweep_every_n_ticks) {
  if (bus_ != nullptr) return true;  // Already incremental; keep the first bus.
  if (!bus.BeginStaging()) return false;
  bus_ = &bus;
  bus.SetSpill([this] { Spill(/*after_window=*/false); }, staging_cap_);
  full_sweep_every_n_ = std::max<std::uint32_t>(full_sweep_every_n_ticks, 1);
  return true;
}

void InvariantMonitor::SetStagingCap(std::size_t deltas) {
  assert(bus_ == nullptr && "set the staging cap before EnableIncremental");
  staging_cap_ = std::max<std::size_t>(deltas, 1);
}

void InvariantMonitor::SpillAfterWindows(sim::ShardEngine& engine) {
  engine_ = &engine;
  engine.SetWindowEpilogue([this] {
    if (bus_ != nullptr && bus_->StagedCount() >= staging_cap_) {
      Spill(/*after_window=*/true);
    }
  });
}

void InvariantMonitor::Spill(bool after_window) {
  ++staging_.spills;
  if (after_window) ++staging_.barrier_spills;
  DrainStaged();
}

void InvariantMonitor::DrainStaged() {
  if (bus_ == nullptr) return;
  const std::uint64_t staged = bus_->StagedCount();
  if (staged == 0) return;
  assert(!partitioned_ && "a drain inside a partitioned pass re-enters it");
  PROF_SCOPE("invariant", "drain");
  const auto wall_start = std::chrono::steady_clock::now();
  for (const StageDrain& drain : drains_) drain(*bus_);
  bus_->ClearStaged();
  pending_routed_ += staged;
  staging_.peak_staged = std::max(staging_.peak_staged, staged);
  scan_wall_ms_ += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
}

void CheckContext::SortFindings() {
  std::sort(findings_.begin(), findings_.end(),
            [](const Finding& a, const Finding& b) {
              if (a.subject != b.subject) return a.subject < b.subject;
              if (a.actor != b.actor) return a.actor < b.actor;
              if (a.detail != b.detail) return a.detail < b.detail;
              if (a.has_object != b.has_object) return a.has_object;
              return a.object < b.object;
            });
}

void InvariantMonitor::AddStageDrain(StageDrain drain) {
  drains_.push_back(std::move(drain));
}

void InvariantMonitor::AddScanPhase(ScanPhase phase) {
  phases_.push_back(std::move(phase));
}

void InvariantMonitor::SetFanOut(std::uint32_t partitions, FanOut run) {
  partitions_ = std::max<std::uint32_t>(partitions, 1);
  fan_out_ = std::move(run);
}

void InvariantMonitor::RunPartitioned(
    const std::function<void(std::uint32_t)>& fn) const {
  partitioned_ = true;
  if (fan_out_) {
    fan_out_(fn);
  } else {
    for (std::uint32_t p = 0; p < partitions_; ++p) fn(p);
  }
  partitioned_ = false;
}

void InvariantMonitor::AddScanEpilogue(std::function<void(double)> epilogue) {
  epilogues_.push_back(std::move(epilogue));
}

void InvariantMonitor::AddCheck(std::string id, Severity severity, CheckFn fn) {
  auto check = std::make_unique<Check>(Check{
      .id = id,
      .severity = severity,
      .fn = std::move(fn),
      .pass = registry_.GetCounter(util::Format("invariant.pass:{}", id)),
      .fail = registry_.GetCounter(util::Format("invariant.fail:{}", id)),
      .open_gauge = registry_.GetGauge(util::Format("invariant.open:{}", id)),
      .repair = registry_.GetHistogram(util::Format("invariant.repair_ms:{}", id)),
      .prof_scope = Profiler::Intern("invariant", id),
  });
  checks_.push_back(std::move(check));
}

void InvariantMonitor::Start(double period_ms, double until_ms) {
  BoundedPeriodicSchedule(simulator_, period_ms, until_ms,
                          [this] { RunOnce(); });
}

void InvariantMonitor::RunOnce(bool force_full_sweep) {
  PROF_SCOPE("invariant", "scan");
  // Route what is still staged into the marks, so the scan sees every
  // delta published before it; the drains that ran since the last scan
  // are counted in with it. DrainStaged times itself into scan_wall_ms_.
  DrainStaged();
  deltas_routed_ += pending_routed_;
  pending_routed_ = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  const double now = simulator_.Now();
  const bool incremental = bus_ != nullptr;
  const bool full_pass = !incremental || force_full_sweep ||
                         scans_ % full_sweep_every_n_ == 0;
  if (full_pass) ++full_sweeps_;
  {
    const CheckContext scan(now, full_pass, incremental);
    for (const ScanPhase& phase : phases_) phase(scan);
  }
  for (auto& check_ptr : checks_) {
    Check& check = *check_ptr;
    CheckContext context(now, full_pass, incremental);
    {
      PROF_SCOPE_ID(check.prof_scope);
      check.fn(context);
    }
    check.cross_check_misses += context.CrossCheckMisses();
    cross_check_misses_ += context.CrossCheckMisses();
    context.SortFindings();
    ++check.scans;
    if (context.findings().empty()) {
      check.pass.Add();
    } else {
      check.fail.Add();
      ++check.failed_scans;
      check.findings += context.findings().size();
    }
    const HealthLedger::Delta delta =
        ledger_.Reconcile(check.id, check.severity, context.findings(), now);
    check.opened += delta.opened;
    opened_total_ += delta.opened;
    if (delta.opened > 0) ctr_opened_.Add(delta.opened);
    if (!delta.repaired_ms.empty()) {
      check.healed += delta.repaired_ms.size();
      ctr_cleared_.Add(delta.repaired_ms.size());
      for (const double repaired : delta.repaired_ms) {
        check.repair.Add(repaired);
        repair_all_.Add(repaired);
      }
    }
    check.open_gauge.Set(static_cast<double>(ledger_.OpenCount(check.id)));
    if (forensic_recorder_ != nullptr && !delta.opened_indices.empty()) {
      DumpForensics(check, delta, now);
    }
  }
  // Retire the shared dirty marks only after every check consumed them.
  for (const auto& epilogue : epilogues_) epilogue(now);
  open_gauge_.Set(static_cast<double>(ledger_.OpenCount()));
  delta_depth_gauge_.Set(
      static_cast<double>(deltas_routed_ - deltas_routed_at_last_scan_));
  deltas_routed_at_last_scan_ = deltas_routed_;
  ++scans_;
  ctr_scans_.Add();
  scan_wall_ms_ += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
}

void InvariantMonitor::EnableForensics(FlightRecorder& recorder,
                                       ForensicOptions options) {
  forensic_recorder_ = &recorder;
  forensic_options_ = std::move(options);
}

void InvariantMonitor::DumpForensics(const Check& check,
                                     const HealthLedger::Delta& delta,
                                     double now) {
  for (const std::size_t index : delta.opened_indices) {
    if (forensic_bundles_ >= forensic_options_.max_bundles) return;
    Violation& violation = ledger_.MutableViolation(index);
    ForensicTrigger trigger;
    trigger.check = check.id;
    trigger.subject = violation.subject;
    trigger.detail = violation.detail;
    trigger.actor = violation.actor;
    trigger.when_ms = now;
    trigger.event_seq = forensic_recorder_->LastSeq();
    trigger.object = violation.object;
    trigger.has_object = violation.has_object;
    const ForensicBundle bundle =
        forensic_recorder_->Collect(trigger, {violation.actor});
    const CauseNode cause = Explain(bundle);
    const std::string path =
        forensic_recorder_->WriteBundle(bundle, forensic_options_.dir);
    if (path.empty()) continue;  // Unwritable dir: keep the run alive.
    violation.bundle_path = path;
    violation.trigger_event = trigger.event_seq;
    violation.cause = cause.id;
    violation.explain = RenderCauseTree(cause);
    ++forensic_bundles_;
  }
}

HealthReport InvariantMonitor::Report() const {
  // Bound the per-violation log so a pathological churn run cannot emit a
  // gigabyte of JSON; the aggregate counts always cover everything.
  constexpr std::size_t kMaxReportViolations = 2000;

  HealthReport report;
  report.generated_at_ms = simulator_.Now();
  report.scans = scans_;
  report.incremental = bus_ != nullptr;
  report.full_sweeps = full_sweeps_;
  report.deltas_routed = deltas_routed_;
  report.scan_wall_ms = scan_wall_ms_;
  report.cross_check_misses = cross_check_misses_;
  report.open_violations = ledger_.OpenCount();
  report.open_fatal = ledger_.OpenFatalCount();
  for (const auto& check_ptr : checks_) {
    const Check& check = *check_ptr;
    HealthReport::CheckSummary summary;
    summary.id = check.id;
    summary.severity = check.severity;
    summary.scans = check.scans;
    summary.failed_scans = check.failed_scans;
    summary.findings = check.findings;
    summary.opened = check.opened;
    summary.healed = check.healed;
    summary.open = ledger_.OpenCount(check.id);
    summary.cross_check_misses = check.cross_check_misses;
    summary.repair.count = check.repair.Count();
    summary.repair.p50_ms = check.repair.P50();
    summary.repair.p95_ms = check.repair.P95();
    summary.repair.p99_ms = check.repair.P99();
    summary.repair.max_ms = check.repair.Max();
    report.checks.push_back(std::move(summary));
  }
  report.violations = ledger_.violations();
  report.violations_total = report.violations.size();
  std::sort(report.violations.begin(), report.violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.first_seen_ms != b.first_seen_ms) {
                return a.first_seen_ms < b.first_seen_ms;
              }
              if (a.check != b.check) return a.check < b.check;
              return a.subject < b.subject;
            });
  if (report.violations.size() > kMaxReportViolations) {
    report.violations.resize(kMaxReportViolations);
  }
  return report;
}

// --- Incremental plumbing ---------------------------------------------------

namespace {

/// One IOP visit record: the subject grain of the iop.* checks. Marking a
/// whole object would re-audit its entire multi-node chain on every link
/// write; one (object, holder, arrival) key re-audits exactly one record.
struct VisitKey {
  hash::UInt160 object{};
  std::uint32_t actor = 0;
  double arrived = 0.0;

  friend bool operator==(const VisitKey&, const VisitKey&) = default;
};

struct VisitKeyHasher {
  std::size_t operator()(const VisitKey& key) const noexcept {
    std::uint64_t h = key.object.Fold64() ^
                      (static_cast<std::uint64_t>(key.actor) *
                       0x9E3779B97F4A7C15ULL);
    h ^= std::bit_cast<std::uint64_t>(key.arrived) + 0x9E3779B97F4A7C15ULL +
         (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

// MarkSet (the shared dirty/deferred marks one installer's checks consume)
// lives in obs/mark_set.hpp so its dedup memos have their own unit tests.

/// Warm one cache line for a read that is a few loop iterations away.
inline void PrefetchLine(const void* line) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(line, 0, 1);
#else
  (void)line;
#endif
}

// Audit verdicts: what happens to the key after this audit.
constexpr double kHealthy = -1.0;  ///< Settled and clean: drop from watch.
constexpr double kWatch = 0.0;     ///< Failing: re-audit every tick so the
                                   ///< ledger refreshes/closes on the same
                                   ///< scan a full sweep would.
// Any value > 0 is a pending deadline: the key is inside its staleness
// window and nothing can change its verdict before sim time reaches the
// deadline except a new delta (which re-dirties it) — so ticks skip it
// until then instead of re-auditing a known-unjudgeable subject.

/// The audit scope of every key-grained check: one or more sibling checks
/// (subs) over one shared MarkSet. Both modes run the same judge; only the
/// keys fed to it differ:
///
///   full pass        judge(every key the enumerator yields, every sub)
///   incremental tick judge(dirty ∪ deferred-due, every sub)
///                    + judge(keys a sub watches with deadline reached,
///                            that sub only)
///
/// Each sub's `watch` maps keys to their re-audit deadline (kWatch = every
/// tick). Because every failing key stays watched at kWatch, an open
/// violation's subject is always re-audited and HealthLedger::Reconcile
/// sees identical open/refresh/close timing to full mode. Watch-due keys
/// judge ONLY their own sub — judging siblings on a key they never watched
/// could park spurious deadlines.
///
/// Siblings share the judge so the expensive per-key lookups happen once
/// per key, not once per check: the object-grain trio (gateway.staleness /
/// triangle.coverage / gateway.replication) shares the oracle trace and the
/// resolved site list, the iop pair the visit record, the three ring
/// neighbour checks the node's ring position.
///
/// The installer's scan phase runs the pass once per scan (RunPass, on the
/// key partition's own thread where there is one); findings and
/// cross-check misses buffer per sub, and each registered check's body
/// drains its sub's buffer into its own CheckContext (Emit). Ledger
/// reconciliation, pass/fail counters and per-check summaries stay per
/// check; the profiler scope passed to the constructor carries the pass's
/// cost.
///
/// On a full pass in incremental mode, a finding on a key that was neither
/// dirty, deferred nor watched by the finding sub — and whose subject is
/// not already open — is a cross-check miss: the incremental path would
/// never have produced it, which means a mutation site failed to publish a
/// delta. The enumerator must yield each key at most once (overlapping
/// enumerations dedup on their own side — a shared judged-set here would
/// pay a hashed insert per key on the sweep's critical path).
template <typename Key, typename Hash = std::hash<Key>>
class FusedScope {
 public:
  /// `marks` must outlive the scope (its owner holds both). `grace` is the
  /// subs' shared staleness window: a deferred key's first
  /// audit lands at its delta gate plus this, i.e. exactly when the judge's
  /// own pending logic would stop returning a deadline. `subs` names the
  /// sibling checks; a sub's index (its bit in judge masks) is its position
  /// there. The ids must outlive the scope (check ids are literals).
  FusedScope(const MarkSet<Key, Hash>& marks, double grace,
             ProfScopeId prof_scope,
             std::initializer_list<std::string_view> subs)
      : marks_(marks), grace_(grace), prof_scope_(prof_scope) {
    assert(subs.size() <= kMaxSubs);
    for (const std::string_view id : subs) {
      subs_.emplace_back();
      subs_.back().id = id;
    }
  }

  /// Optional locality pass over the due-key batch before judging. Audits
  /// are per-key independent and the ledger reconciles per subject, so any
  /// deterministic permutation preserves detection — the installer supplies
  /// an order that clusters the judge's store probes (objects by key range
  /// so ring ownership groups per gateway, visits by holder actor). Called
  /// once per incremental tick, not per key.
  void SetDueSorter(std::function<void(std::vector<Key>&)> sorter) {
    due_sorter_ = std::move(sorter);
  }

  /// Optional cache warmer for the due loop: called with the key a fixed
  /// lookahead ahead of the one being judged, so the judge's first store
  /// probes (oracle trace, site mirror, visit record) overlap the current
  /// key's work instead of stalling on a cold line each.
  void SetDuePrefetcher(std::function<void(const Key&)> prefetcher) {
    due_prefetcher_ = std::move(prefetcher);
  }

  /// Judge-side API: buffer one finding for sub `sub`.
  void Report(unsigned sub, std::uint32_t actor, std::string subject,
              std::string detail) {
    subs_[sub].findings.push_back(
        Finding{actor, std::move(subject), std::move(detail)});
  }

  /// Object-grain variant: carries the key so the forensic dump can match
  /// recorded history by object instead of parsing the subject string.
  void Report(unsigned sub, std::uint32_t actor, const hash::UInt160& object,
              std::string subject, std::string detail) {
    Finding finding{actor, std::move(subject), std::move(detail)};
    finding.object = object;
    finding.has_object = true;
    subs_[sub].findings.push_back(std::move(finding));
  }

  /// Judge-side API: sub's verdict for the key being judged (kHealthy /
  /// kWatch / pending deadline).
  void SetVerdict(unsigned sub, const Key& key, double verdict) {
    if (verdict >= 0.0) subs_[sub].next_watch.TryEmplace(key, verdict);
  }

  /// The scan's one pass over the key set: every due key (every key the
  /// enumerator yields, on a full pass) judged once, findings and misses
  /// buffered per sub until Emit. Reads the ledger, never writes it.
  ///
  /// judge(fused, ctx, key, mask) must, for every sub bit set in `mask`,
  /// report findings via Report(sub, ...) and finish with
  /// SetVerdict(sub, key, verdict).
  template <typename Enumerate, typename Judge>
  void RunPass(const CheckContext& ctx, const HealthLedger& ledger,
               const Enumerate& enumerate, const Judge& judge) {
    PROF_SCOPE_ID(prof_scope_);
    const double now = ctx.Now();
    const auto all_mask = static_cast<unsigned>((1u << subs_.size()) - 1u);
    if (ctx.FullPass() || marks_.all) {
      detect_ = ctx.Incremental() && ctx.FullPass() && !marks_.all;
      enumerate([&](const Key& key) {
        JudgeKey(ctx, ledger, judge, key, all_mask);
      });
    } else {
      detect_ = false;
      // Materialize the due batch (dirty ∪ deferred-due) instead of judging
      // straight off the map walks: the batch then takes one locality sort,
      // and the judges' random store probes cluster instead of missing
      // cache on every key. Deferred keys park in the shared map until
      // their gate plus the settle window passes; skipping an in-flight key
      // costs a comparison, and each key is audited exactly once when due
      // (the epilogue's Retire erases judged gates). A judge that still
      // returns a deadline — a later gate surfaced meanwhile — parks in the
      // sub's own watch. `gate <= now - grace` (not `gate + grace <= now`):
      // bit-identical to the epilogue's Retire cut-off, so an entry is
      // never erased un-audited.
      const double judged_before = now - grace_;
      due_.clear();
      for (const Key& key : marks_.dirty) due_.push_back(key);
      for (const auto& [key, gate] : marks_.deferred) {
        if (gate > judged_before) continue;         // In flight.
        if (marks_.dirty.Contains(key)) continue;  // Queued above.
        due_.push_back(key);
      }
      JudgeDue(ctx, ledger, judge, all_mask);
      for (unsigned i = 0; i < subs_.size(); ++i) {
        Sub& sub = subs_[i];
        // Materialize this sub's expired-deadline keys and run them through
        // the same sort + lookahead warmer as the due batch: watch-map
        // iteration order is hash-random, so judging inline would miss
        // cache on every key's store probes.
        due_.clear();
        for (const auto& [key, deadline] : sub.watch) {
          if (marks_.dirty.Contains(key)) continue;
          if (const double* gate = marks_.deferred.Find(key);
              gate != nullptr && *gate <= judged_before) {
            continue;  // Judged above (every sub, this one included).
          }
          if (deadline > now) {
            sub.next_watch.TryEmplace(key, deadline);  // Still unjudgeable.
            continue;
          }
          due_.push_back(key);
        }
        JudgeDue(ctx, ledger, judge, 1u << i);
      }
    }
    for (Sub& sub : subs_) {
      sub.watch.Swap(sub.next_watch);
      sub.next_watch.Clear();
    }
    // marks_ is retired by the installer's epilogue once every scope ran.
  }

  /// Drain sub `sub_index`'s buffered findings and misses into one
  /// registered check's context.
  void Emit(CheckContext& ctx, unsigned sub_index) {
    Sub& sub = subs_[sub_index];
    for (Finding& finding : sub.findings) {
      ctx.Report(std::move(finding));
    }
    sub.findings.clear();
    for (std::size_t i = 0; i < sub.misses; ++i) ctx.CrossCheckMiss();
    sub.misses = 0;
  }

 private:
  struct Sub {
    std::string_view id;
    util::FlatHashMap<Key, double, Hash> watch;
    util::FlatHashMap<Key, double, Hash> next_watch;
    std::vector<Finding> findings;
    std::size_t misses = 0;
  };
  static constexpr unsigned kMaxSubs = 8;

  /// Judge the batch in due_ under `mask`, after the locality sort, with
  /// the cache warmer running a fixed lookahead ahead of the judge.
  template <typename Judge>
  void JudgeDue(const CheckContext& ctx, const HealthLedger& ledger,
                const Judge& judge, unsigned mask) {
    if (due_sorter_) due_sorter_(due_);
    constexpr std::size_t kAhead = 8;
    for (std::size_t i = 0; i < due_.size(); ++i) {
      if (due_prefetcher_ && i + kAhead < due_.size()) {
        due_prefetcher_(due_[i + kAhead]);
      }
      JudgeKey(ctx, ledger, judge, due_[i], mask);
    }
  }

  template <typename Judge>
  void JudgeKey(const CheckContext& ctx, const HealthLedger& ledger,
                const Judge& judge, const Key& key, unsigned mask) {
    if (!detect_) {
      judge(*this, ctx, key, mask);
      return;
    }
    std::size_t before[kMaxSubs] = {};
    for (unsigned i = 0; i < subs_.size(); ++i) {
      before[i] = subs_[i].findings.size();
    }
    judge(*this, ctx, key, mask);
    // Full cross-check pass: a finding on a key the incremental path had
    // no reason to audit — not dirty, not deferred, not watched by the
    // finding sub, subject not already open — is a miss.
    for (unsigned i = 0; i < subs_.size(); ++i) {
      Sub& sub = subs_[i];
      if (sub.findings.size() == before[i]) continue;
      if (marks_.dirty.Contains(key) || sub.watch.Contains(key) ||
          marks_.deferred.Contains(key)) {
        continue;
      }
      for (std::size_t j = before[i]; j < sub.findings.size(); ++j) {
        if (!ledger.IsOpen(sub.id, sub.findings[j].subject)) ++sub.misses;
      }
    }
  }

  const MarkSet<Key, Hash>& marks_;
  double grace_ = 0.0;
  ProfScopeId prof_scope_ = kInvalidProfScope;
  std::vector<Sub> subs_;
  bool detect_ = false;
  std::function<void(std::vector<Key>&)> due_sorter_;
  std::function<void(const Key&)> due_prefetcher_;
  std::vector<Key> due_;  ///< Per-tick scratch, capacity reused.
};

using ActorMarks = MarkSet<std::uint32_t>;
using ObjectMarks = MarkSet<hash::UInt160, hash::UInt160Hasher>;
using VisitMarks = MarkSet<VisitKey, VisitKeyHasher>;
using ActorFused = FusedScope<std::uint32_t>;
using ObjectFused = FusedScope<hash::UInt160, hash::UInt160Hasher>;
using VisitFused = FusedScope<VisitKey, VisitKeyHasher>;

}  // namespace

// --- Ring checks ------------------------------------------------------------

namespace {

/// Alive nodes sorted by ring id — the ground-truth ring, built once per
/// scan (ChordRing::ExpectedSuccessor re-sorts per call, too slow to use
/// per finger).
std::vector<const chord::ChordNode*> SortedAliveNodes(const chord::ChordRing& ring) {
  std::vector<const chord::ChordNode*> alive;
  alive.reserve(ring.NodeCount());
  for (const auto& node : ring.Nodes()) {
    if (node->Alive()) alive.push_back(node.get());
  }
  std::sort(alive.begin(), alive.end(),
            [](const chord::ChordNode* a, const chord::ChordNode* b) {
              return a->Self().id < b->Self().id;
            });
  return alive;
}

/// True successor of `key` within the sorted alive ring: first node with
/// id >= key, wrapping to the front (same rule as ChordRing::ExpectedSuccessor).
const chord::ChordNode* TrueOwner(const std::vector<const chord::ChordNode*>& sorted,
                                  const chord::Key& key) {
  if (sorted.empty()) return nullptr;
  auto it = std::lower_bound(sorted.begin(), sorted.end(), key,
                             [](const chord::ChordNode* node, const chord::Key& k) {
                               return node->Self().id < k;
                             });
  if (it == sorted.end()) it = sorted.begin();
  return *it;
}

/// The sorted alive ring plus actor -> position, rebuilt once per scan
/// pass by the scan phase that judges against it.
struct RingView {
  std::vector<const chord::ChordNode*> sorted;
  util::FlatHashMap<std::uint32_t, std::size_t> pos;

  void Refresh(const chord::ChordRing& ring) {
    sorted = SortedAliveNodes(ring);
    pos.Clear();
    pos.Reserve(sorted.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      pos.TryEmplace(sorted[i]->Self().actor, i);
    }
  }
};

// Sub indices of the ring scopes, in constructor order.
constexpr unsigned kSubSuccessor = 0;
constexpr unsigned kSubPredecessor = 1;
constexpr unsigned kSubSuccessorList = 2;
constexpr unsigned kSubFinger = 0;

/// Judge ring.successor / ring.predecessor / ring.successor_list (the
/// subs in `mask`) for one actor against the true ring.
void JudgeNeighbors(const RingView& view, ActorFused& fused,
                    std::uint32_t actor, unsigned mask) {
  const std::size_t n = view.sorted.size();
  const std::size_t* pos = n < 2 ? nullptr : view.pos.Find(actor);
  if (pos == nullptr) return;  // No ring to judge, or no longer alive.
  const chord::ChordNode& node = *view.sorted[*pos];
  const auto judged = [&](unsigned sub) { return (mask & (1u << sub)) != 0u; };
  const auto fail = [&](unsigned sub, std::string detail) {
    fused.Report(sub, node.Self().actor, node.Address(), std::move(detail));
    fused.SetVerdict(sub, actor, kWatch);
  };

  if (judged(kSubSuccessor)) {
    const chord::NodeRef& expected = view.sorted[(*pos + 1) % n]->Self();
    const chord::NodeRef actual = node.Successor();
    if (actual.id != expected.id) {
      fail(kSubSuccessor,
           util::Format("successor is {}, true ring says {}",
                        actual.Describe(), expected.Describe()));
    }
  }

  if (judged(kSubPredecessor)) {
    const chord::NodeRef& expected = view.sorted[(*pos + n - 1) % n]->Self();
    if (!node.Predecessor().has_value()) {
      fail(kSubPredecessor, util::Format("predecessor unset, true ring says {}",
                                         expected.Describe()));
    } else if (node.Predecessor()->id != expected.id) {
      fail(kSubPredecessor,
           util::Format("predecessor is {}, true ring says {}",
                        node.Predecessor()->Describe(), expected.Describe()));
    }
  }

  if (judged(kSubSuccessorList)) {
    const auto& entries = node.successors().Entries();
    for (std::size_t j = 0; j < entries.size(); ++j) {
      const chord::NodeRef& expected = view.sorted[(*pos + 1 + j) % n]->Self();
      if (entries[j].id != expected.id) {
        fail(kSubSuccessorList,
             util::Format("successor_list[{}] is {}, true sequence says {}", j,
                          entries[j].Describe(), expected.Describe()));
        break;  // One finding per node; deeper entries depend on this one.
      }
    }
  }
}

/// Judge ring.finger for one actor: every populated finger must point at
/// the true successor of its start.
void JudgeFingers(const RingView& view, ActorFused& fused,
                  std::uint32_t actor) {
  const std::size_t* pos =
      view.sorted.size() < 2 ? nullptr : view.pos.Find(actor);
  if (pos == nullptr) return;
  const chord::ChordNode* node = view.sorted[*pos];
  const chord::FingerTable& fingers = node->fingers();
  bool failed = false;
  for (unsigned i = 0; i < chord::FingerTable::kBits; ++i) {
    const auto& finger = fingers.Get(i);
    if (!finger.has_value()) continue;  // Lazily populated.
    const chord::ChordNode* expected = TrueOwner(view.sorted, fingers.Start(i));
    if (finger->id != expected->Self().id) {
      fused.Report(kSubFinger, node->Self().actor,
                   util::Format("{}#f{}", node->Address(), i),
                   util::Format("finger[{}] is {}, successor({}..) is {}", i,
                                finger->Describe(),
                                fingers.Start(i).ToShortHex(),
                                expected->Self().Describe()));
      failed = true;
    }
  }
  if (failed) fused.SetVerdict(kSubFinger, actor, kWatch);
}

/// What one InstallRingChecks call shares between its drain, scan phase,
/// epilogue and checks.
struct RingState {
  RingView view;
  ActorMarks neighbor_marks;
  ActorMarks finger_marks;
  ActorFused neighbors{neighbor_marks, 0.0,
                       Profiler::Intern("invariant", "ring_neighbors"),
                       {"ring.successor", "ring.predecessor",
                        "ring.successor_list"}};
  ActorFused fingers{finger_marks, 0.0,
                     Profiler::Intern("invariant", "ring_fingers"),
                     {"ring.finger"}};
};

}  // namespace

void InstallRingChecks(InvariantMonitor& monitor, const chord::ChordRing& ring) {
  const chord::ChordRing* ringp = &ring;
  const InvariantMonitor* mon = &monitor;
  auto state = std::make_shared<RingState>();

  // Membership changes move the ground-truth ring every check compares
  // against, so they dirty every node; pointer/finger writes dirty only the
  // writer. MarkAll dominates and Mark() is a no-op afterwards, so the
  // first membership delta ends the walk. The ring kinds are rare next to
  // the tracking traffic, so lanes whose staged-kinds mask holds none of
  // them are skipped unread.
  constexpr std::uint32_t kRingKinds =
      StateDeltaBus::KindBit(DeltaKind::kMembership) |
      StateDeltaBus::KindBit(DeltaKind::kHandoffFinished) |
      StateDeltaBus::KindBit(DeltaKind::kRingNeighbors) |
      StateDeltaBus::KindBit(DeltaKind::kRingFinger);
  monitor.AddStageDrain([state](const StateDeltaBus& backlog) {
    PROF_SCOPE("invariant", "ring_drain");
    for (std::size_t lane = 0; lane < backlog.Lanes(); ++lane) {
      if ((backlog.StagedKinds(lane) & kRingKinds) == 0) continue;
      for (const StateDelta& d : backlog.Staged(lane)) {
        switch (d.kind) {
          case DeltaKind::kMembership:
          case DeltaKind::kHandoffFinished:
            state->neighbor_marks.MarkAll();
            state->finger_marks.MarkAll();
            return;
          case DeltaKind::kRingNeighbors:
            state->neighbor_marks.Mark(d.actor);
            break;
          case DeltaKind::kRingFinger:
            state->finger_marks.Mark(d.actor);
            break;
          default:
            break;
        }
      }
    }
  });
  monitor.AddScanEpilogue([state](double now) {
    state->neighbor_marks.Retire(now);
    state->finger_marks.Retire(now);
  });

  // Both passes judge against one view of the true ring, built once per
  // scan; the full-pass universe is every alive node.
  monitor.AddScanPhase([ringp, mon, state](const CheckContext& scan) {
    const RingView& view = state->view;
    state->view.Refresh(*ringp);
    const auto enumerate = [&](const auto& fn) {
      for (const chord::ChordNode* node : view.sorted) fn(node->Self().actor);
    };
    state->neighbors.RunPass(scan, mon->ledger(), enumerate,
                             [&](ActorFused& fused, const CheckContext&,
                                 std::uint32_t actor, unsigned mask) {
                               JudgeNeighbors(view, fused, actor, mask);
                             });
    state->fingers.RunPass(scan, mon->ledger(), enumerate,
                           [&](ActorFused& fused, const CheckContext&,
                               std::uint32_t actor, unsigned) {
                             JudgeFingers(view, fused, actor);
                           });
  });

  monitor.AddCheck("ring.successor", Severity::kError,
                   [state](CheckContext& ctx) {
                     state->neighbors.Emit(ctx, kSubSuccessor);
                   });
  monitor.AddCheck("ring.predecessor", Severity::kWarn,
                   [state](CheckContext& ctx) {
                     state->neighbors.Emit(ctx, kSubPredecessor);
                   });
  monitor.AddCheck("ring.successor_list", Severity::kWarn,
                   [state](CheckContext& ctx) {
                     state->neighbors.Emit(ctx, kSubSuccessorList);
                   });
  monitor.AddCheck("ring.finger", Severity::kWarn, [state](CheckContext& ctx) {
    state->fingers.Emit(ctx, kSubFinger);
  });
}

// --- Tracking checks --------------------------------------------------------

namespace {

/// Where one index entry for an object lives (or lived: the drain
/// never removes a loc, ResolveSites prunes it), as remembered from deltas.
/// `node` is a resolution cache, not identity — tracker objects outlive
/// the run, so it stays valid for the loc's lifetime.
struct SiteLoc {
  std::uint32_t actor = 0xFFFFFFFFu;
  bool individual = false;  ///< Flat individual-mode map vs prefix bucket.
  hash::Prefix prefix{};    ///< Valid when !individual.
  tracking::TrackerNode* node = nullptr;

  friend bool operator==(const SiteLoc& a, const SiteLoc& b) {
    return a.actor == b.actor && a.individual == b.individual &&
           a.prefix == b.prefix;
  }
};

/// One index entry for an object resolved against live store state.
struct ResolvedSite {
  const tracking::TrackerNode* node = nullptr;
  bool individual = false;
  hash::Prefix prefix{};
  const tracking::IndexEntry* entry = nullptr;
};

/// Resolved sites of one object, as a span into TrackState's scratch
/// vector. Only valid until the next ResolveSites call (which reuses it).
class SiteList {
 public:
  SiteList(const ResolvedSite* data, std::size_t size)
      : data_(data), size_(size) {}
  const ResolvedSite* begin() const noexcept { return data_; }
  const ResolvedSite* end() const noexcept { return data_ + size_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const ResolvedSite& front() const noexcept { return data_[0]; }

 private:
  const ResolvedSite* data_;
  std::size_t size_;
};

/// Which key partition owns a subject (DESIGN.md §8.2). Objects, and the
/// visit records of an object, split by key range: the top limb of a
/// SHA-1 key is uniform, and a contiguous range keeps whole prefix buckets
/// in one partition. Actor-only subjects split by actor id. With one
/// partition everything is owned.
struct KeyPartition {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  bool Owns(const hash::UInt160& object) const noexcept {
    return ((static_cast<std::uint64_t>(object.words()[0]) * count) >> 32) ==
           index;
  }
  bool OwnsActor(std::uint32_t actor) const noexcept {
    return actor % count == index;
  }
};

/// One key partition's object-keyed state: the site mirror its drain
/// maintains, plus the scratch its audits reuse. The mirror is a *hint*,
/// not authority — audits resolve every location against live store
/// state and lazily prune stale ones, so a spurious or duplicate delta at
/// worst costs one clean re-audit. Full passes rebuild it from scratch,
/// which is what makes the cross-check sweep honest: a mutation the drain
/// never heard about is still found.
struct TrackState {
  util::FlatHashMap<hash::UInt160, std::vector<SiteLoc>, hash::UInt160Hasher>
      sites;
  std::vector<ResolvedSite> resolved;  ///< ResolveSites' output, reused.
  std::vector<hash::UInt160> key_scratch;
};

/// Replication precompute: ring position and first-r true successors of
/// every alive tracker. Built serially once per scan, before the
/// partitions fan out, and only read by them.
struct ReplicaRing {
  std::size_t r = 0;
  util::FlatHashMap<const tracking::TrackerNode*, std::size_t> position;
  std::vector<std::vector<tracking::TrackerNode*>> successors;
};

/// Deterministic site order (see ResolveSites): actor-ascending. Spans are
/// a handful of entries, so an inline insertion sort beats the std::sort
/// call that used to sit on the per-object audit path.
void SortSitesByActor(ResolvedSite* first, std::uint32_t count) noexcept {
  for (std::uint32_t i = 1; i < count; ++i) {
    ResolvedSite tmp = first[i];
    std::uint32_t j = i;
    for (; j > 0 && tmp.node->Self().actor < first[j - 1].node->Self().actor;
         --j) {
      first[j] = first[j - 1];
    }
    first[j] = tmp;
  }
}

/// Rebuild the site mirror of the objects `part` owns from a full sweep
/// over live state (full passes only; incremental ticks rely on the drain
/// keeping it fresh).
void RebuildMirror(TrackState& st, const KeyPartition& part,
                   tracking::TrackingSystem& sys) {
  PROF_SCOPE("invariant", "mirror_rebuild");
  st.sites.Clear();
  for (std::size_t i = 0; i < sys.NodeCount(); ++i) {
    tracking::TrackerNode& tracker = sys.Tracker(i);
    if (!tracker.chord().Alive()) continue;
    const std::uint32_t actor = tracker.Self().actor;
    for (const auto& [object, entry] : tracker.individual_index().Entries()) {
      if (!part.Owns(object)) continue;
      st.sites[object].push_back(SiteLoc{actor, true, {}, &tracker});
    }
    for (const auto& prefix : tracker.prefix_store().Prefixes()) {
      const tracking::PrefixBucket* bucket =
          tracker.prefix_store().TryBucket(prefix);
      if (bucket == nullptr) continue;
      for (const auto& [object, entry] : bucket->Entries()) {
        if (!part.Owns(object)) continue;
        st.sites[object].push_back(SiteLoc{actor, false, prefix, &tracker});
      }
    }
  }
}

void AddUniqueLoc(std::vector<SiteLoc>& locs, const SiteLoc& loc) {
  if (std::find(locs.begin(), locs.end(), loc) == locs.end()) {
    locs.push_back(loc);
  }
}

/// Resolve every remembered location of `object` against live state,
/// pruning locations that no longer hold an entry (moved, extracted, or
/// the holder is gone). The fused judge resolves once per judged key and
/// shares the list across its sub-audits; nothing is cached across calls,
/// so full passes and incremental ticks run the same lookups.
SiteList ResolveSites(TrackState& st, tracking::TrackingSystem& sys,
                      const hash::UInt160& object) {
  PROF_LEAF_SCOPE("invariant", "site_resolve");
  st.resolved.clear();
  std::vector<SiteLoc>* site_locs = st.sites.Find(object);
  if (site_locs != nullptr) {
    std::vector<SiteLoc>& locs = *site_locs;
    for (std::size_t i = 0; i < locs.size();) {
      SiteLoc& loc = locs[i];
      if (loc.node == nullptr) loc.node = sys.TrackerByActor(loc.actor);
      tracking::TrackerNode* tracker = loc.node;
      const tracking::IndexEntry* entry = nullptr;
      if (tracker != nullptr && tracker->chord().Alive()) {
        // Always re-find: the index stores are open-addressing maps whose
        // values move on rehash, so an entry pointer kept from an earlier
        // pass dangles the moment any upsert lands between passes.
        if (loc.individual) {
          entry = tracker->individual_index().Find(object);
        } else if (const tracking::PrefixBucket* bucket =
                       tracker->prefix_store().TryBucket(loc.prefix)) {
          entry = bucket->Find(object);
        }
      }
      if (entry == nullptr) {
        locs[i] = locs.back();
        locs.pop_back();
        continue;
      }
      st.resolved.push_back(
          ResolvedSite{tracker, loc.individual, loc.prefix, entry});
      ++i;
    }
    if (locs.empty()) st.sites.Erase(object);
  }
  const auto count = static_cast<std::uint32_t>(st.resolved.size());
  // Deterministic order: the mirror's insertion order depends on delta
  // arrival, and the "freshest entry" tie-breaks below must not.
  SortSitesByActor(st.resolved.data(), count);
  return SiteList{st.resolved.data(), count};
}

/// Ring position and first min(R, n-1) true successors of every alive
/// tracker, shared by all gateway.replication audits of one scan. Left
/// empty (r 0) unless the tracker config enables replicate_index.
void BuildReplicaRing(ReplicaRing& ring, tracking::TrackingSystem& sys) {
  PROF_SCOPE("invariant", "replication_precompute");
  ring.r = 0;
  ring.position.Clear();
  ring.successors.clear();
  if (!sys.config().tracker.replicate_index) return;
  const auto sorted = SortedAliveNodes(sys.ring());
  const std::size_t n = sorted.size();
  if (n < 2) return;
  const std::size_t r =
      std::min<std::size_t>(sys.config().tracker.replication_factor, n - 1);
  if (r == 0) return;
  ring.r = r;
  ring.position.Reserve(n);
  ring.successors.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (tracking::TrackerNode* tracker =
            sys.TrackerByActor(sorted[i]->Self().actor)) {
      ring.position.TryEmplace(tracker, i);
    }
    ring.successors[i].reserve(r);
    for (std::size_t j = 1; j <= r; ++j) {
      ring.successors[i].push_back(
          sys.TrackerByActor(sorted[(i + j) % n]->Self().actor));
    }
  }
}

/// The handoff.complete scan body, shared verbatim by both modes (it is
/// node-sweep shaped, cheap while nobody has departed, and runs in full
/// whenever any graceful leave has completed).
void AuditHandoff(tracking::TrackingSystem& sys, CheckContext& ctx) {
  // Nodes that finished the two-phase leave protocol. A node crashed
  // mid-leave never sets the flag and is judged like any crash.
  util::FlatHashSet<sim::ActorId> departed;
  for (std::size_t i = 0; i < sys.NodeCount(); ++i) {
    tracking::TrackerNode& tracker = sys.Tracker(i);
    if (!tracker.chord().Alive() && tracker.LeftGracefully()) {
      departed.Insert(tracker.Self().actor);
    }
  }
  if (departed.Empty()) return;
  for (std::size_t i = 0; i < sys.NodeCount(); ++i) {
    tracking::TrackerNode& tracker = sys.Tracker(i);
    if (!tracker.chord().Alive()) continue;
    const sim::ActorId self = tracker.Self().actor;
    const std::string& address = tracker.chord().Address();
    tracker.iop().ForEachObject([&](const hash::UInt160& object,
                                    const std::vector<moods::Visit>& visits) {
      for (const moods::Visit& visit : visits) {
        if (visit.from.has_value() && departed.Contains(visit.from->actor)) {
          ctx.Report(self,
                     util::Format("{}@{:.3f}:from", object.ToShortHex(),
                                  visit.arrived),
                     util::Format("from-link references departed node {}",
                                  visit.from->Describe()));
        }
        if (visit.to.has_value() && departed.Contains(visit.to->actor)) {
          ctx.Report(self,
                     util::Format("{}@{:.3f}:to", object.ToShortHex(),
                                  visit.arrived),
                     util::Format("to-link references departed node {}",
                                  visit.to->Describe()));
        }
      }
    });
    const auto report_entry = [&](const hash::UInt160& object,
                                  const tracking::IndexEntry& entry,
                                  const char* where) {
      if (!departed.Contains(entry.latest_node.actor)) return;
      ctx.Report(self,
                 util::Format("{}:{}:{}", address, object.ToShortHex(), where),
                 util::Format("{} entry says latest location is departed "
                              "node {}",
                              where, entry.latest_node.Describe()));
    };
    for (const auto& [object, entry] : tracker.individual_index().Entries()) {
      report_entry(object, entry, "index");
    }
    for (const auto& prefix : tracker.prefix_store().Prefixes()) {
      const tracking::PrefixBucket* bucket =
          tracker.prefix_store().TryBucket(prefix);
      if (bucket == nullptr) continue;
      for (const auto& [object, entry] : bucket->Entries()) {
        report_entry(object, entry, "index");
      }
    }
    for (const auto& [object, record] : tracker.replica_store().Records()) {
      report_entry(object, record.entry, "replica");
    }
  }
}

// Sub indices of the tracking scopes, in constructor order.
constexpr unsigned kSubLink = 0;
constexpr unsigned kSubAcyclic = 1;
constexpr unsigned kSubStale = 0;
constexpr unsigned kSubTriangle = 1;
constexpr unsigned kSubRepl = 2;
constexpr unsigned kSubShape = 0;

/// One key partition of the tracking checks: its own mark sets, site
/// mirror and scopes, touched only by the partition's own thread during
/// the scan's fan-out.
struct TrackPart {
  /// Every tracking check shares the same settle window, so a deferred
  /// delta's first audit lands exactly where the check's own pending logic
  /// would park it: gate + staleness.
  TrackPart(KeyPartition partition, double staleness)
      : keys(partition),
        visits(visit_marks, staleness,
               Profiler::Intern("invariant", "visit_fused"),
               {"iop.link", "iop.acyclic"}),
        objects(object_marks, staleness,
                Profiler::Intern("invariant", "object_fused"),
                {"gateway.staleness", "triangle.coverage",
                 "gateway.replication"}) {}

  KeyPartition keys;
  TrackState state;
  VisitMarks visit_marks;
  ObjectMarks object_marks;
  /// This partition's share of prefix.shape's marks, folded into
  /// TrackShared::shape_marks by the serial phase.
  ActorMarks shape_marks;
  VisitFused visits;
  ObjectFused objects;
};

/// State one InstallTrackingChecks call shares across its partitions.
struct TrackShared {
  std::vector<std::unique_ptr<TrackPart>> parts;
  ReplicaRing repl;
  ActorMarks shape_marks;
  /// prefix.shape's scope: serial, over the absorbed partition marks.
  ActorFused shape{shape_marks, 0.0, Profiler::Intern("invariant", "shape"),
                   {"prefix.shape"}};
  /// The true ring prefix.shape judges bucket ownership against.
  RingView view;
  /// Sticky: any graceful leave completed. Written by partition 0's drain
  /// (every partition sees the global kinds; one writer is enough) and by
  /// the serial handoff.complete check.
  bool departed_any = false;
};

/// Route the staged backlog into one partition's mark sets and site
/// mirror, in one pass over the lanes. Each key space has ONE shared set
/// per partition, not one per check. Every partition walks every lane in
/// lane order but applies only the deltas whose key it owns — object and
/// visit kinds by object, actor-only kinds by actor — plus every global
/// (MarkAll) kind, so its mark sets see exactly the subsequence of deltas
/// a single partition would route to those keys: the memos, the Defer
/// min-merge and Retire behave the same. Two properties make the pass
/// cheap: (a) once a key space is flat (MarkAll) its Mark/Defer calls
/// return on their first branch — only the mirror upserts keep working;
/// (b) a write group publishes its per-prefix upserts back to back, so
/// same-object records are adjacent and the MarkSet memos swallow the
/// duplicate Defer probes.
///
/// The mirror only grows here: an erase marks its object for audit and
/// leaves the location to ResolveSites, which prunes locations that no
/// longer hold an entry. Lanes are walked in lane order, not time order —
/// a control-phase write (a graceful leave's heir adoption) lands in lane
/// 0 while the same actor's window writes land in its shard's lane — so
/// applying an erase here could drop a location a later upsert restored.
void DrainTracking(TrackPart& part, TrackShared& shared,
                   const StateDeltaBus& bus) {
  PROF_SCOPE("invariant", "stage_drain");
  const KeyPartition keys = part.keys;
  TrackState& st = part.state;
  VisitMarks& visit_marks = part.visit_marks;
  ObjectMarks& object_marks = part.object_marks;
  ActorMarks& shape_marks = part.shape_marks;
  for (std::size_t lane = 0; lane < bus.Lanes(); ++lane) {
    for (const StateDelta& d : bus.Staged(lane)) {
      switch (d.kind) {
        // The alive set is part of every tracking check's ground truth
        // (site sweeps skip dead nodes, replication re-derives
        // successors), so membership movement re-judges everything. Rare
        // by construction: only churn events publish these.
        case DeltaKind::kHandoffFinished:
          if (keys.index == 0) shared.departed_any = true;
          [[fallthrough]];
        case DeltaKind::kMembership:
          visit_marks.MarkAll();
          object_marks.MarkAll();
          shape_marks.MarkAll();
          break;
        case DeltaKind::kLpChange:
          shape_marks.MarkAll();
          break;
        // Graceful-leave extraction moves visit lists wholesale; the
        // adopter republishes per record, but the extracted records must
        // be re-judged away too.
        case DeltaKind::kIopDropped:
          visit_marks.MarkAll();
          break;
        case DeltaKind::kIndexUpsert: {
          if (!keys.Owns(d.object)) break;
          AddUniqueLoc(st.sites[d.object],
                       SiteLoc{d.actor, d.individual, d.prefix()});
          if (d.when >= 0.0) {
            object_marks.Defer(d.object, d.when);
          } else {
            object_marks.Mark(d.object);
          }
          shape_marks.Mark(d.actor);
          break;
        }
        case DeltaKind::kIndexErase:
          if (!keys.Owns(d.object)) break;
          object_marks.Mark(d.object);
          shape_marks.Mark(d.actor);
          break;
        // Replica upserts and truth moves carry the arrival that starts
        // the settle clock: every object-grain check's own pending logic
        // would return exactly `when + staleness` for this state, so park
        // the audit there.
        case DeltaKind::kReplicaUpsert:
        case DeltaKind::kObjectTruth:
          if (!keys.Owns(d.object)) break;
          if (d.when >= 0.0) {
            object_marks.Defer(d.object, d.when);
          } else {
            object_marks.Mark(d.object);
          }
          break;
        case DeltaKind::kReplicaErase:
          if (keys.Owns(d.object)) object_marks.Mark(d.object);
          break;
        // A visit write is judgeable once its gate settles (the record's
        // own arrival, or the next hop's arrival for a departure write);
        // a coarse publish with no arrival re-judges every record, in
        // every partition.
        case DeltaKind::kIopVisit:
          if (d.when < 0.0) {
            visit_marks.MarkAll();
          } else if (keys.Owns(d.object)) {
            visit_marks.Defer(VisitKey{d.object, d.actor, d.when},
                              d.gate >= 0.0 ? d.gate : d.when);
          }
          break;
        case DeltaKind::kPrefixShape:
          if (keys.OwnsActor(d.actor)) shape_marks.Mark(d.actor);
          break;
        case DeltaKind::kRingNeighbors:
        case DeltaKind::kRingFinger:
          break;
      }
    }
  }
}

/// Judge prefix.shape for one tracker: buckets only at Lp or Lp+1 and on
/// the gateway that owns their prefix key; individual entries only on the
/// owner of the object key.
void JudgeShape(const RingView& view, tracking::TrackingSystem& sys,
                ActorFused& fused, std::uint32_t actor) {
  if (view.sorted.empty()) return;
  tracking::TrackerNode* tracker = sys.TrackerByActor(actor);
  if (tracker == nullptr || !tracker->chord().Alive()) return;
  const unsigned lp = sys.CurrentLp();
  bool failed = false;
  const auto report = [&](std::string subject, std::string detail) {
    fused.Report(kSubShape, actor, std::move(subject), std::move(detail));
    failed = true;
  };
  if (sys.config().tracker.mode == tracking::IndexingMode::kGroup) {
    for (const auto& prefix : tracker->prefix_store().Prefixes()) {
      const tracking::PrefixBucket* bucket =
          tracker->prefix_store().TryBucket(prefix);
      if (bucket == nullptr || bucket->Empty()) continue;
      const auto subject =
          util::Format("{}:{}", tracker->chord().Address(), prefix.ToString());
      if (prefix.length != lp && prefix.length != lp + 1) {
        report(subject, util::Format("bucket at level {} with Lp={} (only Lp "
                                     "and the delegated Lp+1 are legal)",
                                     prefix.length, lp));
        continue;
      }
      const chord::ChordNode* owner =
          TrueOwner(view.sorted, hash::GroupKey(prefix));
      if (owner->Self().actor != actor) {
        report(subject, util::Format("bucket hosted off its gateway (owner of "
                                     "hash('{}') is {})",
                                     prefix.ToString(),
                                     owner->Self().Describe()));
      }
    }
  } else {
    std::size_t misplaced = 0;
    for (const auto& [object, entry] : tracker->individual_index().Entries()) {
      if (TrueOwner(view.sorted, object)->Self().actor != actor) ++misplaced;
    }
    if (misplaced > 0) {
      report(util::Format("{}:individual", tracker->chord().Address()),
             util::Format("{} individual entries for keys this node does not "
                          "own",
                          misplaced));
    }
  }
  if (failed) fused.SetVerdict(kSubShape, actor, kWatch);
}

}  // namespace

void InstallTrackingChecks(InvariantMonitor& monitor,
                           tracking::TrackingSystem& system,
                           double staleness_ms) {
  tracking::TrackingSystem* sys = &system;
  const InvariantMonitor* mon = &monitor;
  // Faults younger than the grace window are in flight, not violations: a
  // capture sits in its window for up to Tmax, then M1 routes over O(log n)
  // hops and M2/M3 add one more before both chain ends agree.
  const double staleness = staleness_ms > 0.0
                               ? staleness_ms
                               : system.config().tracker.window.tmax_ms + 2000.0;
  // The fan-out that runs the key-partitioned phases: the system's shard
  // engine unless the caller set one (DESIGN.md §8.2). At S=1 it is one
  // partition, run inline.
  sim::ShardEngine* engine = system.engine();
  if (!monitor.HasFanOut()) {
    monitor.SetFanOut(
        static_cast<std::uint32_t>(engine->ShardCount()),
        [engine](const std::function<void(std::uint32_t)>& fn) {
          engine->RunOnShards(fn);
        });
  }
  // A burst staged inside shard windows is drained once they park.
  if (monitor.IncrementalEnabled()) monitor.SpillAfterWindows(*engine);
  const std::uint32_t partitions = monitor.Partitions();
  auto shared = std::make_shared<TrackShared>();
  // The visit-grain pair and the object-grain trio each run fused: one
  // pass per scan over the shared key set, one fetch of the expensive
  // shared lookups (the visit record; the oracle trace + resolved sites),
  // every sub-audit judged in place. See FusedScope. Each key partition has
  // its own pair of scopes over its own mark sets.
  for (std::uint32_t p = 0; p < partitions; ++p) {
    shared->parts.push_back(
        std::make_unique<TrackPart>(KeyPartition{p, partitions}, staleness));
  }
  // Locality orders for the incremental due batches (stable counting
  // sorts, so the order stays deterministic). Objects sort by key range:
  // ring ownership is contiguous in id space, so consecutive keys hit the
  // same gateway's index/replica stores — small per-node maps that then
  // stay cache-warm across the batch instead of one random miss per key.
  // Visits sort by holder actor for the same reason (the record fetch is
  // a probe into the holder's visit store). Sorters and warmers keep
  // per-partition scratch, so each partition gets its own.
  for (const auto& part_ptr : shared->parts) {
    TrackPart* part = part_ptr.get();
    part->objects.SetDueSorter(
        [out = std::vector<hash::UInt160>{}, c = std::vector<std::uint32_t>{}](
            std::vector<hash::UInt160>& keys) mutable {
          if (keys.size() < 2) return;
          c.assign(std::size_t{1} << 16, 0);
          for (const hash::UInt160& k : keys) ++c[k.words()[0] >> 16];
          std::uint32_t offset = 0;
          for (std::uint32_t& slot : c) {
            const std::uint32_t n = slot;
            slot = offset;
            offset += n;
          }
          out.resize(keys.size());
          for (const hash::UInt160& k : keys) out[c[k.words()[0] >> 16]++] = k;
          keys.swap(out);
        });
    // Three-stage cache warmer for the judge loop. Far stage (the key the
    // scope hands us, kAhead ahead of the judge): the top-level table
    // slots. Mid stage (the key from four calls back, so still four keys
    // ahead of the judge): follow the now-warm slots one level down to
    // the heap buffers the judge actually walks — the trace tail and the
    // site list. Near stage (six calls back, ~two keys ahead): read the
    // now-warm first site and warm its successors' replica tables, the
    // replication sub's last serial misses. Without the later stages the
    // dependent lines miss serially no matter how early the slot
    // prefetch landed. The near stage reads the successor precompute,
    // which the scan phase built before the fan-out.
    part->objects.SetDuePrefetcher(
        [sys, part, ring = &shared->repl,
         mid_ring = std::array<hash::UInt160, 4>{},
         near_ring = std::array<hash::UInt160, 2>{}, mid_pos = std::size_t{0},
         near_pos = std::size_t{0}](const hash::UInt160& key) mutable {
          TrackState& st = part->state;
          sys->oracle().PrefetchTrace(key);
          st.sites.Prefetch(key);
          const hash::UInt160 mid = mid_ring[mid_pos];
          if (const std::vector<moods::OracleVisit>* trips =
                  sys->oracle().FullTrace(mid);
              trips != nullptr && !trips->empty()) {
            PrefetchLine(&trips->back());
          }
          if (const std::vector<SiteLoc>* locs = st.sites.Find(mid);
              locs != nullptr && !locs->empty()) {
            PrefetchLine(locs->data());
          }
          const hash::UInt160 near = near_ring[near_pos];
          if (const std::vector<SiteLoc>* locs = st.sites.Find(near);
              locs != nullptr && !locs->empty()) {
            const SiteLoc& first = locs->front();
            const tracking::TrackerNode* node =
                first.node != nullptr ? first.node
                                      : sys->TrackerByActor(first.actor);
            if (node != nullptr) {
              if (const std::size_t* position = ring->position.Find(node)) {
                for (const tracking::TrackerNode* succ :
                     ring->successors[*position]) {
                  if (succ != nullptr) succ->replica_store().Prefetch(near);
                }
              }
            }
          }
          near_ring[near_pos] = mid;
          near_pos = (near_pos + 1) & 1;
          mid_ring[mid_pos] = key;
          mid_pos = (mid_pos + 1) & 3;
        });
    part->visits.SetDueSorter([out = std::vector<VisitKey>{},
                               c = std::vector<std::uint32_t>{}](
                                  std::vector<VisitKey>& keys) mutable {
      if (keys.size() < 2) return;
      std::uint32_t max_actor = 0;
      for (const VisitKey& k : keys) max_actor = std::max(max_actor, k.actor);
      if (max_actor > (1u << 20)) return;  // Corrupt actor id: skip the sort.
      c.assign(static_cast<std::size_t>(max_actor) + 1, 0);
      for (const VisitKey& k : keys) ++c[k.actor];
      std::uint32_t offset = 0;
      for (std::uint32_t& slot : c) {
        const std::uint32_t n = slot;
        slot = offset;
        offset += n;
      }
      out.resize(keys.size());
      for (const VisitKey& k : keys) out[c[k.actor]++] = k;
      keys.swap(out);
    });
    // Three-stage cache warmer, mirroring the object scope's: the far
    // stage warms the holder's visit-table slot, the mid stage (four calls
    // back) follows it into the visit vector the judge binary-searches,
    // and the near stage (six calls back, ~two keys ahead of the judge)
    // reads the now-warm record and warms the far-end tables its to/from
    // links make the judge probe — the dominant serial misses of the link
    // audit. Holder resolution itself is a dense-array read, effectively
    // free.
    part->visits.SetDuePrefetcher(
        [sys, mid_ring = std::array<VisitKey, 4>{},
         near_ring = std::array<VisitKey, 2>{}, mid_pos = std::size_t{0},
         near_pos = std::size_t{0}](const VisitKey& key) mutable {
          if (const tracking::TrackerNode* tracker =
                  sys->TrackerByActor(key.actor);
              tracker != nullptr) {
            tracker->iop().PrefetchVisits(key.object);
          }
          const VisitKey mid = mid_ring[mid_pos];
          if (tracking::TrackerNode* tracker = sys->TrackerByActor(mid.actor);
              tracker != nullptr && tracker->chord().Alive()) {
            if (const std::vector<moods::Visit>* visits =
                    tracker->iop().VisitsOf(mid.object);
                visits != nullptr && !visits->empty()) {
              PrefetchLine(visits->data());
              PrefetchLine(visits->data() + (visits->size() - 1));
            }
          }
          const VisitKey near = near_ring[near_pos];
          if (tracking::TrackerNode* tracker = sys->TrackerByActor(near.actor);
              tracker != nullptr && tracker->chord().Alive()) {
            if (const moods::Visit* visit =
                    tracker->iop().VisitAt(near.object, near.arrived)) {
              if (visit->to.has_value()) {
                if (const tracking::TrackerNode* dest =
                        sys->TrackerByActor(visit->to->actor)) {
                  dest->iop().PrefetchVisits(near.object);
                }
              }
              if (visit->from.has_value()) {
                if (const tracking::TrackerNode* src =
                        sys->TrackerByActor(visit->from->actor)) {
                  src->iop().PrefetchVisits(near.object);
                }
              }
            }
          }
          near_ring[near_pos] = mid;
          near_pos = (near_pos + 1) & 1;
          mid_ring[mid_pos] = key;
          mid_pos = (mid_pos + 1) & 3;
        });
  }
  // Gates judged this scan are the ones at or before now - staleness (the
  // scopes' shared grace); later gates are still in flight and survive.
  monitor.AddScanEpilogue([shared, staleness](double now) {
    for (const auto& part : shared->parts) {
      part->visit_marks.Retire(now - staleness);
      part->object_marks.Retire(now - staleness);
      part->shape_marks.Retire(now);
    }
    shared->shape_marks.Retire(now);
  });

  // Full-pass universe of one partition's visit pair: every visit record
  // of every object it owns.
  const auto enumerate_visits = [sys](const TrackPart& part, const auto& fn) {
    for (std::size_t i = 0; i < sys->NodeCount(); ++i) {
      tracking::TrackerNode& tracker = sys->Tracker(i);
      if (!tracker.chord().Alive()) continue;
      const std::uint32_t actor = tracker.Self().actor;
      tracker.iop().ForEachObject(
          [&](const hash::UInt160& object,
              const std::vector<moods::Visit>& visits) {
            if (!part.keys.Owns(object)) return;
            for (const moods::Visit& visit : visits) {
              fn(VisitKey{object, actor, visit.arrived});
            }
          });
    }
  };
  // Full-pass universe of one partition's object trio: every object it
  // owns that the oracle knows, then any site-mirror leftovers — index
  // entries for objects with no oracle trace, possible only in
  // corrupted/test states. The enumerator owns overlap dedup (the
  // FusedScope contract requires unique keys): oracle keys are unique by
  // construction, and the leftover loop skips anything the oracle knows —
  // one probe per leftover instead of a hashed judged-set insert per key.
  const auto enumerate_objects = [sys](TrackPart& part, const auto& fn) {
    TrackState& st = part.state;
    RebuildMirror(st, part.keys, *sys);
    sys->oracle().ForEachObject(
        [&](const hash::UInt160& object,
            const std::vector<moods::OracleVisit>&) {
          if (part.keys.Owns(object)) fn(object);
        });
    // Materialize the leftover keys first: the audits prune the mirror
    // while the pass runs, and erasing from the map being iterated is UB.
    auto& keys = st.key_scratch;
    keys.clear();
    keys.reserve(st.sites.Size());
    for (const auto& [object, locs] : st.sites) {
      if (sys->oracle().FullTrace(object) == nullptr) keys.push_back(object);
    }
    for (const hash::UInt160& object : keys) fn(object);
  };
  const auto enumerate_trackers = [sys](const auto& fn) {
    for (std::size_t i = 0; i < sys->NodeCount(); ++i) {
      tracking::TrackerNode& tracker = sys->Tracker(i);
      if (tracker.chord().Alive()) fn(tracker.Self().actor);
    }
  };

  // One judge for both visit-grain audits: the record fetch happens once
  // per due key instead of once per check. A key whose record (or holder)
  // is gone simply retires: kHealthy for both subs.
  const auto judge_visits = [sys, staleness](VisitFused& fused,
                                             const CheckContext& ctx,
                                             const VisitKey& key,
                                             unsigned mask) {
    tracking::TrackerNode* holder = sys->TrackerByActor(key.actor);
    if (holder == nullptr || !holder->chord().Alive()) return;
    const moods::Visit* vp = holder->iop().VisitAt(key.object, key.arrived);
    if (vp == nullptr) return;
    const moods::Visit& visit = *vp;
    const double settled_before = ctx.Now() - staleness;
    const auto subject = [&](const char* end) {
      return util::Format("{}@{:.3f}:{}", key.object.ToShortHex(),
                          visit.arrived, end);
    };

    if ((mask & (1u << kSubLink)) != 0u) {
      const hash::UInt160& object = key.object;
      const sim::ActorId self = key.actor;
      bool failed = false;
      double deadline = kHealthy;
      const auto defer = [&](double at) {
        deadline = deadline < 0.0 ? at : std::min(deadline, at);
      };
      const auto report = [&](std::string subj, std::string detail) {
        fused.Report(kSubLink, self, object, std::move(subj),
                     std::move(detail));
        failed = true;
      };
      // Forward: our to-link must have a matching from-link on the
      // destination's visit record.
      if (visit.to.has_value() && visit.to->Valid() &&
          visit.to_arrived.has_value()) {
        if (*visit.to_arrived > settled_before) {
          defer(*visit.to_arrived + staleness);  // Judge at settle.
        } else {
          tracking::TrackerNode* dest = sys->TrackerByActor(visit.to->actor);
          // A link into a crashed node is unverifiable and unfixable —
          // the corpse's records are gone and nothing can reciprocate.
          // Trace walks surface it as a broken chain; graceful leavers
          // are NOT exempt (their records were handed over, so a
          // dangling reference is a handoff bug).
          const bool dest_crashed = dest != nullptr &&
                                    !dest->chord().Alive() &&
                                    !dest->LeftGracefully();
          const moods::Visit* far =
              dest == nullptr ? nullptr
                              : dest->iop().VisitAt(object, *visit.to_arrived);
          if (dest_crashed) {
            // Skip: nothing alive can reciprocate this link.
          } else if (far == nullptr) {
            report(subject("to"),
                   util::Format("to-link points at {} @ {:.3f} but no such "
                                "visit exists there",
                                visit.to->Describe(), *visit.to_arrived));
          } else if (!far->from.has_value() || !far->from->Valid() ||
                     far->from->actor != self ||
                     far->from_arrived != visit.arrived) {
            report(subject("to"),
                   util::Format("to-link points at {} @ {:.3f} but its "
                                "from-link does not point back here",
                                visit.to->Describe(), *visit.to_arrived));
          }
        }
      }
      // Reverse: our from-link must have a matching to-link on the
      // source's visit record.
      if (visit.from.has_value() && visit.from->Valid() &&
          visit.from_arrived.has_value()) {
        if (visit.arrived > settled_before) {
          defer(visit.arrived + staleness);
        } else {
          tracking::TrackerNode* src = sys->TrackerByActor(visit.from->actor);
          const bool src_crashed = src != nullptr &&
                                   !src->chord().Alive() &&
                                   !src->LeftGracefully();
          const moods::Visit* far =
              src == nullptr
                  ? nullptr
                  : src->iop().VisitAt(object, *visit.from_arrived);
          if (!src_crashed &&
              (far == nullptr || !far->to.has_value() || !far->to->Valid() ||
               far->to->actor != self || far->to_arrived != visit.arrived)) {
            report(subject("from"),
                   util::Format("from-link points at {} @ {:.3f} but its "
                                "to-link does not point back here",
                                visit.from->Describe(), *visit.from_arrived));
          }
        }
      }
      // An M3 is issued for every indexed arrival; a settled visit that
      // never learned its provenance marks a lost/missing M3.
      if (!visit.from.has_value()) {
        if (visit.arrived > settled_before) {
          defer(visit.arrived + staleness);
        } else {
          report(subject("m3"),
                 "visit never received its M3 (from-link unset)");
        }
      }
      fused.SetVerdict(kSubLink, key, failed ? kWatch : deadline);
    }

    if ((mask & (1u << kSubAcyclic)) != 0u) {
      // A cycle in a time-sorted chain must contain a link that does not
      // advance time, so strict per-link monotonicity implies
      // acyclicity — O(1) per visit record instead of a global chain
      // walk. Like every other iop gate, judge only settled records: a
      // fresh visit's links land out of order in flight, and one
      // post-settle audit per record is what the deferral path relies
      // on (identical in both modes, so detection timing agrees).
      double verdict = kHealthy;
      if (visit.arrived > settled_before) {
        verdict = visit.arrived + staleness;
      } else {
        bool failed = false;
        if (visit.to.has_value() && visit.to->Valid() &&
            visit.to_arrived.has_value() &&
            *visit.to_arrived <= visit.arrived) {
          fused.Report(kSubAcyclic, key.actor, key.object, subject("to"),
                       util::Format("to-link goes backward in time ({:.3f} "
                                    "-> {:.3f}): chain is cyclic",
                                    visit.arrived, *visit.to_arrived));
          failed = true;
        }
        if (visit.from.has_value() && visit.from->Valid() &&
            visit.from_arrived.has_value() &&
            *visit.from_arrived >= visit.arrived) {
          fused.Report(kSubAcyclic, key.actor, key.object, subject("from"),
                       util::Format("from-link goes forward in time ({:.3f} "
                                    "<- {:.3f}): chain is cyclic",
                                    visit.arrived, *visit.from_arrived));
          failed = true;
        }
        if (failed) verdict = kWatch;
      }
      fused.SetVerdict(kSubAcyclic, key, verdict);
    }
  };

  // One judge for all three object-grain audits. The oracle trace and the
  // site resolution — the two dominant costs of the object pass — are
  // fetched once per due object instead of once per check.
  const auto judge_objects = [sys, shared, staleness](
                                 TrackPart& part, ObjectFused& fused,
                                 const CheckContext& ctx,
                                 const hash::UInt160& object, unsigned mask) {
    TrackState& st = part.state;
    const ReplicaRing& repl = shared->repl;
    // site_resolve carries its own scope; the oracle fetch is a single
    // flat-map probe, so a per-key leaf scope would cost more than the
    // fetch — it stays inside the fused pass's exclusive remainder.
    const std::vector<moods::OracleVisit>* trips =
        sys->oracle().FullTrace(object);
    // Lazy: gateway.staleness skips resolution for in-flight objects and
    // gateway.replication skips it when replication is disabled.
    bool have_sites = false;
    SiteList found{nullptr, 0};
    const auto sites = [&]() -> const SiteList& {
      if (!have_sites) {
        found = ResolveSites(st, *sys, object);
        have_sites = true;
      }
      return found;
    };
    const double settled_before = ctx.Now() - staleness;

    if ((mask & (1u << kSubStale)) != 0u) {
      double verdict = kHealthy;
      if (trips != nullptr && !trips->empty()) {
        const moods::OracleVisit& truth = trips->back();
        if (truth.arrived > settled_before) {
          verdict = truth.arrived + staleness;  // In flight: judge then.
        } else if (!sites().empty()) {  // Empty: triangle.coverage's finding.
          const ResolvedSite* best = nullptr;
          for (const ResolvedSite& site : sites()) {
            if (best == nullptr ||
                site.entry->latest_arrived > best->entry->latest_arrived) {
              best = &site;
            }
          }
          // actor <-> node index is a bijection, so compare actors:
          // Tracker(index) is a vector access where the reverse
          // NodeIndexOfActor is a hash find on the audit hot path.
          const std::uint32_t truth_actor =
              truth.node == moods::kNowhere ||
                      static_cast<std::size_t>(truth.node) >= sys->NodeCount()
                  ? 0xFFFFFFFFu
                  : sys->Tracker(static_cast<std::size_t>(truth.node))
                        .Self()
                        .actor;
          if (best->entry->latest_arrived != truth.arrived ||
              best->entry->latest_node.actor != truth_actor) {
            const moods::NodeIndex indexed =
                sys->NodeIndexOfActor(best->entry->latest_node.actor);
            fused.Report(kSubStale, best->node->Self().actor, object,
                         object.ToShortHex(),
                         util::Format(
                             "index says node {} @ {:.3f}, oracle latest is "
                             "node {} @ {:.3f}",
                             indexed, best->entry->latest_arrived, truth.node,
                             truth.arrived));
            verdict = kWatch;
          }
        }
      }
      fused.SetVerdict(kSubStale, object, verdict);
    }

    if ((mask & (1u << kSubTriangle)) != 0u) {
      double verdict = kHealthy;
      if (trips != nullptr && !trips->empty()) {
        if (trips->back().arrived > settled_before) {
          verdict = trips->back().arrived + staleness;
        } else if (sites().empty()) {
          const tracking::TrackerNode* gateway = sys->OwnerOf(object);
          fused.Report(kSubTriangle,
                       gateway != nullptr ? gateway->Self().actor
                                          : sim::kInvalidActor,
                       object, object.ToShortHex(),
                       "no index entry anywhere: record lost");
          verdict = kWatch;
        } else if (sites().size() > 1) {
          // Query-time caching copies a child/parent entry onto the
          // object's own prefix chain at another level
          // (data_triangle.cpp); that is the only sanctioned form of
          // duplication. Site lists are a handful of entries, so the
          // duplicate-level probe is a quadratic scan over a tiny span
          // rather than a heap-allocated set.
          bool sanctioned = true;
          const ResolvedSite* const first = sites().begin();
          for (const ResolvedSite* site = first;
               sanctioned && site != sites().end(); ++site) {
            if (site->individual || !site->prefix.Matches(object)) {
              sanctioned = false;
              break;
            }
            for (const ResolvedSite* prior = first; prior != site; ++prior) {
              if (prior->prefix.length == site->prefix.length) {
                sanctioned = false;
                break;
              }
            }
          }
          if (!sanctioned) {
            fused.Report(kSubTriangle, sites().front().node->Self().actor,
                         object, object.ToShortHex(),
                         util::Format(
                             "{} index entries off the object's own prefix "
                             "chain: record duplicated",
                             sites().size()));
            verdict = kWatch;
          }
        }
      }
      fused.SetVerdict(kSubTriangle, object, verdict);
    }

    if ((mask & (1u << kSubRepl)) != 0u) {
      double verdict = kHealthy;
      // r 0: replication off, or n < 2.
      if (repl.r != 0 && !sites().empty()) {
        const SiteList& holders = sites();
        moods::Time freshest = holders.front().entry->latest_arrived;
        for (const ResolvedSite& site : holders) {
          freshest = std::max(freshest, site.entry->latest_arrived);
        }
        // The replica push itself needs time to land.
        if (freshest > settled_before) {
          verdict = freshest + staleness;
        } else {
          bool covered = false;
          for (const ResolvedSite& site : holders) {
            if (site.entry->latest_arrived != freshest) continue;
            const std::size_t* pos = repl.position.Find(site.node);
            if (pos == nullptr) continue;
            bool all_successors_hold_it = true;
            for (tracking::TrackerNode* succ : repl.successors[*pos]) {
              bool holds = false;
              if (succ != nullptr) {
                const tracking::IndexEntry* replica =
                    succ->replica_store().Find(object);
                holds = replica != nullptr &&
                        replica->latest_arrived >= freshest;
                if (!holds) {
                  // The successor may hold the object authoritatively
                  // instead (promotion or index migration landed there).
                  for (const ResolvedSite& other : holders) {
                    if (other.node == succ &&
                        other.entry->latest_arrived >= freshest) {
                      holds = true;
                      break;
                    }
                  }
                }
              }
              if (!holds) {
                all_successors_hold_it = false;
                break;
              }
            }
            if (all_successors_hold_it) {
              covered = true;
              break;
            }
          }
          if (!covered) {
            fused.Report(kSubRepl, holders.front().node->Self().actor,
                         object, object.ToShortHex(),
                         util::Format(
                             "freshest entry (@ {:.3f}) is not mirrored on "
                             "the {} successors of any holder: a gateway "
                             "crash would lose L(o,t)",
                             freshest, repl.r));
            verdict = kWatch;
          }
        }
      }
      fused.SetVerdict(kSubRepl, object, verdict);
    }
  };

  // Every check body only emits what the scan phase's passes buffered,
  // partition by partition; the monitor canonicalises the order before
  // reconciling.
  const auto emit_visits = [shared](unsigned sub) {
    return [shared, sub](CheckContext& ctx) {
      for (const auto& part : shared->parts) part->visits.Emit(ctx, sub);
    };
  };
  const auto emit_objects = [shared](unsigned sub) {
    return [shared, sub](CheckContext& ctx) {
      for (const auto& part : shared->parts) part->objects.Emit(ctx, sub);
    };
  };
  monitor.AddCheck("iop.link", Severity::kError, emit_visits(kSubLink));
  monitor.AddCheck("iop.acyclic", Severity::kFatal, emit_visits(kSubAcyclic));
  monitor.AddCheck("gateway.staleness", Severity::kError,
                   emit_objects(kSubStale));
  monitor.AddCheck("triangle.coverage", Severity::kFatal,
                   emit_objects(kSubTriangle));
  monitor.AddCheck("gateway.replication", Severity::kError,
                   emit_objects(kSubRepl));

  // The key-partitioned halves: partition p drains the backlog into its
  // own marks and mirror whenever the monitor drains (several times a scan
  // period when the backlog passes the staging cap), and at scan time runs
  // its visit and object passes; both on shard p's parked thread. The
  // replication precompute is built first, serially, and only read by the
  // partitions.
  monitor.AddStageDrain([shared, mon](const StateDeltaBus& backlog) {
    mon->RunPartitioned([&](std::uint32_t p) {
      DrainTracking(*shared->parts[p], *shared, backlog);
    });
  });
  monitor.AddScanPhase([shared, sys, mon, enumerate_visits, enumerate_objects,
                        enumerate_trackers, judge_visits,
                        judge_objects](const CheckContext& scan) {
    BuildReplicaRing(shared->repl, *sys);
    mon->RunPartitioned([&](std::uint32_t p) {
      PROF_SCOPE("invariant", "partition");
      TrackPart& part = *shared->parts[p];
      part.visits.RunPass(
          scan, mon->ledger(),
          [&](const auto& fn) { enumerate_visits(part, fn); },
          [&](VisitFused& fused, const CheckContext& ctx, const VisitKey& key,
              unsigned mask) { judge_visits(fused, ctx, key, mask); });
      part.objects.RunPass(
          scan, mon->ledger(),
          [&](const auto& fn) { enumerate_objects(part, fn); },
          [&](ObjectFused& fused, const CheckContext& ctx,
              const hash::UInt160& object, unsigned mask) {
            judge_objects(part, fused, ctx, object, mask);
          });
    });
    // prefix.shape runs serially over the union of the partitions' marks.
    for (const auto& part : shared->parts) {
      shared->shape_marks.Absorb(part->shape_marks);
    }
    shared->view.Refresh(sys->ring());
    shared->shape.RunPass(scan, mon->ledger(), enumerate_trackers,
                          [&](ActorFused& fused, const CheckContext&,
                              std::uint32_t actor, unsigned) {
                            JudgeShape(shared->view, *sys, fused, actor);
                          });
  });

  // handoff.complete is node-sweep shaped, not key-grained: its body runs
  // the sweep itself.
  monitor.AddCheck(
      "handoff.complete", Severity::kError,
      [sys, shared, mon](CheckContext& ctx) {
        // Cheap while nobody has gracefully departed (the common case):
        // incremental ticks skip the sweep entirely until the first
        // kHandoffFinished delta, then run the full body every tick —
        // departure findings can appear or heal anywhere after that.
        const bool watched = shared->departed_any;
        if (ctx.Incremental() && !ctx.FullPass() && !watched) return;
        const std::size_t before = ctx.findings().size();
        AuditHandoff(*sys, ctx);
        if (ctx.findings().size() != before) shared->departed_any = true;
        if (ctx.Incremental() && ctx.FullPass() && !watched) {
          for (std::size_t i = before; i < ctx.findings().size(); ++i) {
            if (!mon->ledger().IsOpen("handoff.complete",
                                      ctx.findings()[i].subject)) {
              ctx.CrossCheckMiss();
            }
          }
        }
      });

  monitor.AddCheck("prefix.shape", Severity::kError,
                   [shared](CheckContext& ctx) {
                     shared->shape.Emit(ctx, kSubShape);
                   });
}

}  // namespace peertrack::obs
