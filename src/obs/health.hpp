#pragma once
// Health ledger: structured violation records for the invariant monitor.
//
// The monitor (obs/invariants.hpp) runs named checks on the sim clock; each
// scan of a check yields a set of findings. The ledger matches findings
// across scans by (check id, subject key) and turns them into Violation
// records with open/close simulated timestamps: a finding seen for the
// first time opens a violation, a finding that disappears closes it. The
// close minus open delta is the structure's *time-to-repair* — the
// convergence-latency signal churn experiments care about (how long was a
// successor pointer wrong, how long did an IOP link dangle).
//
// Timestamps are scan-granular by construction: first_seen_ms is the first
// scan that observed the fault, not the instant the fault appeared, so
// repair latencies are upper-bounded by reality plus one scan period.
//
// This header sits below sim (actor ids are plain integers here) so the
// ledger is unit-testable without a simulator; the monitor in
// invariants.hpp is the sim-facing owner.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hash/uint160.hpp"

namespace peertrack::obs {

/// How bad a violated invariant is. kFatal marks corruption that cannot
/// self-heal (lost records, cyclic chains); CI fails a run that ends with
/// an open fatal violation.
enum class Severity { kWarn, kError, kFatal };

std::string_view SeverityName(Severity severity) noexcept;

/// One finding reported by a check during one scan. `subject` is the
/// stable identity of the fault (object id + visit time, node address,
/// bucket prefix, ...): the ledger uses it to recognise the same fault
/// across scans.
struct Finding {
  std::uint32_t actor = 0xFFFFFFFFu;  ///< sim::ActorId of the afflicted node.
  std::string subject;
  std::string detail;
  /// Object key behind the subject, when the check audits an object-grain
  /// key space — lets the forensic dump match recorded history by key
  /// instead of parsing the subject string.
  hash::UInt160 object{};
  bool has_object = false;
};

/// A fault's lifetime as observed by periodic scans.
struct Violation {
  std::string check;
  Severity severity = Severity::kWarn;
  std::uint32_t actor = 0xFFFFFFFFu;
  std::string subject;
  std::string detail;          ///< Detail text from the latest observation.
  double first_seen_ms = 0.0;  ///< Scan that opened the violation.
  double last_seen_ms = 0.0;   ///< Latest scan that still observed it.
  /// Scan at which the finding was gone again; open while unset.
  std::optional<double> cleared_ms;
  hash::UInt160 object{};  ///< Copied from the opening finding.
  bool has_object = false;

  // Forensics (filled by InvariantMonitor::EnableForensics when a flight
  // recorder dumped a bundle for this violation's opening; see DESIGN.md
  // §12). Empty bundle_path = no bundle.
  std::string bundle_path;          ///< peertrack.forensics.v1 JSON file.
  std::uint64_t trigger_event = 0;  ///< Recorder LastSeq() at dump time.
  std::string cause;                ///< Explainer root cause id.
  std::string explain;              ///< Rendered cause tree (multi-line).

  bool Open() const noexcept { return !cleared_ms.has_value(); }
  /// Observed time-to-repair. Precondition: !Open().
  double RepairMs() const noexcept { return *cleared_ms - first_seen_ms; }
};

/// Matches findings across scans and owns the full violation history
/// (open and healed).
class HealthLedger {
 public:
  /// What one Reconcile changed: how many violations it opened and the
  /// repair latency of every violation it closed.
  struct Delta {
    std::size_t opened = 0;
    std::size_t refreshed = 0;
    std::vector<double> repaired_ms;
    /// Indices (into violations()) of the records this Reconcile opened —
    /// the forensic dumper walks exactly these, never refreshed ones.
    std::vector<std::size_t> opened_indices;
  };

  /// Fold one check's scan results (taken at sim time `now`) into the
  /// ledger: new subjects open violations, seen-again subjects refresh
  /// last_seen, and open violations of this check whose subject is absent
  /// from `findings` close.
  Delta Reconcile(std::string_view check, Severity severity,
                  const std::vector<Finding>& findings, double now);

  std::size_t OpenCount() const noexcept { return open_total_; }
  std::size_t OpenCount(std::string_view check) const noexcept;
  /// Open violations with Severity::kFatal.
  std::size_t OpenFatalCount() const noexcept;

  /// Is a violation of `check` currently open for `subject`? Allocation-free
  /// (transparent lookups); the incremental monitor's cross-check uses this
  /// to tell "already tracked" from "the incremental path missed it".
  bool IsOpen(std::string_view check, std::string_view subject) const noexcept;

  /// Every violation ever opened, in open order.
  const std::vector<Violation>& violations() const noexcept { return violations_; }

  /// Mutable access for the forensic dumper (attaches bundle path, cause
  /// and explain text to a just-opened record). Index from Delta::
  /// opened_indices; never changes ledger bookkeeping fields.
  Violation& MutableViolation(std::size_t index) { return violations_[index]; }

 private:
  /// Heterogeneous string hashing so hot-path lookups take string_view /
  /// const std::string& without materialising a key pair. Subjects are
  /// only copied when a violation actually opens (rare); steady-state
  /// Reconcile calls allocate nothing per finding.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  /// subject -> index into violations_, open records of one check only.
  using SubjectIndex =
      std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>;

  std::vector<Violation> violations_;
  /// check -> open subjects (entries removed when a check has none open).
  std::map<std::string, SubjectIndex, std::less<>> open_index_;
  std::size_t open_total_ = 0;
};

/// End-of-run snapshot: per-check aggregates plus the violation log.
/// Produced by InvariantMonitor::Report(); renders as machine-readable
/// JSON (CI artifact) or a human summary table.
struct HealthReport {
  struct RepairStats {
    std::uint64_t count = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
  };
  struct CheckSummary {
    std::string id;
    Severity severity = Severity::kWarn;
    std::uint64_t scans = 0;         ///< Times the check ran.
    std::uint64_t failed_scans = 0;  ///< Scans with >= 1 finding.
    std::uint64_t findings = 0;      ///< Total findings across scans.
    std::uint64_t opened = 0;        ///< Violations opened.
    std::uint64_t healed = 0;        ///< Violations closed.
    std::size_t open = 0;            ///< Violations still open now.
    /// Full-sweep findings the incremental path would have missed (see
    /// DESIGN.md §8.2). Nonzero means a mutation site forgot to publish.
    std::uint64_t cross_check_misses = 0;
    RepairStats repair;              ///< Over healed violations.
  };

  double generated_at_ms = 0.0;
  std::uint64_t scans = 0;
  bool incremental = false;       ///< Was the monitor in incremental mode?
  std::uint64_t full_sweeps = 0;  ///< Scans that ran as full cross-checks.
  std::uint64_t deltas_routed = 0;
  double scan_wall_ms = 0.0;  ///< Host wall time across all checks/scans.
  std::uint64_t cross_check_misses = 0;  ///< Sum over checks.
  std::size_t open_violations = 0;
  std::size_t open_fatal = 0;
  std::vector<CheckSummary> checks;
  /// Sorted by (first_seen, check, subject). May be truncated for huge
  /// runs — `violations_total` always holds the untruncated count.
  std::vector<Violation> violations;
  std::size_t violations_total = 0;

  bool Healthy() const noexcept { return open_violations == 0; }

  /// {"schema":"peertrack.health.v2", ...} — see DESIGN.md §8. v2 adds a
  /// per-violation "object" key plus the "forensics" block (bundle path,
  /// trigger event id, cause id, cause tree) for violations the flight
  /// recorder dumped.
  std::string ToJson() const;

  /// Column-aligned per-check table plus a one-line verdict.
  std::string SummaryTable() const;
};

/// Minimal JSON string escaping (quotes, backslash, control characters).
/// Shared by every hand-rolled JSON emitter in the obs layer.
std::string JsonEscape(std::string_view s);

}  // namespace peertrack::obs
