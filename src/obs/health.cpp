#include "obs/health.hpp"

#include <unordered_set>

#include "util/format.hpp"
#include "util/table.hpp"

namespace peertrack::obs {

std::string_view SeverityName(Severity severity) noexcept {
  switch (severity) {
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
    case Severity::kFatal: return "fatal";
  }
  return "unknown";
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          const unsigned v = static_cast<unsigned char>(c);
          out += "\\u00";
          out += kHex[(v >> 4) & 0xF];
          out += kHex[v & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- HealthLedger -----------------------------------------------------------

HealthLedger::Delta HealthLedger::Reconcile(std::string_view check,
                                            Severity severity,
                                            const std::vector<Finding>& findings,
                                            double now) {
  Delta delta;
  auto check_it = open_index_.find(check);
  if (check_it == open_index_.end()) {
    if (findings.empty()) return delta;  // Common clean-scan path: no work.
    check_it = open_index_.emplace(std::string(check), SubjectIndex{}).first;
  }
  SubjectIndex& open = check_it->second;

  // Pre-existing open violations of this check; any of them not re-reported
  // this scan closes below. Subjects are matched exactly, so a fault whose
  // subject key changes counts as one heal plus one new fault.
  std::vector<std::size_t> previously_open;
  previously_open.reserve(open.size());
  for (const auto& [subject, index] : open) previously_open.push_back(index);

  std::unordered_set<std::size_t> refreshed;
  for (const Finding& finding : findings) {
    const auto it = open.find(std::string_view(finding.subject));
    if (it != open.end()) {
      Violation& violation = violations_[it->second];
      violation.last_seen_ms = now;
      violation.detail = finding.detail;
      refreshed.insert(it->second);
      ++delta.refreshed;
      continue;
    }
    Violation violation;
    violation.check = check;
    violation.severity = severity;
    violation.actor = finding.actor;
    violation.subject = finding.subject;
    violation.detail = finding.detail;
    violation.first_seen_ms = now;
    violation.last_seen_ms = now;
    violation.object = finding.object;
    violation.has_object = finding.has_object;
    open.emplace(finding.subject, violations_.size());
    delta.opened_indices.push_back(violations_.size());
    violations_.push_back(std::move(violation));
    ++open_total_;
    ++delta.opened;
  }

  for (const std::size_t index : previously_open) {
    Violation& violation = violations_[index];
    if (refreshed.contains(index)) continue;
    violation.cleared_ms = now;
    delta.repaired_ms.push_back(violation.RepairMs());
    open.erase(open.find(std::string_view(violation.subject)));
    --open_total_;
  }
  if (open.empty()) open_index_.erase(check_it);
  return delta;
}

std::size_t HealthLedger::OpenCount(std::string_view check) const noexcept {
  const auto it = open_index_.find(check);
  return it == open_index_.end() ? 0 : it->second.size();
}

std::size_t HealthLedger::OpenFatalCount() const noexcept {
  std::size_t count = 0;
  for (const auto& [check, open] : open_index_) {
    for (const auto& [subject, index] : open) {
      if (violations_[index].severity == Severity::kFatal) ++count;
    }
  }
  return count;
}

bool HealthLedger::IsOpen(std::string_view check,
                          std::string_view subject) const noexcept {
  const auto it = open_index_.find(check);
  return it != open_index_.end() && it->second.find(subject) != it->second.end();
}

// --- HealthReport -----------------------------------------------------------

std::string HealthReport::ToJson() const {
  std::string json = util::Format(
      "{{\n  \"schema\": \"peertrack.health.v2\",\n"
      "  \"generated_at_ms\": {},\n  \"scans\": {},\n"
      "  \"incremental\": {},\n  \"full_sweeps\": {},\n"
      "  \"deltas_routed\": {},\n  \"scan_wall_ms\": {:.3f},\n"
      "  \"cross_check_misses\": {},\n"
      "  \"open_violations\": {},\n  \"open_fatal\": {},\n"
      "  \"violations_total\": {},\n  \"checks\": [",
      generated_at_ms, scans, incremental ? "true" : "false", full_sweeps,
      deltas_routed, scan_wall_ms, cross_check_misses, open_violations,
      open_fatal, violations_total);
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const CheckSummary& check = checks[i];
    json += util::Format(
        "{}\n    {{\"id\": \"{}\", \"severity\": \"{}\", \"scans\": {}, "
        "\"failed_scans\": {}, \"findings\": {}, \"opened\": {}, "
        "\"healed\": {}, \"open\": {}, "
        "\"cross_check_misses\": {}, \"repair_ms\": {{\"count\": {}, "
        "\"p50\": {:.3f}, \"p95\": {:.3f}, \"p99\": {:.3f}, \"max\": {:.3f}}}}}",
        i == 0 ? "" : ",", JsonEscape(check.id), SeverityName(check.severity),
        check.scans, check.failed_scans, check.findings, check.opened,
        check.healed, check.open, check.cross_check_misses,
        check.repair.count, check.repair.p50_ms, check.repair.p95_ms,
        check.repair.p99_ms, check.repair.max_ms);
  }
  json += "\n  ],\n  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& violation = violations[i];
    json += util::Format(
        "{}\n    {{\"check\": \"{}\", \"severity\": \"{}\", \"actor\": {}, "
        "\"subject\": \"{}\", \"detail\": \"{}\", \"first_seen_ms\": {}, "
        "\"last_seen_ms\": {}, \"cleared_ms\": {}, \"open\": {}, "
        "\"object\": {}",
        i == 0 ? "" : ",", JsonEscape(violation.check),
        SeverityName(violation.severity), violation.actor,
        JsonEscape(violation.subject), JsonEscape(violation.detail),
        violation.first_seen_ms, violation.last_seen_ms,
        violation.cleared_ms ? util::Format("{}", *violation.cleared_ms) : "null",
        violation.Open() ? "true" : "false",
        violation.has_object
            ? util::Format("\"{}\"", violation.object.ToShortHex())
            : "null");
    if (!violation.bundle_path.empty()) {
      json += util::Format(
          ", \"forensics\": {{\"bundle\": \"{}\", \"trigger_event\": {}, "
          "\"cause\": \"{}\", \"explain\": \"{}\"}}",
          JsonEscape(violation.bundle_path), violation.trigger_event,
          JsonEscape(violation.cause), JsonEscape(violation.explain));
    }
    json += "}";
  }
  json += "\n  ]\n}\n";
  return json;
}

std::string HealthReport::SummaryTable() const {
  util::Table table({"check", "severity", "scans", "failed", "opened", "healed",
                     "open", "repair p50", "p95", "p99 (ms)"});
  for (const CheckSummary& check : checks) {
    table.AddRow({check.id, std::string(SeverityName(check.severity)),
                  util::Format("{}", check.scans),
                  util::Format("{}", check.failed_scans),
                  util::Format("{}", check.opened),
                  util::Format("{}", check.healed),
                  util::Format("{}", check.open),
                  util::Format("{:.1f}", check.repair.p50_ms),
                  util::Format("{:.1f}", check.repair.p95_ms),
                  util::Format("{:.1f}", check.repair.p99_ms)});
  }
  std::string out = table.Render();
  // Per-violation explain section: every violation the flight recorder
  // dumped a bundle for gets its cause tree, indented under a header line.
  for (const Violation& violation : violations) {
    if (violation.bundle_path.empty()) continue;
    out += util::Format("explain {} {} (bundle {}):\n", violation.check,
                        violation.subject, violation.bundle_path);
    std::size_t start = 0;
    while (start < violation.explain.size()) {
      std::size_t end = violation.explain.find('\n', start);
      if (end == std::string::npos) end = violation.explain.size();
      out += "  ";
      out.append(violation.explain, start, end - start);
      out += '\n';
      start = end + 1;
    }
  }
  out += util::Format(
      "health @ t={}ms: {} scans{}, {} violations ({} open, {} open fatal)"
      " — {}\n",
      generated_at_ms, scans,
      incremental ? util::Format(" (incremental, {} full sweeps, {} deltas, "
                                 "{} cross-check misses)",
                                 full_sweeps, deltas_routed, cross_check_misses)
                  : std::string(),
      violations_total, open_violations, open_fatal,
      Healthy() ? "HEALTHY" : "UNHEALTHY");
  return out;
}

}  // namespace peertrack::obs
