#pragma once
// In-memory span log for the traced run.
//
// Host spans wrap each public call the benchmark makes into a layer (the
// TrackingSystem constructor, CaptureAt loops, Run, FlushAllWindows,
// InvariantMonitor::RunOnce); they nest, so a span's self time is its
// duration minus what its direct children cover. Query spans live on the
// simulated clock, from issue to callback, and carry the query id. Nothing
// is written until WriteJsonl at the end of the run.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct HostSpan {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    double Duration() const { return end_s - start_s; }
  };
  struct QuerySpan {
    std::uint64_t id = 0;
    char kind = 'L';  ///< 'L' locate, 'T' trace.
    bool check = false;
    double issued_ms = 0.0;
    double answered_ms = 0.0;
  };

  int Begin(std::string name) {
    spans_.push_back({std::move(name), open_, Now(), 0.0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void End(int index) {
    spans_[index].end_s = Now();
    open_ = spans_[index].parent;
  }
  void AddQuery(const QuerySpan& span) { queries_.push_back(span); }

  const std::vector<HostSpan>& spans() const { return spans_; }

  /// Summed duration of spans named `name` below the span `under`.
  double Total(const std::string& name, int under) const {
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name && Below(static_cast<int>(i), under)) {
        total += spans_[i].Duration();
      }
    }
    return total;
  }

  /// Summed self time (duration minus direct children) of spans whose name
  /// starts with `prefix`, below `under`.
  double SelfTotal(const std::string& prefix, int under) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const HostSpan& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.Duration();
    }
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name.starts_with(prefix) && Below(static_cast<int>(i), under)) {
        total += spans_[i].Duration() - child[i];
      }
    }
    return total;
  }

  bool WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const HostSpan& s = spans_[i];
      out << "{\"span\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":"
          << s.parent << ",\"clock\":\"host_s\",\"start\":" << s.start_s
          << ",\"end\":" << s.end_s << "}\n";
    }
    for (const QuerySpan& q : queries_) {
      out << "{\"query\":" << q.id << ",\"name\":\""
          << (q.kind == 'L' ? "query.locate" : "query.trace")
          << "\",\"check\":" << (q.check ? "true" : "false")
          << ",\"clock\":\"sim_ms\",\"start\":" << q.issued_ms
          << ",\"end\":" << q.answered_ms << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  bool Below(int index, int under) const {
    for (int p = spans_[index].parent; p >= 0; p = spans_[p].parent) {
      if (p == under) return true;
    }
    return false;
  }

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<HostSpan> spans_;
  std::vector<QuerySpan> queries_;
  int open_ = -1;
};

/// RAII host span; a null log records nothing.
class Span {
 public:
  Span(SpanLog* log, std::string name)
      : log_(log), index_(log != nullptr ? log->Begin(std::move(name)) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
