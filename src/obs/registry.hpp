#pragma once
// Typed metric instruments and the registry that names them.
//
// The registry is the one metrics store of a simulation: sim::Metrics
// writes its per-message-type tallies here (`msg.count:<type>`,
// `drop.loss:<type>`, ...) next to the named protocol counters, gauges and
// latency histograms, and derives its totals from them. Code asks the
// registry for a named Counter / Gauge / Histogram once and bumps it
// directly. Histograms are log-bucketed (geometric bucket bounds, a fixed
// number of sub-buckets per octave) so one 128-bucket array covers
// sub-millisecond rpc attempts and minute-long tail queries with bounded
// relative error, and p50/p95/p99 come straight out of the bucket counts —
// the paper's mean-only latency reporting hides exactly the tail these
// expose.
//
// Instruments handed out by a Registry live as long as the registry and
// never move (std::map nodes), so hot paths may cache the reference or
// pointer. Nothing ever removes an instrument: ResetValues() zeroes values
// in place and is the only reset.
//
// Sharded runs (sim::ShardEngine) write instruments from S worker threads.
// Counters and histograms become lane-striped on Registry::EnableStriping:
// each thread's obs lane (obs/lane.hpp) owns a private slot and reads fold
// the slots together. Folds happen only on the coordinator thread while
// all workers are parked at a barrier, so they need no locking; the
// registry's name->instrument maps do take a mutex once striped, because
// a worker may intern a new name mid-window. Un-striped instruments are
// plain single-threaded adds.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/lane.hpp"

namespace peertrack::obs {

class Counter {
 public:
  void Add(std::uint64_t by = 1) noexcept {
    if (stripes_ == nullptr) {
      value_ += by;
      return;
    }
    (*stripes_)[CurrentLane()].value += by;
  }
  std::uint64_t Value() const noexcept {
    std::uint64_t total = value_;
    if (stripes_ != nullptr) {
      for (const Stripe& s : *stripes_) total += s.value;
    }
    return total;
  }

  /// Give each of `lanes` writer threads a private, cache-line-padded
  /// slot. Idempotent; reads keep summing everything.
  void EnableStriping(std::size_t lanes);
  /// Zero the value in place (keeps striping and the instrument address).
  void ResetValue() noexcept;

 private:
  struct alignas(64) Stripe {
    std::uint64_t value = 0;
  };

  std::uint64_t value_ = 0;
  std::unique_ptr<std::vector<Stripe>> stripes_;
};

class Gauge {
 public:
  void Set(double value) noexcept { value_ = value; }
  double Value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Bucket layout of a log-bucketed histogram. Bucket 0 is the underflow
/// bucket [0, min_bound); bucket i >= 1 covers
/// [min_bound * growth^(i-1), min_bound * growth^i) where
/// growth = 2^(1/buckets_per_octave). The last bucket absorbs overflow.
struct HistogramOptions {
  double min_bound = 0.01;           ///< Lower edge of bucket 1.
  unsigned buckets_per_octave = 4;   ///< Sub-buckets per power of two
                                     ///< (4 => <= ~9% relative error).
  std::size_t max_buckets = 128;     ///< Total buckets incl. under/overflow.
};

/// Log-bucketed histogram with exact count/sum/min/max. Negative samples
/// clamp to 0 (latencies and sizes are non-negative by construction).
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  void Add(double value) noexcept {
    AddSample(cells_[cells_.size() == 1 ? 0 : CurrentLane()], value);
  }

  std::uint64_t Count() const noexcept { return Folded().count; }
  double Sum() const noexcept { return Folded().sum; }
  double Mean() const noexcept {
    const Cell& all = Folded();
    return all.count ? all.sum / static_cast<double>(all.count) : 0.0;
  }
  double Min() const noexcept {
    const Cell& all = Folded();
    return all.count ? all.min : 0.0;
  }
  double Max() const noexcept {
    const Cell& all = Folded();
    return all.count ? all.max : 0.0;
  }

  /// Percentile estimate for p in [0, 100]: locate the bucket holding the
  /// target rank and interpolate linearly inside it, clamped to the exact
  /// observed [Min, Max]. Returns 0 when empty.
  double Percentile(double p) const noexcept;
  double P50() const noexcept { return Percentile(50.0); }
  double P95() const noexcept { return Percentile(95.0); }
  double P99() const noexcept { return Percentile(99.0); }

  // --- Bucket introspection (tests / renderers) ---------------------------

  std::size_t BucketCount() const noexcept { return options_.max_buckets; }
  std::uint64_t BucketValue(std::size_t bucket) const noexcept {
    return Folded().counts[bucket];
  }
  /// Index of the bucket `value` falls into.
  std::size_t BucketIndexFor(double value) const noexcept;
  /// Inclusive lower / exclusive upper bound of `bucket` (bucket 0 starts
  /// at 0; the last bucket's upper bound is +inf).
  double BucketLow(std::size_t bucket) const noexcept;
  double BucketHigh(std::size_t bucket) const noexcept;

  const HistogramOptions& options() const noexcept { return options_; }

  void Reset() noexcept;

  /// One private cell per writer lane, lane 0 included; reads destructively
  /// fold lanes 1..S-1 into lane 0 (coordinator-only, workers parked).
  /// Idempotent.
  void EnableStriping(std::size_t lanes);

 private:
  /// One writer lane's samples.
  struct alignas(64) Cell {
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  void AddSample(Cell& cell, double value) const noexcept;
  static void Clear(Cell& cell) noexcept;
  /// Lane 0 after folding every other lane into it.
  const Cell& Folded() const noexcept {
    if (cells_.size() > 1) const_cast<Histogram*>(this)->FoldLanes();
    return cells_[0];
  }
  void FoldLanes() noexcept;

  HistogramOptions options_;
  double inv_log_growth_ = 0.0;  ///< 1 / ln(growth), cached for BucketIndexFor.
  std::vector<Cell> cells_;      ///< Indexed by CurrentLane() once striped.
};

/// Name -> instrument. Creation is implicit on first Get*; asking for an
/// existing name returns the same instrument (options of later calls are
/// ignored for histograms). Iteration is sorted by name so Summary/CSV
/// output is stable.
class Registry {
 public:
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name, HistogramOptions options = {});

  /// Prepare for `lanes` concurrent writer threads: stripe every existing
  /// and future counter/histogram and guard the name maps with a mutex
  /// (workers may intern new names mid-window). Gauges stay unstriped —
  /// they are coordinator-written by contract. Idempotent.
  void EnableStriping(std::size_t lanes);

  /// Value of a counter, 0 when it was never created.
  std::uint64_t CounterValue(std::string_view name) const noexcept;
  /// Histogram lookup without creation; nullptr when absent.
  const Histogram* FindHistogram(std::string_view name) const noexcept;

  const std::map<std::string, Counter, std::less<>>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const noexcept {
    return histograms_;
  }

  /// Zero every instrument's value but keep the instruments themselves:
  /// names, histogram bucket layouts, and — critically — addresses survive,
  /// so references cached by hot paths stay valid across a reset.
  void ResetValues() noexcept;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::size_t lanes_ = 0;
  mutable std::mutex map_mutex_;  ///< Guards the maps once striped.
};

}  // namespace peertrack::obs
