#pragma once
// Streaming statistics, histograms, and load-balance metrics.
//
// These back every number the benchmark harnesses print: RunningStats for
// means/variances (Welford, numerically stable), Percentiles for latency
// distributions, Histogram for hop-count shapes, and LorenzCurve/Gini for
// the Fig. 8a load-balance reproduction.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace peertrack::util {

/// Welford one-pass mean/variance with min/max tracking.
class RunningStats {
 public:
  void Add(double x) noexcept;
  void Merge(const RunningStats& other) noexcept;

  std::size_t Count() const noexcept { return count_; }
  double Mean() const noexcept { return count_ ? mean_ : 0.0; }
  double Variance() const noexcept;   ///< Sample variance (n-1 denominator).
  double Min() const noexcept { return count_ ? min_ : 0.0; }
  double Max() const noexcept { return count_ ? max_ : 0.0; }
  double Sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile estimator: stores samples, sorts on demand.
/// Appropriate for the experiment sizes here (≤ millions of samples).
class Percentiles {
 public:
  void Add(double x) { samples_.push_back(x); sorted_ = false; }
  void Reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t Count() const noexcept { return samples_.size(); }
  /// p in [0, 100]; linear interpolation between closest ranks.
  double Percentile(double p);
  double Median() { return Percentile(50.0); }

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

/// Fixed-width bucket histogram over [lo, hi); out-of-range values clamp to
/// the edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void Add(double x) noexcept;
  std::size_t BucketCount() const noexcept { return counts_.size(); }
  std::uint64_t Count(std::size_t bucket) const noexcept { return counts_[bucket]; }
  std::uint64_t Total() const noexcept { return total_; }
  double BucketLow(std::size_t bucket) const noexcept;
  double BucketHigh(std::size_t bucket) const noexcept;

  /// Multi-line ASCII rendering (for debug output).
  std::string Render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  double bucket_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// A point on a Lorenz curve: the bottom `node_fraction` of nodes carry
/// `load_fraction` of the total load. The paper's Fig. 8a plots exactly
/// this (diagonal = perfectly balanced).
struct LorenzPoint {
  double node_fraction;
  double load_fraction;
};

/// Lorenz curve of per-node loads, sorted ascending. Returns `points + 1`
/// samples including (0,0) and (1,1).
std::vector<LorenzPoint> LorenzCurve(std::span<const std::uint64_t> loads,
                                     std::size_t points = 20);

/// Gini coefficient in [0,1]; 0 = perfectly balanced. Scalar summary of the
/// Lorenz curve used by tests and the Fig. 8a bench.
double GiniCoefficient(std::span<const std::uint64_t> loads);

/// max(load) / mean(load); 1.0 = perfectly balanced. Returns 0 for empty
/// or all-zero input.
double PeakToMeanRatio(std::span<const std::uint64_t> loads);

/// Fraction of entries that are nonzero (how many nodes got any work; the
/// paper's δ from Eq. 4 predicts this for group indexing).
double NonZeroFraction(std::span<const std::uint64_t> loads);

}  // namespace peertrack::util
