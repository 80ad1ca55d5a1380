#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include "util/format.hpp"
#include <numeric>

namespace peertrack::util {

void RunningStats::Add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::Variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double Percentiles::Percentile(double p) {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo),
      hi_(hi),
      bucket_width_((hi - lo) / static_cast<double>(buckets == 0 ? 1 : buckets)),
      counts_(buckets == 0 ? 1 : buckets, 0) {}

void Histogram::Add(double x) noexcept {
  std::size_t bucket;
  if (x < lo_) {
    bucket = 0;
  } else if (x >= hi_) {
    bucket = counts_.size() - 1;
  } else {
    bucket = static_cast<std::size_t>((x - lo_) / bucket_width_);
    bucket = std::min(bucket, counts_.size() - 1);
  }
  ++counts_[bucket];
  ++total_;
}

double Histogram::BucketLow(std::size_t bucket) const noexcept {
  return lo_ + bucket_width_ * static_cast<double>(bucket);
}

double Histogram::BucketHigh(std::size_t bucket) const noexcept {
  return lo_ + bucket_width_ * static_cast<double>(bucket + 1);
}

std::string Histogram::Render(std::size_t width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[b]) / static_cast<double>(peak) *
        static_cast<double>(width));
    out += Format("[{:>10.3f}, {:>10.3f}) {:>8} {}\n", BucketLow(b),
                       BucketHigh(b), counts_[b], std::string(bar, '#'));
  }
  return out;
}

std::vector<LorenzPoint> LorenzCurve(std::span<const std::uint64_t> loads,
                                     std::size_t points) {
  std::vector<LorenzPoint> curve;
  if (loads.empty() || points == 0) {
    curve.push_back({0.0, 0.0});
    curve.push_back({1.0, 1.0});
    return curve;
  }
  std::vector<std::uint64_t> sorted(loads.begin(), loads.end());
  std::sort(sorted.begin(), sorted.end());
  const double total = static_cast<double>(
      std::accumulate(sorted.begin(), sorted.end(), std::uint64_t{0}));
  curve.reserve(points + 1);
  curve.push_back({0.0, 0.0});
  double cumulative = 0.0;
  std::size_t next_index = 0;
  for (std::size_t p = 1; p <= points; ++p) {
    const auto upto = static_cast<std::size_t>(
        std::llround(static_cast<double>(p) / static_cast<double>(points) *
                     static_cast<double>(sorted.size())));
    while (next_index < upto && next_index < sorted.size()) {
      cumulative += static_cast<double>(sorted[next_index]);
      ++next_index;
    }
    curve.push_back({static_cast<double>(p) / static_cast<double>(points),
                     total > 0.0 ? cumulative / total : 0.0});
  }
  return curve;
}

double GiniCoefficient(std::span<const std::uint64_t> loads) {
  if (loads.size() < 2) return 0.0;
  std::vector<std::uint64_t> sorted(loads.begin(), loads.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    weighted += static_cast<double>(i + 1) * static_cast<double>(sorted[i]);
    total += static_cast<double>(sorted[i]);
  }
  if (total == 0.0) return 0.0;
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

double PeakToMeanRatio(std::span<const std::uint64_t> loads) {
  if (loads.empty()) return 0.0;
  std::uint64_t peak = 0;
  std::uint64_t sum = 0;
  for (auto x : loads) {
    peak = std::max(peak, x);
    sum += x;
  }
  if (sum == 0) return 0.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(loads.size());
  return static_cast<double>(peak) / mean;
}

double NonZeroFraction(std::span<const std::uint64_t> loads) {
  if (loads.empty()) return 0.0;
  std::size_t nonzero = 0;
  for (auto x : loads) {
    if (x != 0) ++nonzero;
  }
  return static_cast<double>(nonzero) / static_cast<double>(loads.size());
}

}  // namespace peertrack::util
