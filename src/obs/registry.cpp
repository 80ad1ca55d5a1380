#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace peertrack::obs {

void Counter::EnableStriping(std::size_t lanes) {
  if (stripes_ != nullptr || lanes <= 1) return;
  stripes_ = std::make_unique<std::vector<Stripe>>(lanes);
}

void Counter::ResetValue() noexcept {
  value_ = 0;
  if (stripes_ != nullptr) {
    for (Stripe& s : *stripes_) s.value = 0;
  }
}

Histogram::Histogram(HistogramOptions options) : options_(options) {
  if (options_.min_bound <= 0.0) options_.min_bound = 0.01;
  if (options_.buckets_per_octave == 0) options_.buckets_per_octave = 4;
  if (options_.max_buckets < 2) options_.max_buckets = 2;
  const double growth =
      std::exp2(1.0 / static_cast<double>(options_.buckets_per_octave));
  inv_log_growth_ = 1.0 / std::log(growth);
  cells_.resize(1);
  cells_[0].counts.assign(options_.max_buckets, 0);
}

std::size_t Histogram::BucketIndexFor(double value) const noexcept {
  if (value < options_.min_bound) return 0;
  // value in [min * g^(i-1), min * g^i) => i = floor(log_g(value/min)) + 1.
  const double octaves = std::log(value / options_.min_bound) * inv_log_growth_;
  const auto index = static_cast<std::size_t>(octaves) + 1;
  return std::min(index, options_.max_buckets - 1);
}

double Histogram::BucketLow(std::size_t bucket) const noexcept {
  if (bucket == 0) return 0.0;
  return options_.min_bound *
         std::exp2(static_cast<double>(bucket - 1) /
                   static_cast<double>(options_.buckets_per_octave));
}

double Histogram::BucketHigh(std::size_t bucket) const noexcept {
  if (bucket + 1 >= options_.max_buckets) {
    return std::numeric_limits<double>::infinity();
  }
  return options_.min_bound *
         std::exp2(static_cast<double>(bucket) /
                   static_cast<double>(options_.buckets_per_octave));
}

void Histogram::EnableStriping(std::size_t lanes) {
  if (cells_.size() > 1 || lanes <= 1) return;
  cells_.resize(lanes);
  for (Cell& cell : cells_) cell.counts.resize(options_.max_buckets, 0);
}

void Histogram::FoldLanes() noexcept {
  Cell& all = cells_[0];
  for (std::size_t lane = 1; lane < cells_.size(); ++lane) {
    Cell& cell = cells_[lane];
    if (cell.count == 0) continue;
    for (std::size_t b = 0; b < all.counts.size(); ++b) {
      all.counts[b] += cell.counts[b];
    }
    if (all.count == 0) {
      all.min = cell.min;
      all.max = cell.max;
    } else {
      all.min = std::min(all.min, cell.min);
      all.max = std::max(all.max, cell.max);
    }
    all.count += cell.count;
    all.sum += cell.sum;
    Clear(cell);
  }
}

void Histogram::AddSample(Cell& cell, double value) const noexcept {
  if (value < 0.0) value = 0.0;
  ++cell.counts[BucketIndexFor(value)];
  if (cell.count == 0) {
    cell.min = value;
    cell.max = value;
  } else {
    cell.min = std::min(cell.min, value);
    cell.max = std::max(cell.max, value);
  }
  ++cell.count;
  cell.sum += value;
}

double Histogram::Percentile(double p) const noexcept {
  const Cell& all = Folded();
  if (all.count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank target, then linear interpolation inside the bucket.
  const double target =
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(all.count)));
  std::uint64_t cumulative = 0;
  for (std::size_t bucket = 0; bucket < all.counts.size(); ++bucket) {
    if (all.counts[bucket] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += all.counts[bucket];
    if (static_cast<double>(cumulative) >= target) {
      const double fraction =
          (target - before) / static_cast<double>(all.counts[bucket]);
      const double low = BucketLow(bucket);
      const double high = bucket + 1 >= all.counts.size()
                              ? all.max  // overflow bucket: cap at observed max
                              : BucketHigh(bucket);
      const double value = low + fraction * (high - low);
      return std::clamp(value, all.min, all.max);
    }
  }
  return all.max;
}

void Histogram::Clear(Cell& cell) noexcept {
  std::fill(cell.counts.begin(), cell.counts.end(), 0);
  cell.count = 0;
  cell.sum = 0.0;
  cell.min = 0.0;
  cell.max = 0.0;
}

void Histogram::Reset() noexcept {
  for (Cell& cell : cells_) Clear(cell);
}

void Registry::EnableStriping(std::size_t lanes) {
  if (lanes_ != 0 || lanes <= 1) return;
  lanes_ = lanes;
  for (auto& [name, counter] : counters_) counter.EnableStriping(lanes);
  for (auto& [name, histogram] : histograms_) histogram.EnableStriping(lanes);
}

Counter& Registry::GetCounter(std::string_view name) {
  if (lanes_ == 0) {
    const auto it = counters_.find(name);
    if (it != counters_.end()) return it->second;
    return counters_.emplace(std::string(name), Counter{}).first->second;
  }
  std::lock_guard<std::mutex> lock(map_mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  Counter& counter = counters_.emplace(std::string(name), Counter{}).first->second;
  counter.EnableStriping(lanes_);
  return counter;
}

Gauge& Registry::GetGauge(std::string_view name) {
  if (lanes_ == 0) {
    const auto it = gauges_.find(name);
    if (it != gauges_.end()) return it->second;
    return gauges_.emplace(std::string(name), Gauge{}).first->second;
  }
  std::lock_guard<std::mutex> lock(map_mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& Registry::GetHistogram(std::string_view name, HistogramOptions options) {
  if (lanes_ == 0) {
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second;
    return histograms_.emplace(std::string(name), Histogram(options)).first->second;
  }
  std::lock_guard<std::mutex> lock(map_mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  Histogram& histogram =
      histograms_.emplace(std::string(name), Histogram(options)).first->second;
  histogram.EnableStriping(lanes_);
  return histogram;
}

std::uint64_t Registry::CounterValue(std::string_view name) const noexcept {
  if (lanes_ == 0) {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.Value();
  }
  std::lock_guard<std::mutex> lock(map_mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.Value();
}

void Registry::ResetValues() noexcept {
  for (auto& [name, counter] : counters_) counter.ResetValue();
  for (auto& [name, gauge] : gauges_) gauge = Gauge{};
  for (auto& [name, histogram] : histograms_) histogram.Reset();
}

const Histogram* Registry::FindHistogram(std::string_view name) const noexcept {
  if (lanes_ == 0) {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }
  std::lock_guard<std::mutex> lock(map_mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

}  // namespace peertrack::obs
