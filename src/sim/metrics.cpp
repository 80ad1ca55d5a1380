#include "sim/metrics.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/lane.hpp"
#include "sim/network.hpp"
#include "util/format.hpp"

namespace peertrack::sim {

namespace {

/// Counter-name prefix of each per-type family, indexed by Metrics::Kind.
constexpr std::array<std::string_view, 6> kKindPrefix = {
    "msg.count:", "msg.bytes:", "drop.loss:",
    "drop.down:", "rpc.retry:", "rpc.timeout:"};

std::string CounterName(std::size_t kind, std::string_view type) {
  return util::Format("{}{}", kKindPrefix[kind], type);
}

/// Calls fn(type, counter) for every registry counter named `prefix<type>`.
template <typename Fn>
void ForEachOfFamily(const obs::Registry& registry, std::string_view prefix,
                     Fn&& fn) {
  const auto& counters = registry.counters();
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.starts_with(prefix); ++it) {
    fn(std::string_view(it->first).substr(prefix.size()), it->second);
  }
}

}  // namespace

Metrics::Metrics()
    // Hops are small integers: a min bound of 1 gives each its own bucket.
    : lookup_hops_(&registry_.GetHistogram(
          "chord.lookup_hops", {.min_bound = 1.0, .buckets_per_octave = 4,
                                .max_buckets = 48})),
      type_counters_(std::make_unique<std::atomic<obs::Counter*>[]>(
          kMaxCachedTypes * kKinds)),
      lanes_(1) {
  static_assert(kKindPrefix.size() == kKinds);
}

void Metrics::EnableLanes(std::size_t lanes) {
  if (lanes_.size() > 1 || lanes <= 1) return;
  registry_.EnableStriping(lanes);
  lanes_.resize(lanes);
}

obs::Counter& Metrics::PerType(const Message& message, Kind kind) {
  const MsgTypeId id = message.TypeId();
  if (id >= kMaxCachedTypes) {
    return registry_.GetCounter(CounterName(kind, message.TypeName()));
  }
  std::atomic<obs::Counter*>& slot = type_counters_[id * kKinds + kind];
  obs::Counter* counter = slot.load();
  if (counter == nullptr) {
    counter = &registry_.GetCounter(CounterName(kind, message.TypeName()));
    slot.store(counter);
  }
  return *counter;
}

std::uint64_t Metrics::SumOf(Kind kind) const noexcept {
  std::uint64_t total = 0;
  ForEachOfFamily(registry_, kKindPrefix[kind],
                  [&](std::string_view, const obs::Counter& counter) {
                    total += counter.Value();
                  });
  return total;
}

void Metrics::CreditReceiver(ActorId to, std::size_t bytes) {
  if (to == kInvalidActor) return;
  std::vector<std::uint64_t>& received =
      lanes_[lanes_.size() > 1 ? obs::CurrentLane() : 0].received_bytes;
  if (received.size() <= to) received.resize(to + 1, 0);
  received[to] += bytes;
}

void Metrics::RecordMessage(const Message& message, std::size_t bytes,
                            ActorId to) {
  PerType(message, kCount).Add(1);
  PerType(message, kBytes).Add(bytes);
  CreditReceiver(to, bytes);
}

void Metrics::RecordMessage(std::string_view type, std::size_t bytes,
                            ActorId to) {
  registry_.GetCounter(CounterName(kCount, type)).Add(1);
  registry_.GetCounter(CounterName(kBytes, type)).Add(bytes);
  CreditReceiver(to, bytes);
}

obs::Histogram& Metrics::LatencyHistogram(std::string_view name) {
  return registry_.GetHistogram(util::Format("latency:{}", name));
}

Metrics::TypeCounter Metrics::ForType(std::string_view type) const {
  return {registry_.CounterValue(CounterName(kCount, type)),
          registry_.CounterValue(CounterName(kBytes, type))};
}

std::map<std::string, Metrics::TypeCounter, std::less<>> Metrics::ByType() const {
  std::map<std::string, TypeCounter, std::less<>> out;
  ForEachOfFamily(registry_, kKindPrefix[kCount],
                  [&](std::string_view type, const obs::Counter& counter) {
                    if (counter.Value() != 0) out.emplace(type, ForType(type));
                  });
  return out;
}

std::vector<std::uint64_t> Metrics::ReceivedBytesPerActor() const {
  std::vector<std::uint64_t> total;
  for (const Lane& lane : lanes_) {
    const std::vector<std::uint64_t>& received = lane.received_bytes;
    total.resize(std::max(total.size(), received.size()), 0);
    for (std::size_t i = 0; i < received.size(); ++i) total[i] += received[i];
  }
  return total;
}

void Metrics::Reset() {
  registry_.ResetValues();
  for (Lane& lane : lanes_) lane.received_bytes.clear();
}

std::string Metrics::Summary() const {
  std::string out;
  const auto rows = CsvRows();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    out += util::Format("  {:<40} {}\n", rows[i][0], rows[i][1]);
  }
  return out;
}

std::vector<std::vector<std::string>> Metrics::CsvRows() const {
  std::vector<std::vector<std::string>> rows = {
      {"metric", "value"},
      {"total_messages", std::to_string(TotalMessages())},
      {"total_bytes", std::to_string(TotalBytes())},
      {"dropped", std::to_string(DroppedMessages())},
      {"dropped_loss", std::to_string(DroppedByLoss())},
      {"dropped_down_actor", std::to_string(DroppedToDownActor())},
      {"rpc_retries", std::to_string(RpcRetries())},
      {"rpc_timeouts", std::to_string(RpcTimeouts())}};
  for (const auto& [type, counter] : ByType()) {
    rows.push_back({util::Format("count:{}", type), std::to_string(counter.count)});
    rows.push_back({util::Format("bytes:{}", type), std::to_string(counter.bytes)});
  }
  for (const auto& [name, counter] : registry_.counters()) {
    if (counter.Value() == 0) continue;
    rows.push_back({util::Format("counter:{}", name),
                    std::to_string(counter.Value())});
  }
  for (const auto& [name, gauge] : registry_.gauges()) {
    rows.push_back({util::Format("gauge:{}", name),
                    util::Format("{:.6f}", gauge.Value())});
  }
  for (const auto& [name, histogram] : registry_.histograms()) {
    if (histogram.Count() == 0) continue;
    rows.push_back({util::Format("hist:{}:count", name),
                    std::to_string(histogram.Count())});
    for (const auto& [stat, value] :
         {std::pair{"p50", histogram.P50()}, std::pair{"p95", histogram.P95()},
          std::pair{"p99", histogram.P99()}, std::pair{"max", histogram.Max()}}) {
      rows.push_back({util::Format("hist:{}:{}", name, stat),
                      util::Format("{:.4f}", value)});
    }
  }
  return rows;
}

}  // namespace peertrack::sim
