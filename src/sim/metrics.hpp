#pragma once
// Message and cost accounting for simulations.
//
// The paper's headline metric is "indexing cost, measured by the total
// volume of messages transferred over the network" (Section V-A); queries
// are measured in simulated milliseconds. The network records every remote
// message here, and protocol layers record hop counts, named counters and
// latency samples through the same object, so every bench reads cost
// identically.
//
// One store: every tally lives in the embedded obs::Registry. Each message
// type gets the counters `msg.count:<type>`, `msg.bytes:<type>`,
// `drop.loss:<type>`, `drop.down:<type>`, `rpc.retry:<type>` and
// `rpc.timeout:<type>`, created on that kind's first event; the hot path
// caches each obs::Counter* per (MsgTypeId, kind) in a fixed array of
// atomics. Totals are sums over those families and lookup hops are the
// `chord.lookup_hops` histogram. Sharded runs stripe the registry; the
// per-actor received-bytes array is the only lane-private state, summed
// when read. Instruments never move, so hot loops may cache
// `obs::Counter&`; Reset() zeroes values in place.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"

namespace peertrack::sim {

class Message;

using ActorId = std::uint32_t;
constexpr ActorId kInvalidActor = 0xFFFFFFFFu;

class Metrics {
 public:
  struct TypeCounter {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };

  /// Why a message never reached its destination's OnMessage.
  enum class DropReason {
    kLoss,       ///< Lost on the wire (Network::SetLossRate injection).
    kDownActor,  ///< Destination was down at delivery time.
  };

  Metrics();

  /// Record a remote message and its total wire size, credited to the
  /// receiver `to`.
  void RecordMessage(const Message& message, std::size_t bytes, ActorId to);
  /// The same for a synthetic charge type without a Message class (cost
  /// modeling). Resolves the counters by name; keep off per-event paths.
  void RecordMessage(std::string_view type, std::size_t bytes, ActorId to);

  /// Record a dropped message, attributed to its cause.
  void RecordDrop(const Message& message, DropReason reason) {
    PerType(message, reason == DropReason::kLoss ? kDropLoss : kDropDown).Add(1);
  }
  /// One RPC attempt re-sent after an unanswered deadline.
  void RecordRpcRetry(const Message& request) { PerType(request, kRpcRetry).Add(1); }
  /// One RPC that exhausted its attempts and failed to its caller.
  void RecordRpcTimeout(const Message& request) {
    PerType(request, kRpcTimeout).Add(1);
  }
  /// The hop count of one completed DHT lookup.
  void RecordLookupHops(std::size_t hops) {
    lookup_hops_->Add(static_cast<double>(hops));
  }
  /// A latency sample (simulated ms) for the histogram `latency:<name>`,
  /// e.g. RecordLatency("query.trace_ms", 37.0).
  void RecordLatency(std::string_view name, double ms) {
    LatencyHistogram(name).Add(ms);
  }
  /// Bump a named counter (protocol events that are not messages). Per-event
  /// hot paths should cache `registry().GetCounter(name)` once instead.
  void Bump(std::string_view counter, std::uint64_t by = 1) {
    registry_.GetCounter(counter).Add(by);
  }

  /// Prepare for `lanes` writer threads (the sharded kernel): stripes the
  /// registry and gives each lane its own received-bytes array. Read only
  /// while workers are parked. Call before workers start; idempotent.
  void EnableLanes(std::size_t lanes);

  std::uint64_t TotalMessages() const noexcept { return SumOf(kCount); }
  std::uint64_t TotalBytes() const noexcept { return SumOf(kBytes); }
  /// All drops regardless of cause.
  std::uint64_t DroppedMessages() const noexcept {
    return DroppedByLoss() + DroppedToDownActor();
  }
  std::uint64_t DroppedByLoss() const noexcept { return SumOf(kDropLoss); }
  std::uint64_t DroppedToDownActor() const noexcept { return SumOf(kDropDown); }
  std::uint64_t RpcRetries() const noexcept { return SumOf(kRpcRetry); }
  std::uint64_t RpcTimeouts() const noexcept { return SumOf(kRpcTimeout); }

  /// Count/bytes for one message type (zeroes when never seen).
  TypeCounter ForType(std::string_view type) const;

  /// Every message type with at least one message, sorted by name.
  std::map<std::string, TypeCounter, std::less<>> ByType() const;

  /// Value of the registry counter `name`, 0 when never created.
  std::uint64_t Counter(std::string_view name) const {
    return registry_.CounterValue(name);
  }

  /// The registry holding every tally above; protocol layers and benches
  /// register their own instruments here too.
  obs::Registry& registry() noexcept { return registry_; }
  const obs::Registry& registry() const noexcept { return registry_; }

  /// Latency histogram named `latency:<name>` (created on first use; same
  /// instrument RecordLatency feeds).
  obs::Histogram& LatencyHistogram(std::string_view name);

  /// The `chord.lookup_hops` histogram (exact count, sum and max).
  const obs::Histogram& LookupHops() const noexcept { return *lookup_hops_; }

  /// Wire bytes received per actor (index = ActorId; shorter than the actor
  /// count if high ids never received traffic), credited at send time, so
  /// lost messages and synthetic charges count. Byte-level load is what
  /// the paper's Fig. 8 balance argument is about.
  std::vector<std::uint64_t> ReceivedBytesPerActor() const;

  /// Zero every value in place (warm-up/measure boundary); references
  /// cached from registry() stay valid.
  void Reset();

  /// Rows for util::CsvWriter: a ("metric", "value") header, then one row
  /// per total, per-type count/bytes, non-zero registry counter, gauge and
  /// histogram statistic. Benches append these to their sweep CSVs.
  std::vector<std::vector<std::string>> CsvRows() const;

  /// CsvRows() as aligned "metric value" lines, for humans.
  std::string Summary() const;

 private:
  /// The per-type counter families, in the order of kKindPrefix.
  enum Kind : std::size_t {
    kCount, kBytes, kDropLoss, kDropDown, kRpcRetry, kRpcTimeout, kKinds
  };
  /// MsgTypeIds covered by the counter cache (far above any real type
  /// count; ids past it resolve by name on every event).
  static constexpr std::size_t kMaxCachedTypes = 256;

  /// The `kind` counter of `message`'s type, cached per MsgTypeId. Shards
  /// may race a first event; GetCounter is idempotent, so stores agree.
  obs::Counter& PerType(const Message& message, Kind kind);
  /// Sum of every counter of one family.
  std::uint64_t SumOf(Kind kind) const noexcept;
  void CreditReceiver(ActorId to, std::size_t bytes);

  obs::Registry registry_;
  obs::Histogram* lookup_hops_;
  /// type_counters_[id * kKinds + kind]; null until that kind's first event.
  std::unique_ptr<std::atomic<obs::Counter*>[]> type_counters_;
  struct alignas(64) Lane {
    std::vector<std::uint64_t> received_bytes;
  };
  /// One per writer thread (obs lane); a single lane when un-sharded.
  std::vector<Lane> lanes_;
};

}  // namespace peertrack::sim
