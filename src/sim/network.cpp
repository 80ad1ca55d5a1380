#include "sim/network.hpp"

#include <algorithm>
#include <atomic>

#include "util/logging.hpp"

namespace peertrack::sim {

namespace detail {

MsgTypeId AllocateMsgTypeId() noexcept {
  static std::atomic<MsgTypeId> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

Network::Network(Simulator& simulator, LatencyModel& latency,
                 std::uint64_t seed, std::size_t shards)
    : latency_(latency),
      engine_(simulator, shards, latency.Floor()),
      seed_(seed) {
  delivery_scopes_ =
      std::make_unique<std::atomic<obs::ProfScopeId>[]>(kMaxDeliveryScopes);
  for (std::size_t i = 0; i < kMaxDeliveryScopes; ++i) {
    delivery_scopes_[i].store(obs::kInvalidProfScope,
                              std::memory_order_relaxed);
  }
  // Metrics and the delta bus grow per-lane state for the shard threads
  // (no-ops at S=1).
  metrics_.EnableLanes(shards);
  delta_bus_.EnableLanes(shards);
}

ActorId Network::Register(Actor& actor) {
  actors_.push_back(Slot{&actor, true});
  const auto id = static_cast<ActorId>(actors_.size() - 1);
  actor_rngs_.emplace_back(ActorSeed(id));
  return id;
}

obs::ProfScopeId Network::DeliveryScope(const Message& message) {
  const MsgTypeId type = message.TypeId();
  if (type >= kMaxDeliveryScopes) return obs::kInvalidProfScope;
  obs::ProfScopeId scope =
      delivery_scopes_[type].load(std::memory_order_relaxed);
  if (scope == obs::kInvalidProfScope) {
    scope = obs::Profiler::Intern("deliver", message.TypeName());
    delivery_scopes_[type].store(scope, std::memory_order_relaxed);
  }
  return scope;
}

void Network::Deliver(ActorId from, ActorId to,
                      std::unique_ptr<Message> msg) {
  Slot& slot = actors_[to];
  if (!slot.up || slot.actor == nullptr) {
    metrics_.RecordDrop(*msg, Metrics::DropReason::kDownActor);
    if (recorder_ != nullptr && from != to) {
      recorder_->RecordMessage(obs::RecEvent::kMsgDrop, to, from,
                               msg->TypeId());
    }
    return;
  }
  if (recorder_ != nullptr && from != to) {
    recorder_->RecordMessage(obs::RecEvent::kMsgRecv, to, from,
                             msg->TypeId());
  }
  PROF_SCOPE_ID(DeliveryScope(*msg));
  slot.actor->OnMessage(from, std::move(msg));
}

void Network::ScheduleOn(ActorId to, double delay,
                         util::UniqueFunction<void()> action) {
  const std::uint32_t dst = engine_.ShardOf(to);
  const Time at = engine_.CurrentSim().Now() + delay;
  if (engine_.InParallelSection() && dst != engine_.CurrentShard()) {
    engine_.StageCrossShard(dst, at, std::move(action));
  } else {
    // Same shard mid-window, or the coordinator phase (workers parked):
    // inject directly into the owner shard's queue.
    engine_.SimOf(dst).ScheduleAt(at, std::move(action));
  }
}

void Network::Send(ActorId from, ActorId to, std::unique_ptr<Message> message) {
  if (to >= actors_.size()) {
    util::LogWarn("Send to unknown actor {}", to);
    return;
  }
  double delay = 0.0;
  if (from != to) {
    util::Rng& rng = ActorRng(from);
    delay = latency_.Sample(rng);
    const std::size_t bytes = kMessageHeaderBytes + message->ApproxBytes();
    metrics_.RecordMessage(*message, bytes, to);
    if (tracer_.Enabled()) {
      // The tracer is single-threaded; sharded runs keep it disabled.
      tracer_.RecordMessage(simulator().Now(), from, to, message->TypeName(),
                            bytes, message->trace);
    }
    if (recorder_ != nullptr) {
      recorder_->RegisterTypeName(message->TypeId(), message->TypeName());
      recorder_->RecordMessage(obs::RecEvent::kMsgSend, from, to,
                               message->TypeId());
    }
    if (loss_rate_ > 0.0 && rng.NextBool(loss_rate_)) {
      metrics_.RecordDrop(*message, Metrics::DropReason::kLoss);
      if (recorder_ != nullptr) {
        recorder_->RecordMessage(obs::RecEvent::kMsgDrop, to, from,
                                 message->TypeId());
      }
      return;  // Lost on the wire; the sender still paid for it.
    }
  }
  ScheduleOn(to, delay, [this, from, to, msg = std::move(message)]() mutable {
    Deliver(from, to, std::move(msg));
  });
}

void Network::SetUp(ActorId id, bool up) {
  if (id < actors_.size()) actors_[id].up = up;
}

bool Network::IsUp(ActorId id) const {
  return id < actors_.size() && actors_[id].up;
}

void Network::SetLossRate(double probability) {
  loss_rate_ = std::clamp(probability, 0.0, 1.0);
}

void Network::EnableRecorder(std::size_t events_per_actor) {
  if (recorder_ != nullptr || events_per_actor == 0) return;
  recorder_ = std::make_unique<obs::FlightRecorder>(events_per_actor);
  delta_bus_.AttachRecorder(recorder_.get());
  const std::size_t lanes = engine_.ShardCount();
  recorder_->EnableLanes(lanes);
  for (std::uint32_t s = 0; s < lanes; ++s) {
    recorder_->BindClock(engine_.SimOf(s).NowPtr(), s);
  }
}

}  // namespace peertrack::sim
