#include "chord/chord_node.hpp"

#include "hash/keyspace.hpp"
#include "util/logging.hpp"

namespace peertrack::chord {

ChordNode::ChordNode(sim::Network& network, std::string address, Options options)
    : network_(network),
      address_(std::move(address)),
      self_{hash::NodeKey(address_), sim::kInvalidActor},
      options_(options),
      rpc_(network),
      server_(network),
      successors_(self_.id, options.successor_list_size),
      fingers_(self_.id),
      ctr_successor_failover_(
          network.metrics().registry().GetCounter("chord.successor_failover")),
      ctr_predecessor_evicted_(
          network.metrics().registry().GetCounter("chord.predecessor_evicted")),
      ctr_lookup_hop_timeout_(
          network.metrics().registry().GetCounter("chord.lookup_hop_timeout")),
      ctr_death_cert_scrub_(
          network.metrics().registry().GetCounter("chord.death_cert_scrub")) {
  self_.actor = network_.Register(*this);
  rpc_.Bind(self_.actor);
  server_.Bind(self_.actor);
  successors_.Bind(&network_.delta_bus(), self_.actor);
  RegisterHandlers();
}

void ChordNode::RegisterHandlers() {
  server_.Handle<LookupStepRequest>(
      dispatcher_, [this](sim::ActorId, std::unique_ptr<LookupStepRequest> request) {
        return HandleLookupStep(*request);
      });
  server_.Handle<StabilizeRequest>(
      dispatcher_, [this](sim::ActorId, std::unique_ptr<StabilizeRequest>) {
        auto response = std::make_unique<StabilizeResponse>();
        if (predecessor_) {
          response->has_predecessor = true;
          response->predecessor = *predecessor_;
        }
        response->successors = successors_.Entries();
        if (options_.death_cert_ttl_ms > 0.0) {
          response->dead = FreshDeathCertificates();
        }
        return response;
      });
  server_.Handle<PingRequest>(
      dispatcher_, [this](sim::ActorId, std::unique_ptr<PingRequest>) {
        return std::make_unique<PingResponse>();
      });
  dispatcher_.On<NotifyMessage>(
      [this](sim::ActorId, std::unique_ptr<NotifyMessage> notify) {
        HandleNotify(*notify);
      });
  dispatcher_.On<LeaveNotice>(
      [this](sim::ActorId, std::unique_ptr<LeaveNotice> notice) {
        HandleLeave(*notice);
      });
  rpc_.RouteResponses<LookupStepResponse>(dispatcher_);
  rpc_.RouteResponses<StabilizeResponse>(dispatcher_);
  rpc_.RouteResponses<PingResponse>(dispatcher_);
}

NodeRef ChordNode::Successor() const noexcept {
  return successors_.Empty() ? self_ : successors_.First();
}

bool ChordNode::Owns(const Key& key) const noexcept {
  if (!predecessor_) return true;
  return key.InHalfOpenLoHi(predecessor_->id, self_.id);
}

void ChordNode::CreateRing() {
  alive_ = true;
  predecessor_.reset();
  PublishMembership();
}

void ChordNode::Join(const NodeRef& bootstrap, std::function<void()> on_joined) {
  alive_ = true;
  predecessor_.reset();
  PublishMembership();
  on_joined_ = std::move(on_joined);

  // Ask the bootstrap peer to resolve our own id; the result is our
  // successor. Driven by the standard lookup machinery with an explicit
  // first target.
  const std::uint64_t lookup_id = next_lookup_id_++;
  PendingLookup pending;
  pending.key = self_.id;
  pending.callback = [this](const NodeRef& owner, std::size_t) {
    if (!owner.Valid()) {
      util::LogWarn("join of {} failed: lookup error", self_.Describe());
      return;
    }
    successors_.Offer(owner);
    // Announce ourselves so the successor adopts us as predecessor and
    // transfers the keys we now own.
    auto notify = std::make_unique<NotifyMessage>();
    notify->candidate = self_;
    network_.Send(self_.actor, owner.actor, std::move(notify));
    if (on_joined_) {
      auto done = std::move(on_joined_);
      on_joined_ = {};
      done();
    }
  };
  pending_lookups_.emplace(lookup_id, std::move(pending));
  LookupSendStep(lookup_id, bootstrap);
}

void ChordNode::Leave() {
  if (!alive_) return;
  const NodeRef successor = Successor();
  if (successor.actor != self_.actor) {
    // Hand application state for our whole range (pred, self] to the
    // successor before we disappear.
    if (app_ != nullptr) {
      const Key lo = predecessor_ ? predecessor_->id : self_.id;
      app_->OnRangeTransfer(lo, self_.id, successor);
    }
    auto to_successor = std::make_unique<LeaveNotice>();
    to_successor->departing = self_;
    to_successor->to_successor = true;
    if (predecessor_) to_successor->replacement = *predecessor_;
    network_.Send(self_.actor, successor.actor, std::move(to_successor));

    if (predecessor_) {
      auto to_predecessor = std::make_unique<LeaveNotice>();
      to_predecessor->departing = self_;
      to_predecessor->to_successor = false;
      to_predecessor->replacement = successor;
      network_.Send(self_.actor, predecessor_->actor, std::move(to_predecessor));
    }
  }
  Crash();
}

void ChordNode::Crash() {
  alive_ = false;
  PublishMembership();
  network_.SetUp(self_.actor, false);
  rpc_.CancelAll();
  pending_lookups_.clear();
  stabilize_inflight_ = false;
  ping_inflight_ = false;
}

void ChordNode::StartMaintenance(double stabilize_every_ms, double fix_fingers_every_ms) {
  stabilize_every_ms_ = stabilize_every_ms;
  fix_fingers_every_ms_ = fix_fingers_every_ms;
  ScheduleMaintenance();
}

void ChordNode::ScheduleMaintenance() {
  // Self-timers: pin to this node's owning shard so maintenance always
  // runs where the node's state lives, regardless of which phase armed it
  // (SimulatorFor is the one simulator when un-sharded).
  sim::Simulator& sim = network_.SimulatorFor(self_.actor);
  if (stabilize_every_ms_ > 0.0) {
    sim.ScheduleAfter(stabilize_every_ms_, [this] {
      if (alive_) DoStabilize();
    });
  }
  if (fix_fingers_every_ms_ > 0.0) {
    sim.ScheduleAfter(fix_fingers_every_ms_, [this] { DoFixFingers(); });
  }
}

void ChordNode::DoStabilize() {
  // Re-arm the periodic timer first so every exit path keeps the loop
  // alive.
  if (stabilize_every_ms_ > 0.0) {
    network_.SimulatorFor(self_.actor).ScheduleAfter(stabilize_every_ms_, [this] {
      if (alive_) DoStabilize();
    });
  }
  const NodeRef successor = Successor();
  if (successor.actor == self_.actor) {
    // Degenerate self-successor (first node of a ring). Standard stabilize
    // asks successor.predecessor — which here is our own predecessor — and
    // adopts it, closing the two-node loop after the first join.
    if (predecessor_ && predecessor_->actor != self_.actor) {
      successors_.Offer(*predecessor_);
      auto notify = std::make_unique<NotifyMessage>();
      notify->candidate = self_;
      network_.Send(self_.actor, predecessor_->actor, std::move(notify));
    }
    return;
  }
  DoCheckPredecessor();
  if (stabilize_inflight_) return;  // One in flight at a time.

  stabilize_inflight_ = true;
  stabilize_target_ = successor;
  rpc_.Call<StabilizeResponse>(
      successor.actor, std::make_unique<StabilizeRequest>(), options_.rpc,
      [this](rpc::Status status, std::unique_ptr<StabilizeResponse> response) {
        stabilize_inflight_ = false;
        if (!alive_) return;
        if (status != rpc::Status::kOk) {
          // Successor did not answer across all retries: consider it dead
          // and fail over to the next successor-list entry.
          EvictPeer(stabilize_target_);
          ctr_successor_failover_.Add();
          if (obs::FlightRecorder* recorder = network_.recorder()) {
            recorder->RecordProtocol(obs::RecEvent::kSuccessorFailover,
                                     self_.actor, stabilize_target_.actor, {},
                                     false);
          }
          return;
        }
        HandleStabilizeResponse(*response);
      });
}

void ChordNode::DoCheckPredecessor() {
  // Chord's check_predecessor(): probe the predecessor so a crashed one is
  // eventually cleared and the true predecessor's notify can land.
  if (!predecessor_ || ping_inflight_) return;
  ping_inflight_ = true;
  ping_target_ = *predecessor_;
  rpc_.Call<PingResponse>(
      predecessor_->actor, std::make_unique<PingRequest>(), options_.rpc,
      [this](rpc::Status status, std::unique_ptr<PingResponse>) {
        ping_inflight_ = false;
        if (!alive_) return;
        if (status != rpc::Status::kOk) {
          EvictPeer(ping_target_);
          ctr_predecessor_evicted_.Add();
        }
      });
}

void ChordNode::DoFixFingers() {
  if (!alive_) return;
  // Refresh one finger per round; consecutive fingers that fall inside the
  // resolved node's range are filled in the callback without extra lookups.
  const unsigned index = next_finger_;
  next_finger_ = (next_finger_ + 1) % FingerTable::kBits;
  Lookup(fingers_.Start(index), [this, index](const NodeRef& owner, std::size_t) {
    if (!owner.Valid() || IsConfirmedDead(owner)) return;
    fingers_.Set(index, owner);
    PublishDelta(
        obs::StateDelta::Ring(obs::DeltaKind::kRingFinger, self_.actor));
    for (unsigned j = index + 1; j < FingerTable::kBits; ++j) {
      if (fingers_.Start(j).InHalfOpenLoHi(self_.id, owner.id)) {
        fingers_.Set(j, owner);
        PublishDelta(
            obs::StateDelta::Ring(obs::DeltaKind::kRingFinger, self_.actor));
        next_finger_ = (j + 1) % FingerTable::kBits;
      } else {
        break;
      }
    }
  });
  if (fix_fingers_every_ms_ > 0.0) {
    network_.SimulatorFor(self_.actor)
        .ScheduleAfter(fix_fingers_every_ms_, [this] { DoFixFingers(); });
  }
}

void ChordNode::AdoptPredecessor(const NodeRef& candidate) {
  if (candidate.actor == self_.actor || IsConfirmedDead(candidate)) return;
  if (!predecessor_ || candidate.id.InOpenInterval(predecessor_->id, self_.id)) {
    const std::optional<NodeRef> old = predecessor_;
    predecessor_ = candidate;
    PublishNeighbors();
    // Keys in (old_pred, candidate] are no longer ours; let the app ship
    // its state to the new owner. With no previous predecessor we were
    // nominally responsible for the whole ring, so the transferred span is
    // (self, candidate] — everything except our own arc.
    if (app_ != nullptr) {
      const Key lo = old ? old->id : self_.id;
      app_->OnRangeTransfer(lo, candidate.id, candidate);
    }
    NotifyNeighborhoodChanged();
  }
}

void ChordNode::EvictPeer(const NodeRef& peer) {
  const bool fresh = confirmed_dead_.insert(peer.actor).second;
  if (fresh && options_.death_cert_ttl_ms > 0.0) {
    death_certs_.push_back(
        DeathCertificate{peer, network_.simulator().Now()});
  }
  const bool removed = successors_.Remove(peer);
  fingers_.Evict(peer);
  const bool was_predecessor =
      predecessor_ && predecessor_->actor == peer.actor;
  if (was_predecessor) {
    predecessor_.reset();
    PublishNeighbors();
  }
  if (fresh || removed || was_predecessor) NotifyNeighborhoodChanged();
}

void ChordNode::AdoptDeathCertificate(const DeathCertificate& cert) {
  if (cert.node.actor == self_.actor) return;  // Rumours of our own death.
  if (IsConfirmedDead(cert.node)) return;      // Already merged.
  const double now = network_.simulator().Now();
  if (now - cert.issued_ms > options_.death_cert_ttl_ms) return;  // Expired.
  ctr_death_cert_scrub_.Add();
  confirmed_dead_.insert(cert.node.actor);
  // Keep the original timestamp so the certificate dies ring-wide at
  // issued + TTL instead of being refreshed forever hop by hop.
  death_certs_.push_back(cert);
  const bool removed = successors_.Remove(cert.node);
  fingers_.Evict(cert.node);
  const bool was_predecessor =
      predecessor_ && predecessor_->actor == cert.node.actor;
  if (was_predecessor) {
    predecessor_.reset();
    PublishNeighbors();
  }
  if (removed || was_predecessor) NotifyNeighborhoodChanged();
}

const std::vector<DeathCertificate>& ChordNode::FreshDeathCertificates() {
  const double now = network_.simulator().Now();
  std::erase_if(death_certs_, [&](const DeathCertificate& cert) {
    return now - cert.issued_ms > options_.death_cert_ttl_ms;
  });
  return death_certs_;
}

void ChordNode::NotifyNeighborhoodChanged() {
  if (app_ != nullptr && alive_) app_->OnNeighborhoodChanged();
}

ChordNode::RouteStep ChordNode::NextRouteStep(const Key& key) const {
  RouteStep step;
  const NodeRef successor = Successor();
  if (successor.actor == self_.actor || key.InHalfOpenLoHi(self_.id, successor.id)) {
    step.done = true;
    step.node = successor;
    return step;
  }
  if (const auto finger = fingers_.ClosestPreceding(key)) {
    // A finger may overshoot the tightest predecessor but never the key.
    step.node = *finger;
    // Successor-list entries can be closer than the best finger.
    for (const auto& entry : successors_.Entries()) {
      if (entry.id.InOpenInterval(step.node.id, key)) step.node = entry;
    }
    step.done = false;
    return step;
  }
  // No usable finger: fall back to the last successor-list entry preceding
  // the key, or the immediate successor.
  step.node = successor;
  for (const auto& entry : successors_.Entries()) {
    if (entry.id.InOpenInterval(self_.id, key)) step.node = entry;
  }
  step.done = false;
  return step;
}

void ChordNode::OnMessage(sim::ActorId from, std::unique_ptr<sim::Message> message) {
  if (!alive_) return;
  if (dispatcher_.Dispatch(from, message)) return;
  if (app_ != nullptr) {
    app_->OnAppMessage(from, std::move(message));
    return;
  }
  util::LogWarn("{}: unhandled message {}", self_.Describe(), message->TypeName());
}

void ChordNode::HandleStabilizeResponse(const StabilizeResponse& response) {
  // Merge gossiped death certificates first: they scrub crashed nodes out
  // of deep successor-list slots this node never probes directly, and the
  // eviction must precede the list merge below or the same response could
  // re-offer a peer it certifies dead.
  if (options_.death_cert_ttl_ms > 0.0) {
    for (const auto& cert : response.dead) AdoptDeathCertificate(cert);
  }
  bool changed = false;
  if (response.has_predecessor && !IsConfirmedDead(response.predecessor) &&
      response.predecessor.id.InOpenInterval(self_.id, stabilize_target_.id)) {
    // A node sits between us and our successor: adopt it.
    changed |= successors_.Offer(response.predecessor);
  }
  // Merge the successor's list, filtering peers we know to be dead —
  // otherwise stale gossip would resurrect them indefinitely.
  for (const auto& peer : response.successors) {
    if (!IsConfirmedDead(peer)) changed |= successors_.Offer(peer);
  }
  // New entries in the successor set matter to replication layers (the
  // first R entries are the replica set); evictions already notify.
  if (changed) NotifyNeighborhoodChanged();

  const NodeRef successor = Successor();
  if (successor.actor != self_.actor) {
    auto notify = std::make_unique<NotifyMessage>();
    notify->candidate = self_;
    network_.Send(self_.actor, successor.actor, std::move(notify));
  }
}

void ChordNode::HandleNotify(const NotifyMessage& notify) {
  AdoptPredecessor(notify.candidate);
}

void ChordNode::HandleLeave(const LeaveNotice& notice) {
  EvictPeer(notice.departing);
  if (notice.to_successor) {
    // Our predecessor left; its predecessor is our new one.
    if (notice.replacement.Valid()) AdoptPredecessor(notice.replacement);
  } else {
    // Our successor left; adopt its successor.
    if (notice.replacement.Valid()) successors_.Offer(notice.replacement);
  }
}

void ChordNode::OracleWire(std::optional<NodeRef> predecessor,
                           std::vector<NodeRef> successor_list) {
  alive_ = true;
  predecessor_ = std::move(predecessor);
  successors_.Assign(std::move(successor_list));
  PublishMembership();
  PublishNeighbors();
}

}  // namespace peertrack::chord
