// Query processing (paper Section IV-B).
//
// A trace query routes iteratively toward the object's gateway key. Each
// probed hop may intercept the query if it has IOP state for the object
// (Section III: "if any node along the route ... has the information of the
// object, the trace query can be processed from this node"). Once an
// answering node is found, the querying node walks the distributed
// doubly-linked IOP list: backward along `from` links to the first
// appearance, then forward along `to` links to the current location.
//
// Every probe and walk step is an RPC (TrackerConfig::rpc policy): lost
// messages are retried with backoff, and a hop that exhausts its retries
// fails the query (probe phase) or completes it with the steps collected
// so far (walk phase) — queries never hang on loss or dead nodes.

#include "tracking/tracker_node.hpp"
#include "util/format.hpp"
#include "util/logging.hpp"

namespace peertrack::tracking {

namespace {

chord::Key RoutingTargetFor(IndexingMode mode, const hash::UInt160& object,
                            unsigned lp) {
  if (mode == IndexingMode::kIndividual) return object;
  return hash::GroupKey(hash::Prefix::OfKey(object, lp));
}

}  // namespace

void TrackerNode::TraceQuery(const hash::UInt160& object, TraceCallback callback) {
  PendingQuery query;
  query.object = object;
  query.locate_only = false;
  query.trace_callback = std::move(callback);
  StartQuery(object, std::move(query));
}

void TrackerNode::LocateQuery(const hash::UInt160& object, LocateCallback callback) {
  PendingQuery query;
  query.object = object;
  query.locate_only = true;
  query.locate_callback = std::move(callback);
  StartQuery(object, std::move(query));
}

void TrackerNode::StartQuery(const hash::UInt160& object, PendingQuery query) {
  query.target = RoutingTargetFor(config_.mode, object, CurrentLp());
  query.issued_at = chord_.network().simulator().Now();
  obs::Tracer& tracer = chord_.network().tracer();
  if (tracer.Enabled()) {
    query.span = tracer.StartTrace(
        query.locate_only ? "query.locate" : "query.trace", Self().actor,
        query.issued_at);
  }
  const obs::ScopedLogTrace log_scope(query.span);
  const std::uint64_t query_id = next_query_id_++;
  if (config_.query_timeout_ms > 0.0) {
    query.timeout = chord_.network().simulator().ScheduleAfter(
        config_.query_timeout_ms, [this, query_id] {
          if (queries_.contains(query_id)) {
            ctr_query_timeout_.Add();
            FinishQuery(query_id, false);
          }
        });
  }

  // Local interception: the issuing node may have witnessed the object
  // itself (trace queries only — locate needs the authoritative latest).
  if (!query.locate_only && iop_.Knows(object)) {
    const auto* visits = iop_.VisitsOf(object);
    const moods::Time arrived = visits->back().arrived;
    tracer.AddEvent(query.span, "iop.local", Self().actor, query.issued_at);
    queries_.emplace(query_id, std::move(query));
    BeginWalk(query_id, Self(), arrived);
    return;
  }
  // Local gateway: the issuing node may own the target key.
  if (chord_.Owns(query.target)) {
    tracer.AddEvent(query.span, "gateway.read.local", Self().actor,
                    query.issued_at);
    const IndexEntry* entry = config_.mode == IndexingMode::kIndividual
                                  ? individual_.Find(object)
                                  : TriangleLookup(object, CurrentLp());
    if (entry == nullptr && config_.replicate_index) entry = ReplicaLookup(object);
    if (entry == nullptr) {
      queries_.emplace(query_id, std::move(query));
      FinishQuery(query_id, false);
      return;
    }
    const chord::NodeRef latest_node = entry->latest_node;
    const moods::Time latest_arrived = entry->latest_arrived;
    queries_.emplace(query_id, std::move(query));
    if (queries_.at(query_id).locate_only) {
      auto& q = queries_.at(query_id);
      q.steps.emplace(latest_arrived, latest_node);
      FinishQuery(query_id, true);
      return;
    }
    BeginWalk(query_id, latest_node, latest_arrived);
    return;
  }

  const auto step = chord_.NextRouteStep(query.target);
  queries_.emplace(query_id, std::move(query));
  ProbeStep(query_id, step.node);
}

void TrackerNode::ProbeStep(std::uint64_t query_id, const chord::NodeRef& target_node) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  PendingQuery& query = it->second;
  constexpr std::size_t kMaxProbeSteps = 128;  // Query routing safety valve.
  if (query.probe_steps >= kMaxProbeSteps) {
    util::LogWarn("query for {} exceeded probe budget", query.object.ToShortHex());
    FinishQuery(query_id, false);
    return;
  }
  ++query.probe_steps;
  query.probe_current = target_node;

  obs::Tracer& tracer = chord_.network().tracer();
  if (tracer.Enabled() && query.span.Valid()) {
    query.stage = tracer.StartSpan(
        query.span, util::Format("query.probe#{}", query.probe_steps),
        Self().actor, chord_.network().simulator().Now());
  }
  const obs::ScopedLogTrace log_scope(query.span);
  auto probe = std::make_unique<TraceProbe>();
  probe->object = query.object;
  probe->routing_target = query.target;
  probe->allow_intercept = !query.locate_only;
  probe->trace = query.stage;
  query.call = rpc_.Call<TraceProbeReply>(
      target_node.actor, std::move(probe), config_.rpc,
      [this, query_id](rpc::Status status,
                       std::unique_ptr<TraceProbeReply> reply) {
        if (status == rpc::Status::kOk) {
          HandleProbeReply(query_id, *reply);
        } else {
          HandleProbeTimeout(query_id);
        }
      });
}

std::unique_ptr<TraceProbeReply> TrackerNode::HandleProbe(const TraceProbe& probe) {
  auto reply = std::make_unique<TraceProbeReply>();
  obs::Tracer& tracer = chord_.network().tracer();
  const double now = chord_.network().simulator().Now();
  const obs::ScopedLogTrace log_scope(probe.trace);

  if (probe.allow_intercept && iop_.Knows(probe.object)) {
    const auto* visits = iop_.VisitsOf(probe.object);
    reply->kind = TraceProbeReply::Kind::kHasIop;
    reply->node = Self();
    reply->arrived = visits->back().arrived;
    tracer.AddEvent(probe.trace, "iop.intercept", Self().actor, now);
  } else if (chord_.Owns(probe.routing_target)) {
    const IndexEntry* entry = config_.mode == IndexingMode::kIndividual
                                  ? individual_.Find(probe.object)
                                  : TriangleLookup(probe.object, CurrentLp());
    if (entry == nullptr && config_.replicate_index) {
      entry = ReplicaLookup(probe.object);
      if (entry != nullptr) {
        ctr_replica_hit_.Add();
      }
    }
    if (entry != nullptr) {
      reply->kind = TraceProbeReply::Kind::kGatewayHit;
      reply->node = entry->latest_node;
      reply->arrived = entry->latest_arrived;
      tracer.AddEvent(probe.trace, "gateway.read", Self().actor, now);
    } else {
      reply->kind = TraceProbeReply::Kind::kNotFound;
      tracer.AddEvent(probe.trace, "gateway.miss", Self().actor, now);
    }
  } else {
    const auto step = chord_.NextRouteStep(probe.routing_target);
    if (step.node.actor == Self().actor) {
      // Cannot make progress (immature routing state): declare not found
      // rather than loop.
      reply->kind = TraceProbeReply::Kind::kNotFound;
    } else {
      reply->kind = TraceProbeReply::Kind::kNextHop;
      reply->node = step.node;
    }
  }
  return reply;
}

void TrackerNode::HandleProbeReply(std::uint64_t query_id,
                                   const TraceProbeReply& reply) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  PendingQuery& query = it->second;

  {
    obs::Tracer& tracer = chord_.network().tracer();
    const double now = chord_.network().simulator().Now();
    switch (reply.kind) {
      case TraceProbeReply::Kind::kNextHop:
        tracer.EndSpan(query.stage, now, "next-hop");
        break;
      case TraceProbeReply::Kind::kNotFound:
        tracer.EndSpan(query.stage, now, "not-found");
        break;
      case TraceProbeReply::Kind::kHasIop:
        tracer.EndSpan(query.stage, now, "iop-hit");
        break;
      case TraceProbeReply::Kind::kGatewayHit:
        tracer.EndSpan(query.stage, now, "gateway-hit");
        break;
    }
    query.stage = obs::TraceContext{};
  }
  const obs::ScopedLogTrace log_scope(query.span);

  switch (reply.kind) {
    case TraceProbeReply::Kind::kNextHop:
      if (reply.node.actor == query.probe_current.actor) {
        FinishQuery(query_id, false);
        return;
      }
      ProbeStep(query_id, reply.node);
      return;
    case TraceProbeReply::Kind::kNotFound:
      FinishQuery(query_id, false);
      return;
    case TraceProbeReply::Kind::kHasIop:
      // Locate queries set allow_intercept=false, so this only occurs for
      // trace queries.
      BeginWalk(query_id, reply.node, reply.arrived);
      return;
    case TraceProbeReply::Kind::kGatewayHit:
      if (query.locate_only) {
        query.steps.emplace(reply.arrived, reply.node);
        FinishQuery(query_id, true);
        return;
      }
      BeginWalk(query_id, reply.node, reply.arrived);
      return;
  }
}

void TrackerNode::HandleProbeTimeout(std::uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  // The probed hop exhausted its RPC retries (down node or persistent
  // loss). The routing walk cannot continue past it; fail fast to the
  // caller rather than waiting for the global safety timer.
  chord_.network().tracer().EndSpan(it->second.stage,
                                    chord_.network().simulator().Now(),
                                    "timeout");
  it->second.stage = obs::TraceContext{};
  ctr_probe_timeout_.Add();
  FinishQuery(query_id, false);
}

void TrackerNode::BeginWalk(std::uint64_t query_id, const chord::NodeRef& node,
                            moods::Time arrived) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  PendingQuery& query = it->second;
  query.walking_backward = true;
  query.walk_node = node;
  query.walk_arrived = arrived;
  query.forward_pending = false;
  WalkStep(query_id);
}

void TrackerNode::WalkStep(std::uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  PendingQuery& query = it->second;

  obs::Tracer& tracer = chord_.network().tracer();
  if (tracer.Enabled() && query.span.Valid()) {
    query.stage = tracer.StartSpan(
        query.span,
        query.walking_backward ? "query.walk.back" : "query.walk.fwd",
        Self().actor, chord_.network().simulator().Now());
  }
  const obs::ScopedLogTrace log_scope(query.span);
  auto request = std::make_unique<IopWalkRequest>();
  request->object = query.object;
  request->arrived =
      query.walking_backward ? query.walk_arrived : query.forward_arrived;
  request->trace = query.stage;
  const chord::NodeRef& target =
      query.walking_backward ? query.walk_node : query.forward_node;
  query.call = rpc_.Call<IopWalkResponse>(
      target.actor, std::move(request), config_.rpc,
      [this, query_id](rpc::Status status,
                       std::unique_ptr<IopWalkResponse> response) {
        if (status == rpc::Status::kOk) {
          HandleWalkResponse(query_id, *response);
        } else {
          HandleWalkTimeout(query_id);
        }
      });
}

std::unique_ptr<IopWalkResponse> TrackerNode::HandleWalkRequest(
    const IopWalkRequest& request) {
  auto response = std::make_unique<IopWalkResponse>();
  const obs::ScopedLogTrace log_scope(request.trace);
  chord_.network().tracer().AddEvent(request.trace, "iop.read", Self().actor,
                                     chord_.network().simulator().Now());
  const moods::Visit* visit = iop_.VisitAt(request.object, request.arrived);
  if (visit == nullptr) {
    // Arrival-time mismatch (e.g. in-flight M3): fall back to the nearest
    // earlier visit so the walk degrades gracefully instead of aborting.
    visit = iop_.VisitAtOrBefore(request.object, request.arrived);
  }
  if (visit != nullptr) {
    response->found = true;
    response->arrived = visit->arrived;
    // Defensive monotonicity guards: a from-link must point strictly into
    // the past and a to-link strictly into the future, or a corrupted
    // chain could cycle the walk forever.
    if (visit->from.has_value() && visit->from->Valid() &&
        visit->from_arrived.value_or(-1.0) < visit->arrived) {
      response->has_from = true;
      response->from = *visit->from;
      response->from_arrived = visit->from_arrived.value_or(0.0);
    }
    if (visit->to.has_value() && visit->to->Valid() &&
        visit->to_arrived.value_or(-1.0) > visit->arrived) {
      response->has_to = true;
      response->to = *visit->to;
      response->to_arrived = visit->to_arrived.value_or(0.0);
    }
  }
  return response;
}

void TrackerNode::HandleWalkResponse(std::uint64_t query_id,
                                     const IopWalkResponse& response) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  PendingQuery& query = it->second;

  chord_.network().tracer().EndSpan(query.stage,
                                    chord_.network().simulator().Now(),
                                    response.found ? "ok" : "dead-link");
  query.stage = obs::TraceContext{};
  const obs::ScopedLogTrace log_scope(query.span);

  if (!response.found) {
    // Dead link: complete with what was collected so far.
    query.chain_broken = true;
    if (query.walking_backward && query.forward_pending) {
      query.walking_backward = false;
      WalkStep(query_id);
      return;
    }
    FinishQuery(query_id, !query.steps.empty());
    return;
  }

  const chord::NodeRef visited_node =
      query.walking_backward ? query.walk_node : query.forward_node;
  query.steps.emplace(response.arrived, visited_node);

  if (query.walking_backward) {
    // Arm the forward phase off the very first (latest-known) visit: if it
    // has a `to` link, the object moved past the point our answer source
    // knew about (intermediate-node interception case).
    if (query.steps.size() == 1 && response.has_to) {
      query.forward_pending = true;
      query.forward_node = response.to;
      query.forward_arrived = response.to_arrived;
    }
    if (response.has_from) {
      query.walk_node = response.from;
      query.walk_arrived = response.from_arrived;
      WalkStep(query_id);
      return;
    }
    // Backward walk reached the first appearance.
    if (query.forward_pending) {
      query.walking_backward = false;
      WalkStep(query_id);
      return;
    }
    FinishQuery(query_id, true);
    return;
  }

  // Forward phase.
  if (response.has_to) {
    query.forward_node = response.to;
    query.forward_arrived = response.to_arrived;
    WalkStep(query_id);
    return;
  }
  FinishQuery(query_id, true);
}

void TrackerNode::HandleWalkTimeout(std::uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  PendingQuery& query = it->second;
  // The walked node exhausted its RPC retries — treat it like a dead link
  // and degrade gracefully with the steps collected so far.
  chord_.network().tracer().EndSpan(query.stage,
                                    chord_.network().simulator().Now(),
                                    "timeout");
  query.stage = obs::TraceContext{};
  ctr_walk_timeout_.Add();
  query.chain_broken = true;
  if (query.walking_backward && query.forward_pending) {
    query.walking_backward = false;
    WalkStep(query_id);
    return;
  }
  FinishQuery(query_id, !query.steps.empty());
}

void TrackerNode::FinishQuery(std::uint64_t query_id, bool ok) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  PendingQuery query = std::move(it->second);
  queries_.erase(it);
  query.timeout.Cancel();
  rpc_.Cancel(query.call);

  const moods::Time now = chord_.network().simulator().Now();
  obs::Tracer& tracer = chord_.network().tracer();
  tracer.EndSpan(query.stage, now, "cancelled");
  tracer.EndSpan(query.span, now, ok ? "ok" : "failed");
  chord_.network().metrics().RecordLatency(
      query.locate_only ? "query.locate_ms" : "query.trace_ms",
      now - query.issued_at);
  const obs::ScopedLogTrace log_scope(query.span);
  if (query.locate_only) {
    LocateResult result;
    result.ok = ok && !query.steps.empty();
    if (result.ok) {
      result.node = query.steps.rbegin()->second;
      result.arrived = query.steps.rbegin()->first;
    }
    result.issued_at = query.issued_at;
    result.completed_at = now;
    if (query.locate_callback) query.locate_callback(std::move(result));
    return;
  }
  TraceResult result;
  result.ok = ok && !query.steps.empty();
  result.chain_broken = query.chain_broken;
  result.path.reserve(query.steps.size());
  for (const auto& [arrived, node] : query.steps) {
    result.path.push_back(TraceStep{node, arrived});
  }
  result.issued_at = query.issued_at;
  result.completed_at = now;
  result.probe_hops = query.probe_steps;
  if (query.trace_callback) query.trace_callback(std::move(result));
}

}  // namespace peertrack::tracking
