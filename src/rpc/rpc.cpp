#include "rpc/rpc.hpp"

#include <cmath>

#include "util/format.hpp"

namespace peertrack::rpc {

double RetryPolicy::TimeoutForAttempt(int attempt) const noexcept {
  return base_timeout_ms * std::pow(backoff_factor, attempt);
}

CallId RpcClient::StartCall(sim::ActorId to, std::unique_ptr<Request> request,
                            const RetryPolicy& policy, ErasedCallback callback) {
  const CallId id = next_call_id_++;
  request->call_id = id;
  auto [it, inserted] = pending_.emplace(
      id, PendingCall{to, std::move(request), policy, 0, {}, std::move(callback), {}});
  (void)inserted;
  SendAttempt(id, it->second);
  return id;
}

void RpcClient::SendAttempt(CallId id, PendingCall& call) {
  // Send a clone and keep the prototype: the network owns in-flight
  // messages, and a retry may overlap a still-travelling earlier attempt.
  std::unique_ptr<Request> attempt = call.request->CloneRequest();
  obs::Tracer& tracer = network_.tracer();
  if (tracer.Enabled() && call.request->trace.Valid()) {
    // One span per wire attempt, parented on the caller's span; the
    // attempt's context travels in the clone so server-side events nest
    // under the attempt that actually reached them.
    call.attempt_span = tracer.StartSpan(
        call.request->trace,
        util::Format("rpc.{}#{}", call.request->TypeName(), call.attempt),
        self_, network_.simulator().Now());
    attempt->trace = call.attempt_span;
  }
  network_.Send(self_, call.to, std::move(attempt));
  call.deadline = network_.simulator().ScheduleAfter(
      JitteredTimeout(call.policy, call.attempt), [this, id] { OnDeadline(id); });
}

void RpcClient::OnDeadline(CallId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // completed or cancelled under a lazy timer
  PendingCall& call = it->second;
  if (call.attempt + 1 < call.policy.max_attempts) {
    ++call.attempt;
    network_.metrics().RecordRpcRetry(*call.request);
    if (obs::FlightRecorder* recorder = network_.recorder()) {
      recorder->RecordProtocol(obs::RecEvent::kRpcRetry, self_, call.to, {},
                               false, call.request->TypeId());
    }
    network_.tracer().EndSpan(call.attempt_span, network_.simulator().Now(),
                              "no-reply");
    SendAttempt(id, call);
    return;
  }
  network_.metrics().RecordRpcTimeout(*call.request);
  if (obs::FlightRecorder* recorder = network_.recorder()) {
    recorder->RecordProtocol(obs::RecEvent::kRpcTimeout, self_, call.to, {},
                             false, call.request->TypeId());
  }
  network_.tracer().EndSpan(call.attempt_span, network_.simulator().Now(),
                            "timeout");
  ErasedCallback callback = std::move(call.callback);
  // Erase before invoking: the callback may start new calls, cancel
  // others, or tear the client down via CancelAll.
  pending_.erase(it);
  if (callback) callback(Status::kTimeout, nullptr);
}

void RpcClient::CompleteCall(std::unique_ptr<Response> response) {
  auto it = pending_.find(response->call_id);
  if (it == pending_.end()) return;  // late duplicate after retry or timeout
  it->second.deadline.Cancel();
  network_.tracer().EndSpan(it->second.attempt_span, network_.simulator().Now(),
                            "ok");
  ErasedCallback callback = std::move(it->second.callback);
  pending_.erase(it);
  if (callback) callback(Status::kOk, std::move(response));
}

void RpcClient::Cancel(CallId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  it->second.deadline.Cancel();
  network_.tracer().EndSpan(it->second.attempt_span, network_.simulator().Now(),
                            "cancelled");
  pending_.erase(it);
}

void RpcClient::CancelAll() {
  const double now = network_.simulator().Now();
  for (auto& [id, call] : pending_) {
    call.deadline.Cancel();
    network_.tracer().EndSpan(call.attempt_span, now, "cancelled");
  }
  pending_.clear();
}

double RpcClient::JitteredTimeout(const RetryPolicy& policy, int attempt) {
  const double timeout = policy.TimeoutForAttempt(attempt);
  // The caller's own stream keeps jitter draws independent of the shard
  // count: draw order across actors follows shard interleaving, draw
  // values do not.
  if (policy.jitter <= 0.0) return timeout;
  return timeout * (1.0 + network_.ActorRng(self_).NextDouble(-policy.jitter,
                                                              policy.jitter));
}

}  // namespace peertrack::rpc
