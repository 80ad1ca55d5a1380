#pragma once
// Request/response RPC on top of sim::Network.
//
// Every query-style exchange in the repo (chord lookup steps, trace probes,
// IOP walks, flood probes, gossip push-pull) is a request
// that expects exactly one response. This layer centralizes what each
// protocol used to hand-roll: correlation ids matching responses to
// outstanding calls, per-call deadlines on the Simulator, and retry with
// exponential backoff + jitter. A call always terminates — with Status::kOk
// and the response, or Status::kTimeout after exhausting its attempts —
// so callers never hang on a lossy wire or a dead peer. Retries and
// exhausted calls are accounted in sim::Metrics (rpc_retries /
// rpc_timeouts) so experiments can report recovery cost.
//
// One-way traffic (arrival reports, index update batches, replica pushes)
// stays on plain Network::Send; only exchanges that semantically await an
// answer go through RpcClient.
//
// Tracing: when the caller stamps a trace context on the request
// (request->trace = span), every send attempt opens a child span
// "rpc.<type>#<attempt>" under it — so retries show up as sibling attempt
// spans in the query's causal tree — and the attempt's context is what
// travels on the wire, giving server-side events the attempt as parent.
// Responses echo the request's context back.

#include <cstdint>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "obs/profiler.hpp"
#include "rpc/dispatcher.hpp"
#include "sim/network.hpp"
#include "util/unique_function.hpp"

namespace peertrack::rpc {

/// Correlation id carried by every request/response pair. Unique per
/// RpcClient, never reused within a simulation.
using CallId = std::uint64_t;

/// Accounted wire size of the correlation id, included in every
/// request/response ApproxBytes().
constexpr std::size_t kCallIdBytes = sizeof(CallId);

enum class Status {
  kOk,       ///< Response arrived within some attempt's deadline.
  kTimeout,  ///< All attempts exhausted without a response.
};

/// Per-call retry configuration. Attempt k (0-based) waits
/// base_timeout_ms * backoff_factor^k, stretched by a uniform
/// +-jitter fraction to avoid synchronized retry storms.
struct RetryPolicy {
  int max_attempts = 3;
  double base_timeout_ms = 500.0;
  double backoff_factor = 2.0;
  double jitter = 0.1;

  /// Deterministic (un-jittered) deadline for 0-based attempt `attempt`.
  double TimeoutForAttempt(int attempt) const noexcept;

  /// Policy for exchanges that must not be retried (non-idempotent or
  /// already retried at a higher level): single attempt, same deadline.
  static RetryPolicy NoRetry(double timeout_ms) {
    return RetryPolicy{1, timeout_ms, 1.0, 0.0};
  }
};

/// Base of all RPC requests. Concrete types derive from RequestBase, which
/// supplies TypeId() and copy-based cloning (retries re-send a fresh clone,
/// so in-flight copies never alias).
class Request : public sim::Message {
 public:
  CallId call_id = 0;

  virtual std::unique_ptr<Request> CloneRequest() const = 0;
};

template <typename Derived>
class RequestBase : public Request {
 public:
  sim::MsgTypeId TypeId() const noexcept final { return sim::MsgTypeIdOf<Derived>(); }
  std::unique_ptr<Request> CloneRequest() const final {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }
};

/// Base of all RPC responses; carries the originating call's id back.
class Response : public sim::Message {
 public:
  CallId call_id = 0;
};

template <typename Derived>
class ResponseBase : public Response {
 public:
  sim::MsgTypeId TypeId() const noexcept final { return sim::MsgTypeIdOf<Derived>(); }
};

/// Issues calls and completes them. Owned by the calling actor; responses
/// must be routed to it by registering each expected response type once via
/// RouteResponses on the actor's Dispatcher.
class RpcClient {
 public:
  explicit RpcClient(sim::Network& network) : network_(network) {}

  /// Set the owning actor's id (required before the first Call).
  void Bind(sim::ActorId self) { self_ = self; }

  /// Register response type Resp on `dispatcher` to complete this client's
  /// calls. Each response type routes to exactly one client per dispatcher.
  template <typename Resp>
  void RouteResponses(Dispatcher& dispatcher) {
    static_assert(std::is_base_of_v<Response, Resp>,
                  "routed type must derive from rpc::Response");
    dispatcher.On<Resp>([this](sim::ActorId, std::unique_ptr<Resp> response) {
      CompleteCall(std::unique_ptr<Response>(std::move(response)));
    });
  }

  /// Send `request` to `to`; invoke `callback(status, response)` exactly
  /// once — response is non-null iff status is kOk. Retries per `policy`.
  /// The callback may issue new calls or cancel others.
  template <typename Resp, typename Req, typename F>
  CallId Call(sim::ActorId to, std::unique_ptr<Req> request,
              const RetryPolicy& policy, F callback) {
    static_assert(std::is_base_of_v<Request, Req>,
                  "Call payload must derive from rpc::Request");
    static_assert(std::is_base_of_v<Response, Resp>,
                  "Call response must derive from rpc::Response");
    return StartCall(
        to, std::move(request), policy,
        [cb = std::move(callback)](Status status,
                                   std::unique_ptr<Response> response) mutable {
          cb(status, std::unique_ptr<Resp>(static_cast<Resp*>(response.release())));
        });
  }

  /// Abandon one call / all calls silently (no callback). Used when the
  /// owning node crashes or a query is finished early.
  void Cancel(CallId id);
  void CancelAll();

  std::size_t PendingCalls() const noexcept { return pending_.size(); }

 private:
  using ErasedCallback = util::UniqueFunction<void(Status, std::unique_ptr<Response>)>;

  struct PendingCall {
    sim::ActorId to = sim::kInvalidActor;
    std::unique_ptr<Request> request;  // prototype; attempts send clones
    RetryPolicy policy;
    int attempt = 0;
    sim::EventHandle deadline;
    ErasedCallback callback;
    obs::TraceContext attempt_span;  ///< Span of the in-flight attempt.
  };

  CallId StartCall(sim::ActorId to, std::unique_ptr<Request> request,
                   const RetryPolicy& policy, ErasedCallback callback);
  void SendAttempt(CallId id, PendingCall& call);
  void CompleteCall(std::unique_ptr<Response> response);
  void OnDeadline(CallId id);
  double JitteredTimeout(const RetryPolicy& policy, int attempt);

  sim::Network& network_;
  sim::ActorId self_ = sim::kInvalidActor;
  CallId next_call_id_ = 1;
  std::unordered_map<CallId, PendingCall> pending_;
};

/// Server half: registers request handlers that produce a response, and
/// echoes the correlation id back to the caller.
class RpcServer {
 public:
  explicit RpcServer(sim::Network& network) : network_(network) {}

  void Bind(sim::ActorId self) { self_ = self; }

  /// Register `handler(from, request) -> std::unique_ptr<Response>` for
  /// request type Req. A null return sends no reply (the caller's retry /
  /// timeout machinery handles the silence).
  template <typename Req, typename F>
  void Handle(Dispatcher& dispatcher, F handler) {
    static_assert(std::is_base_of_v<Request, Req>,
                  "handled type must derive from rpc::Request");
    dispatcher.On<Req>(
        [this, h = std::move(handler),
         prof_scope = obs::kInvalidProfScope](sim::ActorId from,
                                              std::unique_ptr<Req> request) mutable {
          // Attribute handler wall per rpc family ("rpc.<RequestType>");
          // the scope id is interned on first dispatch and memoized in the
          // closure. Covers handler body + response send.
          PROF_LAZY_SCOPE(prof_scope, "rpc", request->TypeName());
          const CallId id = request->call_id;
          const obs::TraceContext ctx = request->trace;
          std::unique_ptr<Response> response = h(from, std::move(request));
          if (!response) return;
          response->call_id = id;
          response->trace = ctx;
          network_.Send(self_, from, std::move(response));
        });
  }

 private:
  sim::Network& network_;
  sim::ActorId self_ = sim::kInvalidActor;
};

}  // namespace peertrack::rpc
