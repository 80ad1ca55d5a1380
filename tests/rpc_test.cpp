// Unit tests for the typed RPC layer: dispatcher routing, correlation,
// retry/backoff schedule, timeout semantics, and metrics accounting.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rpc/dispatcher.hpp"
#include "rpc/rpc.hpp"
#include "sim/network.hpp"

namespace peertrack::rpc {
namespace {

struct EchoRequest final : RequestBase<EchoRequest> {
  int payload = 0;
  std::string_view TypeName() const noexcept override { return "rpc_test.echo_req"; }
  std::size_t ApproxBytes() const noexcept override { return kCallIdBytes + 4; }
};

struct EchoResponse final : ResponseBase<EchoResponse> {
  int payload = 0;
  std::string_view TypeName() const noexcept override { return "rpc_test.echo_resp"; }
  std::size_t ApproxBytes() const noexcept override { return kCallIdBytes + 4; }
};

struct OtherMessage final : sim::MessageBase<OtherMessage> {
  std::string_view TypeName() const noexcept override { return "rpc_test.other"; }
  std::size_t ApproxBytes() const noexcept override { return 1; }
};

/// Client-side actor: owns a dispatcher and an RpcClient routed through it.
struct CallerActor final : sim::Actor {
  explicit CallerActor(sim::Network& network) : rpc(network) {
    id = network.Register(*this);
    rpc.Bind(id);
    rpc.RouteResponses<EchoResponse>(dispatcher);
  }
  void OnMessage(sim::ActorId from, std::unique_ptr<sim::Message> message) override {
    dispatcher.Dispatch(from, message);
  }
  sim::ActorId id = sim::kInvalidActor;
  Dispatcher dispatcher;
  RpcClient rpc;
};

/// Server-side actor: doubles the payload; optionally stays silent for the
/// first `ignore_first` requests (to exercise the caller's retry path).
struct EchoActor final : sim::Actor {
  explicit EchoActor(sim::Network& network) : server(network) {
    id = network.Register(*this);
    server.Bind(id);
    server.Handle<EchoRequest>(
        dispatcher, [this](sim::ActorId, std::unique_ptr<EchoRequest> request)
                        -> std::unique_ptr<EchoResponse> {
          ++requests_seen;
          if (ignore_first > 0) {
            --ignore_first;
            return nullptr;
          }
          auto response = std::make_unique<EchoResponse>();
          response->payload = request->payload * 2;
          return response;
        });
  }
  void OnMessage(sim::ActorId from, std::unique_ptr<sim::Message> message) override {
    dispatcher.Dispatch(from, message);
  }
  sim::ActorId id = sim::kInvalidActor;
  int requests_seen = 0;
  int ignore_first = 0;
  Dispatcher dispatcher;
  RpcServer server;
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : latency_(5.0), net_(sim_, latency_, /*seed=*/17) {}

  std::unique_ptr<EchoRequest> MakeRequest(int payload) {
    auto request = std::make_unique<EchoRequest>();
    request->payload = payload;
    return request;
  }

  sim::Simulator sim_;
  sim::ConstantLatency latency_;
  sim::Network net_;
};

// --- Dispatcher ------------------------------------------------------------

TEST(Dispatcher, RoutesByTypeAndReportsUnhandled) {
  Dispatcher dispatcher;
  int echoes = 0;
  dispatcher.On<EchoRequest>(
      [&](sim::ActorId, std::unique_ptr<EchoRequest> request) {
        echoes += request->payload;
      });

  EXPECT_TRUE(dispatcher.Handles(sim::MsgTypeIdOf<EchoRequest>()));
  EXPECT_FALSE(dispatcher.Handles(sim::MsgTypeIdOf<OtherMessage>()));

  std::unique_ptr<sim::Message> handled = std::make_unique<EchoRequest>();
  static_cast<EchoRequest*>(handled.get())->payload = 3;
  EXPECT_TRUE(dispatcher.Dispatch(0, handled));
  EXPECT_EQ(handled, nullptr);  // Consumed.
  EXPECT_EQ(echoes, 3);

  std::unique_ptr<sim::Message> unhandled = std::make_unique<OtherMessage>();
  EXPECT_FALSE(dispatcher.Dispatch(0, unhandled));
  EXPECT_NE(unhandled, nullptr);  // Untouched, caller may fall through.
}

TEST(Dispatcher, ReRegisteringReplacesHandler) {
  Dispatcher dispatcher;
  int first = 0, second = 0;
  dispatcher.On<OtherMessage>([&](sim::ActorId, std::unique_ptr<OtherMessage>) {
    ++first;
  });
  dispatcher.On<OtherMessage>([&](sim::ActorId, std::unique_ptr<OtherMessage>) {
    ++second;
  });
  std::unique_ptr<sim::Message> message = std::make_unique<OtherMessage>();
  EXPECT_TRUE(dispatcher.Dispatch(0, message));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

// --- RetryPolicy -----------------------------------------------------------

TEST(RetryPolicy, BackoffScheduleIsExponential) {
  const RetryPolicy policy{4, 100.0, 2.0, 0.0};
  EXPECT_DOUBLE_EQ(policy.TimeoutForAttempt(0), 100.0);
  EXPECT_DOUBLE_EQ(policy.TimeoutForAttempt(1), 200.0);
  EXPECT_DOUBLE_EQ(policy.TimeoutForAttempt(2), 400.0);
  EXPECT_DOUBLE_EQ(policy.TimeoutForAttempt(3), 800.0);

  const RetryPolicy gentle{3, 50.0, 1.5, 0.0};
  EXPECT_DOUBLE_EQ(gentle.TimeoutForAttempt(2), 50.0 * 1.5 * 1.5);

  const RetryPolicy single = RetryPolicy::NoRetry(250.0);
  EXPECT_EQ(single.max_attempts, 1);
  EXPECT_DOUBLE_EQ(single.TimeoutForAttempt(0), 250.0);
}

// --- Client / server round trips -------------------------------------------

TEST_F(RpcTest, CallCompletesWithCorrelatedResponse) {
  CallerActor caller(net_);
  EchoActor echo(net_);

  int completions = 0;
  caller.rpc.Call<EchoResponse>(
      echo.id, MakeRequest(21), RetryPolicy{},
      [&](Status status, std::unique_ptr<EchoResponse> response) {
        EXPECT_EQ(status, Status::kOk);
        ASSERT_NE(response, nullptr);
        EXPECT_EQ(response->payload, 42);
        ++completions;
      });
  EXPECT_EQ(caller.rpc.PendingCalls(), 1u);
  sim_.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(caller.rpc.PendingCalls(), 0u);
  // Round trip: exactly one request and one response on the wire.
  EXPECT_EQ(net_.metrics().ForType("rpc_test.echo_req").count, 1u);
  EXPECT_EQ(net_.metrics().ForType("rpc_test.echo_resp").count, 1u);
}

TEST_F(RpcTest, ConcurrentCallsCorrelateIndependently) {
  CallerActor caller(net_);
  EchoActor echo(net_);

  std::vector<int> answers;
  for (int i = 1; i <= 5; ++i) {
    caller.rpc.Call<EchoResponse>(
        echo.id, MakeRequest(i), RetryPolicy{},
        [&answers, i](Status status, std::unique_ptr<EchoResponse> response) {
          ASSERT_EQ(status, Status::kOk);
          EXPECT_EQ(response->payload, i * 2);
          answers.push_back(response->payload);
        });
  }
  EXPECT_EQ(caller.rpc.PendingCalls(), 5u);
  sim_.Run();
  EXPECT_EQ(answers.size(), 5u);
  EXPECT_EQ(caller.rpc.PendingCalls(), 0u);
}

TEST_F(RpcTest, RetryRecoversFromSilentServer) {
  CallerActor caller(net_);
  EchoActor echo(net_);
  echo.ignore_first = 2;  // First two attempts vanish; third is answered.

  const RetryPolicy policy{3, 100.0, 2.0, 0.0};
  int completions = 0;
  caller.rpc.Call<EchoResponse>(
      echo.id, MakeRequest(7), policy,
      [&](Status status, std::unique_ptr<EchoResponse> response) {
        EXPECT_EQ(status, Status::kOk);
        EXPECT_EQ(response->payload, 14);
        ++completions;
      });
  sim_.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(echo.requests_seen, 3);
  EXPECT_EQ(net_.metrics().RpcRetries(), 2u);
  EXPECT_EQ(net_.metrics().RpcTimeouts(), 0u);
  EXPECT_EQ(net_.metrics().Counter("rpc.retry:rpc_test.echo_req"), 2u);
}

TEST_F(RpcTest, DownPeerFailsFastAfterBackoffSchedule) {
  CallerActor caller(net_);
  EchoActor echo(net_);
  net_.SetUp(echo.id, false);

  const RetryPolicy policy{3, 100.0, 2.0, 0.0};
  int completions = 0;
  double completed_at = -1.0;
  caller.rpc.Call<EchoResponse>(
      echo.id, MakeRequest(1), policy,
      [&](Status status, std::unique_ptr<EchoResponse> response) {
        EXPECT_EQ(status, Status::kTimeout);
        EXPECT_EQ(response, nullptr);
        ++completions;
        completed_at = sim_.Now();
      });
  sim_.Run();
  EXPECT_EQ(completions, 1);
  // Deadlines 100 + 200 + 400 ms, no jitter: the call fails at exactly 700.
  EXPECT_DOUBLE_EQ(completed_at, 700.0);
  EXPECT_EQ(net_.metrics().RpcRetries(), 2u);
  EXPECT_EQ(net_.metrics().RpcTimeouts(), 1u);
  EXPECT_EQ(net_.metrics().Counter("rpc.timeout:rpc_test.echo_req"), 1u);
  EXPECT_EQ(net_.metrics().DroppedToDownActor(), 3u);  // One per attempt.
  EXPECT_EQ(net_.metrics().DroppedByLoss(), 0u);
}

TEST_F(RpcTest, RetryRecoversFromTransientLoss) {
  CallerActor caller(net_);
  EchoActor echo(net_);
  net_.SetLossRate(1.0);
  // The wire heals before the first retry fires.
  sim_.ScheduleAt(50.0, [&] { net_.SetLossRate(0.0); });

  const RetryPolicy policy{3, 100.0, 2.0, 0.0};
  int completions = 0;
  caller.rpc.Call<EchoResponse>(
      echo.id, MakeRequest(4), policy,
      [&](Status status, std::unique_ptr<EchoResponse> response) {
        EXPECT_EQ(status, Status::kOk);
        EXPECT_EQ(response->payload, 8);
        ++completions;
      });
  sim_.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(net_.metrics().RpcRetries(), 1u);
  EXPECT_GE(net_.metrics().DroppedByLoss(), 1u);
}

TEST_F(RpcTest, CancelSuppressesCallback) {
  CallerActor caller(net_);
  EchoActor echo(net_);
  net_.SetUp(echo.id, false);

  int completions = 0;
  const CallId id = caller.rpc.Call<EchoResponse>(
      echo.id, MakeRequest(1), RetryPolicy{},
      [&](Status, std::unique_ptr<EchoResponse>) { ++completions; });
  caller.rpc.Cancel(id);
  EXPECT_EQ(caller.rpc.PendingCalls(), 0u);
  sim_.Run();
  EXPECT_EQ(completions, 0);
}

TEST_F(RpcTest, CancelAllSuppressesEveryCallback) {
  CallerActor caller(net_);
  EchoActor echo(net_);
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    caller.rpc.Call<EchoResponse>(
        echo.id, MakeRequest(i), RetryPolicy{},
        [&](Status, std::unique_ptr<EchoResponse>) { ++completions; });
  }
  caller.rpc.CancelAll();
  EXPECT_EQ(caller.rpc.PendingCalls(), 0u);
  sim_.Run();
  EXPECT_EQ(completions, 0);
}

TEST_F(RpcTest, LateResponseAfterTimeoutIsIgnored) {
  CallerActor caller(net_);
  EchoActor echo(net_);

  // Deadline (4 ms) shorter than the 10 ms round trip: the call times out
  // first and the response arrives at a completed call — it must be
  // swallowed without invoking anything twice.
  const RetryPolicy policy = RetryPolicy::NoRetry(4.0);
  int completions = 0;
  Status last = Status::kOk;
  caller.rpc.Call<EchoResponse>(
      echo.id, MakeRequest(9), policy,
      [&](Status status, std::unique_ptr<EchoResponse>) {
        last = status;
        ++completions;
      });
  sim_.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(last, Status::kTimeout);
  EXPECT_EQ(echo.requests_seen, 1);  // Server did answer; answer was late.
}

TEST_F(RpcTest, CallbackMayIssueFollowUpCalls) {
  CallerActor caller(net_);
  EchoActor echo(net_);

  // Chained calls from inside completion callbacks (the shape every
  // iterative protocol in the repo uses).
  std::vector<int> results;
  util::UniqueFunction<void(int)> chain = [&](int value) {
    if (value > 8) return;
    caller.rpc.Call<EchoResponse>(
        echo.id, MakeRequest(value), RetryPolicy{},
        [&, value](Status status, std::unique_ptr<EchoResponse> response) {
          ASSERT_EQ(status, Status::kOk);
          results.push_back(response->payload);
          chain(response->payload);
        });
  };
  chain(1);
  sim_.Run();
  // 1 -> 2 -> 4 -> 8 -> 16 (stop).
  EXPECT_EQ(results, (std::vector<int>{2, 4, 8, 16}));
}

TEST_F(RpcTest, JitterSpreadsDeadlinesWithinBounds) {
  CallerActor caller(net_);
  EchoActor echo(net_);
  net_.SetUp(echo.id, false);

  // jitter=0.5 on a 100 ms single attempt: failure lands in [50, 150].
  const RetryPolicy policy{1, 100.0, 2.0, 0.5};
  double completed_at = -1.0;
  caller.rpc.Call<EchoResponse>(
      echo.id, MakeRequest(1), policy,
      [&](Status status, std::unique_ptr<EchoResponse>) {
        EXPECT_EQ(status, Status::kTimeout);
        completed_at = sim_.Now();
      });
  sim_.Run();
  EXPECT_GE(completed_at, 50.0);
  EXPECT_LE(completed_at, 150.0);
}

}  // namespace
}  // namespace peertrack::rpc
