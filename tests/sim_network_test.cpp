#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/lane.hpp"

namespace peertrack::sim {
namespace {

struct TestMessage final : MessageBase<TestMessage> {
  explicit TestMessage(int v) : value(v) {}
  int value;
  std::string_view TypeName() const noexcept override { return "test.msg"; }
  std::size_t ApproxBytes() const noexcept override { return 4; }
};

struct Recorder final : Actor {
  std::vector<std::pair<ActorId, int>> received;
  double* clock = nullptr;
  std::vector<double> receive_times;
  Simulator* sim = nullptr;

  void OnMessage(ActorId from, std::unique_ptr<Message> message) override {
    ASSERT_EQ(message->TypeId(), MsgTypeIdOf<TestMessage>());
    auto* msg = static_cast<TestMessage*>(message.get());
    received.emplace_back(from, msg->value);
    if (sim != nullptr) receive_times.push_back(sim->Now());
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : latency_(5.0), net_(sim_, latency_, /*seed=*/1) {}

  Simulator sim_;
  ConstantLatency latency_;
  Network net_;
};

TEST_F(NetworkTest, DeliversWithLatency) {
  Recorder a, b;
  b.sim = &sim_;
  const ActorId ida = net_.Register(a);
  const ActorId idb = net_.Register(b);
  net_.Send(ida, idb, std::make_unique<TestMessage>(42));
  sim_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, ida);
  EXPECT_EQ(b.received[0].second, 42);
  EXPECT_DOUBLE_EQ(b.receive_times[0], 5.0);
}

TEST_F(NetworkTest, RemoteSendIsCounted) {
  Recorder a, b;
  const ActorId ida = net_.Register(a);
  const ActorId idb = net_.Register(b);
  net_.Send(ida, idb, std::make_unique<TestMessage>(1));
  sim_.Run();
  EXPECT_EQ(net_.metrics().TotalMessages(), 1u);
  EXPECT_EQ(net_.metrics().TotalBytes(), kMessageHeaderBytes + 4);
  EXPECT_EQ(net_.metrics().ForType("test.msg").count, 1u);
}

TEST_F(NetworkTest, SelfSendIsFreeAndImmediate) {
  Recorder a;
  a.sim = &sim_;
  const ActorId ida = net_.Register(a);
  net_.Send(ida, ida, std::make_unique<TestMessage>(9));
  sim_.Run();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_DOUBLE_EQ(a.receive_times[0], 0.0);
  EXPECT_EQ(net_.metrics().TotalMessages(), 0u);
}

TEST_F(NetworkTest, DownActorDropsAndCounts) {
  Recorder a, b;
  const ActorId ida = net_.Register(a);
  const ActorId idb = net_.Register(b);
  net_.SetUp(idb, false);
  net_.Send(ida, idb, std::make_unique<TestMessage>(3));
  sim_.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net_.metrics().DroppedMessages(), 1u);
  // The send itself was still counted (the sender paid for it).
  EXPECT_EQ(net_.metrics().TotalMessages(), 1u);
}

TEST_F(NetworkTest, MessageInFlightWhenReceiverGoesDownIsDropped) {
  Recorder a, b;
  const ActorId ida = net_.Register(a);
  const ActorId idb = net_.Register(b);
  net_.Send(ida, idb, std::make_unique<TestMessage>(3));
  // Receiver crashes before the 5 ms delivery.
  sim_.ScheduleAt(1.0, [&] { net_.SetUp(idb, false); });
  sim_.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net_.metrics().DroppedMessages(), 1u);
}

TEST_F(NetworkTest, RunOnActorIsDirectBetweenRunsAndAHandOffInsideOne) {
  Recorder a, b;
  net_.Register(a);
  const ActorId idb = net_.Register(b);
  bool direct = false;
  net_.RunOnActor(idb, [&] { direct = true; });
  EXPECT_TRUE(direct);
  double ran_at = -1.0;
  sim_.ScheduleAt(2.0, [&] {
    net_.RunOnActor(idb, [&] { ran_at = sim_.Now(); });
  });
  sim_.Run();  // driving the root directly is the same run at S=1
  EXPECT_DOUBLE_EQ(ran_at, 7.0);  // one latency floor after the caller
}

TEST_F(NetworkTest, PerActorCountsTrackSendersAndReceivers) {
  Recorder a, b;
  const ActorId ida = net_.Register(a);
  const ActorId idb = net_.Register(b);
  for (int i = 0; i < 3; ++i) net_.Send(ida, idb, std::make_unique<TestMessage>(i));
  net_.Send(idb, ida, std::make_unique<TestMessage>(9));
  sim_.Run();
  const std::vector<std::uint64_t> received = net_.metrics().ReceivedBytesPerActor();
  ASSERT_GT(received.size(), std::max(ida, idb));
  EXPECT_EQ(received[idb], 3 * (kMessageHeaderBytes + 4));
  EXPECT_EQ(received[ida], kMessageHeaderBytes + 4);
}

struct OtherMessage final : MessageBase<OtherMessage> {
  std::string_view TypeName() const noexcept override { return "test.other"; }
  std::size_t ApproxBytes() const noexcept override { return 12; }
};

/// The same writes, each from `lane_of(i)`: messages, both drop causes,
/// rpc retries/timeouts, a synthetic charge and lookup hops.
void WriteMetrics(Metrics& metrics, std::uint32_t (*lane_of)(int)) {
  const TestMessage test(0);
  const OtherMessage other;
  for (int i = 0; i < 16; ++i) {
    obs::LaneScope lane(lane_of(i));
    const auto to = static_cast<ActorId>(i % 5);
    metrics.RecordMessage(test, 44, to);
    if (i % 2 == 0) metrics.RecordMessage(other, 52, to + 3);
    if (i % 3 == 0) metrics.RecordDrop(test, Metrics::DropReason::kLoss);
    if (i % 4 == 0) metrics.RecordDrop(other, Metrics::DropReason::kDownActor);
    if (i % 5 == 0) metrics.RecordRpcRetry(other);
    if (i % 7 == 0) metrics.RecordRpcTimeout(other);
    if (i % 6 == 0) metrics.RecordMessage("test.synthetic", 60, to + 1);
    metrics.RecordLookupHops(static_cast<std::size_t>(i % 4));
  }
}

TEST(MetricsLanes, StripedWritesReadLikeLaneZero) {
  Metrics striped;
  striped.EnableLanes(4);
  WriteMetrics(striped, [](int i) { return static_cast<std::uint32_t>(i % 4); });
  Metrics single;
  WriteMetrics(single, [](int) { return 0u; });

  const auto by_type = single.ByType();
  ASSERT_EQ(by_type.size(), 3u);
  EXPECT_EQ(by_type.at("test.synthetic").count, 3u);
  const auto striped_by_type = striped.ByType();
  ASSERT_EQ(striped_by_type.size(), by_type.size());
  for (const auto& [type, counter] : by_type) {
    ASSERT_EQ(striped_by_type.count(type), 1u) << type;
    EXPECT_EQ(striped_by_type.at(type).count, counter.count) << type;
    EXPECT_EQ(striped_by_type.at(type).bytes, counter.bytes) << type;
  }
  EXPECT_EQ(single.Counter("rpc.retry:test.other"), 4u);
  EXPECT_EQ(striped.Counter("rpc.retry:test.other"), 4u);
  EXPECT_EQ(striped.Counter("rpc.timeout:test.other"),
            single.Counter("rpc.timeout:test.other"));
  EXPECT_EQ(single.DroppedByLoss(), 6u);
  EXPECT_EQ(striped.DroppedByLoss(), single.DroppedByLoss());
  EXPECT_EQ(striped.DroppedToDownActor(), single.DroppedToDownActor());
  EXPECT_EQ(striped.TotalMessages(), single.TotalMessages());
  EXPECT_EQ(striped.TotalBytes(), single.TotalBytes());
  EXPECT_EQ(striped.RpcRetries(), single.RpcRetries());
  EXPECT_EQ(striped.RpcTimeouts(), single.RpcTimeouts());
  EXPECT_EQ(single.LookupHops().Count(), 16u);
  EXPECT_EQ(striped.LookupHops().Count(), single.LookupHops().Count());
  EXPECT_DOUBLE_EQ(striped.LookupHops().Sum(), single.LookupHops().Sum());
  EXPECT_DOUBLE_EQ(striped.LookupHops().Max(), single.LookupHops().Max());
  EXPECT_FALSE(single.ReceivedBytesPerActor().empty());
  EXPECT_EQ(striped.ReceivedBytesPerActor(), single.ReceivedBytesPerActor());
  EXPECT_EQ(striped.CsvRows(), single.CsvRows());
}

TEST_F(NetworkTest, MetricsResetClears) {
  Recorder a, b;
  const ActorId ida = net_.Register(a);
  const ActorId idb = net_.Register(b);
  net_.Send(ida, idb, std::make_unique<TestMessage>(0));
  sim_.Run();
  net_.metrics().Reset();
  EXPECT_EQ(net_.metrics().TotalMessages(), 0u);
  EXPECT_EQ(net_.metrics().ForType("test.msg").count, 0u);
}

TEST(LatencyModels, ConstantAndFactory) {
  util::Rng rng(2);
  ConstantLatency c(5.0);
  EXPECT_DOUBLE_EQ(c.Sample(rng), 5.0);

  auto model = MakeLatencyModel("constant:2.5");
  EXPECT_DOUBLE_EQ(model->Sample(rng), 2.5);

  auto uniform = MakeLatencyModel("uniform:1:3");
  for (int i = 0; i < 100; ++i) {
    const double v = uniform->Sample(rng);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 3.0);
  }

  auto lognormal = MakeLatencyModel("lognormal:5:0.5");
  for (int i = 0; i < 100; ++i) EXPECT_GT(lognormal->Sample(rng), 0.0);

  // Unknown spec falls back to constant 5.
  EXPECT_DOUBLE_EQ(MakeLatencyModel("bogus")->Sample(rng), 5.0);
}

}  // namespace
}  // namespace peertrack::sim
