// Sharded kernel vs the single-threaded determinism oracle.
//
// The sharded simulation kernel (sim::ShardEngine) promises OUTCOME
// equivalence, not schedule equivalence: for any shard count S on the same
// seed, the world a run leaves behind — gateway index contents, IOP visit
// chains, query answers, the invariant monitor's violation ledger, the
// whole metrics store (per-type traffic, every registry counter, per-actor
// received bytes) and the event count — must be identical to the S=1 run,
// which executes on the engine's thread-free pass-through. Every scenario here
// runs once per shard count in {1, 2, 4, 8} and diffs a full final-state
// digest against the S=1 oracle.
//
// The scenario is the churn-soak schedule (protocol joins, crashes,
// graceful leaves, captures, live trace/locate queries) with an
// incremental invariant monitor riding along on the control plane — so a
// pass also certifies the observability lanes: the per-shard delta lanes
// the monitor walks at scan time carry exactly the deltas the
// single-threaded run stages (same count routed, zero cross-check
// misses), the flight recorder's per-lane appends add up to the oracle's
// on the loss-free network, and that run self-heals (zero open violations
// at quiesce) at every shard count.
//
// Every actor draws latency, loss and rpc timeout jitter from its own
// stream at every shard count, so the friendly network (constant latency,
// no loss) and a lossy, jittery one (uniform 4-6 ms latency, 5% loss) are
// both held to the oracle. Preconditions baked into the config (see
// DESIGN.md §13):
//   * fractional control-plane times (leave settle 2500.13 ms, monitor
//     period 500.13 ms) so no control event shares an instant with
//     protocol events — the engine's control-before-shard tie rule and
//     the S=1 heap's FIFO tie rule then cannot disagree;
//   * delegation disabled: the delegated-ascent fast path makes
//     synchronous cross-actor calls, which the colocation contract forbids
//     across shards (TrackerByActor asserts on it in Debug).

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "obs/invariants.hpp"
#include "tracking/tracking_system.hpp"
#include "util/format.hpp"

namespace peertrack::sim {
namespace {

hash::UInt160 Obj(std::uint64_t seed, int i) {
  return hash::ObjectKey(util::Format("epc:shard-{}-{}", seed, i));
}

/// Everything externally observable about a finished world, one sorted
/// string per fact. String form keeps gtest failure diffs readable; the
/// digest is order-independent except where order is meaningful (a trace
/// path's step sequence stays inside one line).
struct Digest {
  std::vector<std::string> lines;

  void Add(std::string line) { lines.push_back(std::move(line)); }
  void Sort() { std::sort(lines.begin(), lines.end()); }
};

void DigestLedger(const obs::InvariantMonitor& monitor, Digest& out) {
  for (const auto& violation : monitor.ledger().violations()) {
    out.Add(util::Format("ledger {} [{}] first_seen={:.3f} cleared={:.3f}",
                         violation.check, violation.subject,
                         violation.first_seen_ms,
                         violation.cleared_ms.value_or(-1.0)));
  }
}

void DigestIndexes(tracking::TrackingSystem& system, Digest& out) {
  for (std::size_t i = 0; i < system.NodeCount(); ++i) {
    tracking::TrackerNode& tracker = system.Tracker(i);
    const std::uint32_t actor = tracker.Self().actor;
    for (const hash::Prefix& prefix : tracker.prefix_store().Prefixes()) {
      const auto* bucket = tracker.prefix_store().TryBucket(prefix);
      if (bucket == nullptr) continue;
      for (const auto& [object, entry] : bucket->Entries()) {
        out.Add(util::Format("index actor={} prefix={} obj={} at={} t={:.3f}",
                             actor, prefix.ToString(), object.ToShortHex(),
                             entry.latest_node.actor, entry.latest_arrived));
      }
    }
  }
}

void DigestIop(tracking::TrackingSystem& system,
               const std::vector<hash::UInt160>& objects, Digest& out) {
  for (std::size_t i = 0; i < system.NodeCount(); ++i) {
    tracking::TrackerNode& tracker = system.Tracker(i);
    const std::uint32_t actor = tracker.Self().actor;
    for (const hash::UInt160& object : objects) {
      const auto* visits = tracker.iop().VisitsOf(object);
      if (visits == nullptr) continue;
      for (const moods::Visit& visit : *visits) {
        out.Add(util::Format(
            "iop actor={} obj={} arrived={:.3f} from={} from_t={:.3f} to={} "
            "to_t={:.3f}",
            actor, object.ToShortHex(), visit.arrived,
            visit.from.has_value() ? static_cast<int>(visit.from->actor) : -1,
            visit.from_arrived.value_or(-1.0),
            visit.to.has_value() ? static_cast<int>(visit.to->actor) : -1,
            visit.to_arrived.value_or(-1.0)));
      }
    }
  }
}

/// The whole metrics store: per-type traffic, every registry counter
/// (per-type drop/rpc families included) and per-actor received bytes.
void DigestMetrics(const Metrics& metrics, Digest& out) {
  for (const auto& [type, counter] : metrics.ByType()) {
    out.Add(util::Format("type {} count={} bytes={}", type, counter.count,
                         counter.bytes));
  }
  for (const auto& [name, counter] : metrics.registry().counters()) {
    out.Add(util::Format("counter {}={}", name, counter.Value()));
  }
  const std::vector<std::uint64_t> received = metrics.ReceivedBytesPerActor();
  for (std::size_t actor = 0; actor < received.size(); ++actor) {
    out.Add(util::Format("received actor={} bytes={}", actor, received[actor]));
  }
}

/// One trace + one locate per object from a fixed origin; answers (path
/// actor/arrival sequences included) go into the digest verbatim.
void DigestQueries(tracking::TrackingSystem& system,
                   const std::vector<hash::UInt160>& objects, Digest& out) {
  std::vector<std::size_t> alive;
  for (std::size_t i = 0; i < system.NodeCount(); ++i) {
    if (system.Tracker(i).chord().Alive() && !system.Tracker(i).Leaving()) {
      alive.push_back(i);
    }
  }
  ASSERT_FALSE(alive.empty());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const hash::UInt160& object = objects[i];
    const std::size_t origin = alive[i % alive.size()];
    tracking::TrackerNode::TraceResult trace;
    system.TraceQuery(origin, object,
                      [&trace](tracking::TrackerNode::TraceResult result) {
                        trace = std::move(result);
                      });
    // Maintenance timers re-arm forever, so the queue never drains — run
    // long enough for the query (timeout 5000 ms) to resolve either way.
    system.RunUntil(system.simulator().Now() + 6000.0);
    std::string path;
    for (const auto& step : trace.path) {
      path += util::Format("({},{:.3f})", step.node.actor, step.arrived);
    }
    out.Add(util::Format("trace obj={} ok={} broken={} path={}",
                         object.ToShortHex(), trace.ok, trace.chain_broken,
                         path));
    tracking::TrackerNode::LocateResult locate;
    system.LocateQuery(origin, object,
                       [&locate](tracking::TrackerNode::LocateResult result) {
                         locate = result;
                       });
    system.RunUntil(system.simulator().Now() + 6000.0);
    out.Add(util::Format("locate obj={} ok={} node={} arrived={:.3f}",
                         object.ToShortHex(), locate.ok,
                         locate.ok ? static_cast<int>(locate.node.actor) : -1,
                         locate.arrived));
  }
}

/// The network a world runs on.
struct Weather {
  const char* latency;
  double loss;
};
/// Constant latency and no loss: many same-instant ties, no draws on the
/// wire (rpc timeouts still draw jitter).
constexpr Weather kCalm{"constant:5", 0.0};
/// Every send draws latency and a loss roll from its sender's stream, and
/// lost messages drive rpc retries with jittered timeouts.
constexpr Weather kLossy{"uniform:4:6", 0.05};

/// Run the churn scenario at `shards` and return the final-state digest.
/// `staging_cap` 0 keeps the monitor's default staging cap.
std::vector<std::string> RunWorld(std::uint64_t seed, std::size_t shards,
                                  const Weather& weather,
                                  std::size_t staging_cap = 0) {
  tracking::SystemConfig config;
  config.tracker.mode = tracking::IndexingMode::kGroup;
  config.tracker.window.tmax_ms = 100.0;
  config.tracker.replicate_index = true;
  config.tracker.query_timeout_ms = 5000.0;
  // Fractional so FinishLeave never shares an instant with protocol events.
  config.tracker.leave_settle_ms = 2500.13;
  config.tracker.delegation_threshold = std::numeric_limits<std::size_t>::max();
  config.stabilize_every_ms = 100.0;
  config.fix_fingers_every_ms = 10.0;
  config.latency = weather.latency;
  config.seed = seed;
  config.shards = shards;
  tracking::TrackingSystem system(16, std::move(config));
  system.network().SetLossRate(weather.loss);
  // The calm worlds also record: every lane's appends must add up to the
  // oracle's. (The lossy leg stays recorder-free to keep its run time.)
  if (weather.loss == 0.0) {
    system.network().EnableRecorder(/*events_per_actor=*/256);
  }
  util::Rng rng(seed * 7919 + 3);

  std::vector<hash::UInt160> objects;
  for (int i = 0; i < 12; ++i) objects.push_back(Obj(seed, i));
  for (std::size_t i = 0; i < objects.size(); ++i) {
    system.CaptureAt(i % 16, objects[i], 10.0 + static_cast<double>(i));
  }
  system.RunUntil(system.simulator().Now() + 3000.0);

  obs::InvariantMonitor monitor(system.MonitorSimulator(),
                                system.metrics().registry());
  if (staging_cap != 0) monitor.SetStagingCap(staging_cap);
  monitor.EnableIncremental(system.network().delta_bus());
  obs::InstallRingChecks(monitor, system.ring());
  obs::InstallTrackingChecks(monitor, system);
  monitor.Start(/*period_ms=*/500.13,
                /*until_ms=*/system.simulator().Now() + 400000.0);

  const auto usable = [&system] {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < system.NodeCount(); ++i) {
      auto& tracker = system.Tracker(i);
      if (tracker.chord().Alive() && !tracker.Leaving()) out.push_back(i);
    }
    return out;
  };

  int joins_left = 3, crashes_left = 3, leaves_left = 3;
  for (int round = 0; round < 30; ++round) {
    const auto nodes = usable();
    EXPECT_GE(nodes.size(), 2u);
    const std::uint64_t op = rng.Next() % 10;
    bool destructive = false;
    if (op == 6 && joins_left > 0) {
      system.ProtocolJoinNode();
      --joins_left;
      destructive = true;
    } else if (op == 7 && crashes_left > 0 && nodes.size() > 10) {
      system.CrashNode(nodes[rng.Next() % nodes.size()]);
      --crashes_left;
      destructive = true;
    } else if (op == 8 && leaves_left > 0 && nodes.size() > 10) {
      system.LeaveNode(nodes[rng.Next() % nodes.size()]);
      --leaves_left;
      destructive = true;
    } else if (op == 4 || op == 5) {
      const auto& object = objects[rng.Next() % objects.size()];
      const std::size_t origin = nodes[rng.Next() % nodes.size()];
      if (op == 4) {
        system.LocateQuery(origin, object,
                           [](tracking::TrackerNode::LocateResult) {});
      } else {
        system.TraceQuery(origin, object,
                          [](tracking::TrackerNode::TraceResult) {});
      }
    } else {
      const auto& object = objects[rng.Next() % objects.size()];
      const std::size_t node = nodes[rng.Next() % nodes.size()];
      system.CaptureAt(node, object, system.simulator().Now() + 10.0);
    }
    system.RunUntil(system.simulator().Now() + (destructive ? 6000.0 : 800.0));
  }
  system.RunUntil(system.simulator().Now() + 60000.0);
  monitor.RunOnce(/*force_full_sweep=*/true);

  // The lane walk must be equivalent to single-lane staging: the forced
  // full sweep re-audits the universe and must find nothing the
  // delta-driven path missed, at every shard count.
  EXPECT_EQ(monitor.CrossCheckMisses(), 0u)
      << "cross-check miss (seed " << seed << ", shards " << shards << ")";
  EXPECT_GT(monitor.DeltasRouted(), 0u);
  if (weather.loss == 0.0) {
    // Under loss, rpc retries that run out evict live peers for good, so
    // the ring does not heal by quiesce; the lossy leg holds its (open)
    // ledger to the oracle through the digest instead.
    EXPECT_EQ(monitor.OpenViolations(), 0u)
        << "violations open at quiesce (seed " << seed << ", shards "
        << shards << ")";
  }

  const ShardEngine& engine = *system.engine();
  EXPECT_EQ(engine.ShardCount(), shards);
  if (shards > 1) {
    // The parallel path must actually have run, and the colocation
    // contract must have held throughout.
    EXPECT_GT(engine.WindowsExecuted(), 0u);
    EXPECT_GT(engine.CrossShardMessages(), 0u);
    EXPECT_EQ(engine.CrossShardDirectCalls(), 0u);
  } else {
    EXPECT_EQ(engine.WindowsExecuted(), 0u)
        << "shards=1 must run the thread-free pass-through";
  }
  if (staging_cap != 0 && shards > 1) {
    // The low-cap leg must drain from the window epilogue, not only from
    // coordinator-side publishes and scans.
    EXPECT_GT(monitor.Staging().barrier_spills, 0u)
        << "no drain after a window (seed " << seed << ", shards " << shards
        << ")";
  }
  if (weather.loss > 0.0) {
    EXPECT_GT(system.metrics().DroppedByLoss(), 0u);
    EXPECT_GT(system.metrics().RpcRetries(), 0u);
  }

  Digest digest;
  DigestLedger(monitor, digest);
  DigestIndexes(system, digest);
  DigestIop(system, objects, digest);
  DigestQueries(system, objects, digest);
  digest.Add(util::Format(
      "metrics messages={} bytes={} lost={} retries={} timeouts={} events={}",
      system.metrics().TotalMessages(), system.metrics().TotalBytes(),
      system.metrics().DroppedByLoss(), system.metrics().RpcRetries(),
      system.metrics().RpcTimeouts(), system.ProcessedEvents()));
  // Every lane's staged deltas reach the monitor exactly once, and every
  // lane's recorder appends are counted exactly once.
  const obs::FlightRecorder* recorder = system.network().recorder();
  digest.Add(util::Format(
      "obs deltas_routed={} events_recorded={}", monitor.DeltasRouted(),
      recorder != nullptr ? recorder->EventsRecorded() : 0));
  DigestMetrics(system.metrics(), digest);
  digest.Sort();
  return digest.lines;
}

/// The digest lines only one side has, marked "-" (oracle) or "+" (sharded).
std::string DigestDiff(const std::vector<std::string>& oracle,
                       const std::vector<std::string>& sharded) {
  std::vector<std::string> only_oracle, only_sharded;
  std::set_difference(oracle.begin(), oracle.end(), sharded.begin(),
                      sharded.end(), std::back_inserter(only_oracle));
  std::set_difference(sharded.begin(), sharded.end(), oracle.begin(),
                      oracle.end(), std::back_inserter(only_sharded));
  std::string out;
  for (const std::string& line : only_oracle) out += "\n- " + line;
  for (const std::string& line : only_sharded) out += "\n+ " + line;
  return out;
}

void ExpectShardInvariant(std::uint64_t seed, const Weather& weather) {
  const auto oracle = RunWorld(seed, 1, weather);
  EXPECT_FALSE(oracle.empty());
  for (const std::size_t shards : {2ul, 4ul, 8ul}) {
    const auto sharded = RunWorld(seed, shards, weather);
    EXPECT_TRUE(oracle == sharded)
        << "sharded kernel diverged from the single-threaded oracle (seed "
        << seed << ", shards " << shards << ", latency " << weather.latency
        << ", loss " << weather.loss << "):" << DigestDiff(oracle, sharded);
  }
}

class ShardDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardDifferential, AllShardCountsMatchTheSingleThreadedOracle) {
  ExpectShardInvariant(GetParam(), kCalm);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDifferential,
                         ::testing::Values(11ull, 23ull, 47ull));

TEST(ShardDifferentialLossy, JitteryLossyNetworkMatchesAtEveryShardCount) {
  ExpectShardInvariant(/*seed=*/11, kLossy);
}

// The default staging cap is far above what this 16-node world stages
// between scans, so the legs above drain once per scan. With a cap of 32
// deltas the monitor drains mid-run: from publishes on the coordinator
// and, at S > 1, from the engine's window epilogue. Chunked draining must
// leave every digest line — deltas_routed and the ledger included —
// equal to the default-cap oracle.
TEST(ShardDifferentialSpill, LowStagingCapMatchesTheOracle) {
  constexpr std::uint64_t kSeed = 11;
  constexpr std::size_t kLowCap = 32;
  const auto oracle = RunWorld(kSeed, 1, kCalm);
  for (const std::size_t shards : {2ul, 4ul}) {
    const auto spilled = RunWorld(kSeed, shards, kCalm, kLowCap);
    EXPECT_TRUE(oracle == spilled)
        << "low staging cap diverged from the oracle (shards " << shards
        << "):" << DigestDiff(oracle, spilled);
  }
}

}  // namespace
}  // namespace peertrack::sim
