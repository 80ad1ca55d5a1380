// Differential harness: full-scan vs incremental invariant auditing.
//
// The incremental monitor's contract is DETECTION EQUIVALENCE — not "finds
// the same bugs eventually" but the same violation set with the same
// open/close sim times. Every scenario here runs twice on identical
// deterministic worlds, once per --invariant-mode, and the two ledgers
// must agree on every (check, subject, first_seen_ms, cleared_ms) tuple.
// The incremental run additionally ends with a forced full cross-check
// sweep that must record zero misses (a miss means a mutation site forgot
// to publish a delta).
//
// Scenarios mirror the seeded corruptions of obs_invariants_test.cpp —
// those tests pin WHAT each check detects; this file pins that the
// incremental path detects it IDENTICALLY — plus the churn-soak schedule,
// which exercises the delta bus under joins, crashes, and graceful leaves.
//
// Every scenario also runs a third time, incremental with the scan's
// key-partitioned phases split four ways (through the monitor's fan-out
// seam, serially and in reverse partition order). Partitioning must be
// invisible: the same ledger in the same record order, the same
// cross-check misses and the same routed-delta count as the one-partition
// incremental run.
//
// Both incremental runs then repeat with a tiny staging cap (through the
// monitor's test seam): one delta in the corruption scenarios, 37 in the
// churn leg. The publish that reaches the cap drains the bus into the
// marks there and then, mid-event, instead of once per scan. Chunked
// draining must be invisible too: the same ledger in the same record
// order, the same cross-check misses and the same routed-delta count as
// the default-cap run at the same fan-out.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/invariants.hpp"
#include "tracking/tracking_system.hpp"
#include "util/format.hpp"

namespace peertrack::obs {
namespace {

enum class Mode { kFull, kIncremental, kSplit };

constexpr std::uint32_t kSplitPartitions = 4;

/// Staging caps of the spill legs. A corruption scenario publishes a
/// handful of deltas between scans, so every publish drains; the churn leg
/// publishes hundreds of thousands, so it drains every few dozen.
constexpr std::size_t kScenarioStagingCap = 1;
constexpr std::size_t kChurnStagingCap = 37;

/// Put `monitor` in `mode`: kSplit is incremental with a four-way fan-out
/// that runs the partitions one after another, last partition first.
/// `staging_cap` 0 keeps the default cap.
void ConfigureMonitor(InvariantMonitor& monitor,
                      tracking::TrackingSystem& system, Mode mode,
                      std::size_t staging_cap) {
  if (mode == Mode::kFull) return;
  if (staging_cap != 0) monitor.SetStagingCap(staging_cap);
  monitor.EnableIncremental(system.network().delta_bus());
  if (mode == Mode::kSplit) {
    monitor.SetFanOut(kSplitPartitions,
                      [](const std::function<void(std::uint32_t)>& fn) {
                        for (std::uint32_t p = kSplitPartitions; p-- > 0;) {
                          fn(p);
                        }
                      });
  }
}

hash::UInt160 Obj(int i) {
  return hash::ObjectKey(util::Format("epc:diff-{}", i));
}

/// One line per ledger violation, open ones with cleared=-1. Sorting makes
/// the comparison order-independent; string form makes gtest failures
/// readable.
std::vector<std::string> LedgerDigest(const InvariantMonitor& monitor) {
  std::vector<std::string> out;
  for (const auto& violation : monitor.ledger().violations()) {
    out.push_back(util::Format(
        "{} [{}] first_seen={:.3f} cleared={:.3f}", violation.check,
        violation.subject, violation.first_seen_ms,
        violation.cleared_ms.value_or(-1.0)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// What a run's monitor ended with: the sorted digest the modes are
/// compared on, plus what partitioning must not change — the ledger in
/// record order (details and actors included), the cross-check misses and
/// the routed-delta count.
struct Outcome {
  std::vector<std::string> digest;
  std::vector<std::string> ledger;
  std::uint64_t misses = 0;
  std::uint64_t deltas = 0;
};

Outcome OutcomeOf(const InvariantMonitor& monitor) {
  Outcome out;
  out.digest = LedgerDigest(monitor);
  for (const auto& violation : monitor.ledger().violations()) {
    out.ledger.push_back(util::Format(
        "{} [{}] actor={} first_seen={:.3f} cleared={:.3f} {}",
        violation.check, violation.subject, violation.actor,
        violation.first_seen_ms, violation.cleared_ms.value_or(-1.0),
        violation.detail));
  }
  out.misses = monitor.CrossCheckMisses();
  out.deltas = monitor.DeltasRouted();
  return out;
}

/// `other` must reproduce `reference` exactly: the ledger in record order,
/// the cross-check misses and the routed-delta count.
void ExpectSameOutcome(const Outcome& reference, const Outcome& other,
                       const std::string& label) {
  EXPECT_EQ(reference.ledger, other.ledger)
      << label << ": the ledger or its record order changed";
  EXPECT_EQ(reference.misses, other.misses) << label;
  EXPECT_EQ(reference.deltas, other.deltas) << label;
}

/// Reruns the incremental leg `incremental`: `run(mode, staging_cap)`
/// returns an outcome. The split run must reproduce the one-partition run,
/// and each must be reproduced by its own rerun at `staging_cap`.
template <typename Run>
void ExpectPartitionAndSpillInvariant(const Outcome& incremental,
                                      const Run& run, std::size_t staging_cap,
                                      const std::string& label) {
  const Outcome split = run(Mode::kSplit, 0);
  ExpectSameOutcome(incremental, split,
                    util::Format("{}: {}-partition scan", label,
                                 kSplitPartitions));
  ExpectSameOutcome(incremental, run(Mode::kIncremental, staging_cap),
                    util::Format("{}: 1 partition, staging cap {}", label,
                                 staging_cap));
  ExpectSameOutcome(split, run(Mode::kSplit, staging_cap),
                    util::Format("{}: {} partitions, staging cap {}", label,
                                 kSplitPartitions, staging_cap));
}

/// Build a world, install the monitor in `mode`, run the scenario, finish
/// with a forced full sweep, and return the monitor's outcome.
/// `World` must default-construct the same deterministic system every time;
/// `scenario(system, monitor)` drives corruption/repair and RunOnce calls.
template <typename World, typename Scenario>
Outcome RunOnce(Mode mode, const Scenario& scenario,
                std::size_t staging_cap = 0) {
  World world;
  tracking::TrackingSystem& system = world.system;
  Registry registry;
  InvariantMonitor monitor(system.simulator(), registry);
  ConfigureMonitor(monitor, system, mode, staging_cap);
  InstallRingChecks(monitor, system.ring());
  InstallTrackingChecks(monitor, system, /*staleness_ms=*/100.0);
  EXPECT_EQ(monitor.Partitions(),
            mode == Mode::kSplit ? kSplitPartitions : 1u);
  scenario(system, monitor);
  // The final sweep doubles as the cross-check: in incremental mode it must
  // find nothing the delta-driven path missed.
  monitor.RunOnce(/*force_full_sweep=*/true);
  if (mode != Mode::kFull) {
    EXPECT_EQ(monitor.CrossCheckMisses(), 0u)
        << "full cross-check sweep found findings the incremental path "
           "had no reason to audit";
    EXPECT_GE(monitor.FullSweeps(), 1u);
    EXPECT_GT(monitor.DeltasRouted(), 0u) << "no deltas reached the monitor";
  }
  if (staging_cap != 0) {
    EXPECT_GT(monitor.Staging().spills, 0u) << "the spill leg never spilled";
  }
  return OutcomeOf(monitor);
}

/// Callable for ExpectPartitionAndSpillInvariant over one scenario.
template <typename World, typename Scenario>
auto Rerun(const Scenario& scenario) {
  return [&scenario](Mode mode, std::size_t staging_cap) {
    return RunOnce<World>(mode, scenario, staging_cap);
  };
}

template <typename World, typename Scenario>
void ExpectIdenticalDetection(const Scenario& scenario,
                              bool expect_violations = true) {
  const auto full = RunOnce<World>(Mode::kFull, scenario).digest;
  const Outcome incremental = RunOnce<World>(Mode::kIncremental, scenario);
  EXPECT_EQ(full, incremental.digest)
      << "incremental mode diverged from the full-scan ground truth";
  if (expect_violations) {
    EXPECT_FALSE(full.empty())
        << "scenario produced no violations at all — it tests nothing";
  }
  ExpectPartitionAndSpillInvariant(incremental, Rerun<World>(scenario),
                                   kScenarioStagingCap, "scenario");
}

// --- Individual-mode worlds (mirrors IndividualFixture) ---------------------

struct IndividualWorld {
  IndividualWorld() : system(MakeConfig()) {
    for (int i = 0; i < 8; ++i) {
      system.CaptureAt(static_cast<std::size_t>(i % 4), Obj(i), 10.0 + i);
      system.CaptureAt(static_cast<std::size_t>((i + 3) % 7), Obj(i),
                       4000.0 + i);
      system.CaptureAt(static_cast<std::size_t>((i + 5) % 9), Obj(i),
                       8000.0 + i);
    }
    system.Run();
    system.FlushAllWindows();
    system.RunUntil(20'000.0);
  }

  static tracking::TrackingSystem MakeConfig() {
    tracking::SystemConfig config;
    config.tracker.mode = tracking::IndexingMode::kIndividual;
    return tracking::TrackingSystem(16, std::move(config));
  }

  tracking::TrackingSystem system;
};

TEST(InvariantDifferential, CleanSettledWorldStaysClean) {
  ExpectIdenticalDetection<IndividualWorld>(
      [](tracking::TrackingSystem& system, InvariantMonitor& monitor) {
        monitor.RunOnce();
        // A fresh capture AFTER the monitor subscribes, so the incremental
        // path actually sees protocol deltas (the fixture's own workload ran
        // before the bus had a listener).
        system.CaptureAt(2, Obj(0), system.simulator().Now() + 5.0);
        system.RunUntil(25'000.0);
        monitor.RunOnce();
        system.RunUntil(30'000.0);
        monitor.RunOnce();
      },
      /*expect_violations=*/false);
}

TEST(InvariantDifferential, BrokenToLinkOpensAndHealsIdentically) {
  ExpectIdenticalDetection<IndividualWorld>(
      [](tracking::TrackingSystem& system, InvariantMonitor& monitor) {
        monitor.RunOnce();  // Scan 0 (full in both modes): clean baseline.
        const auto object = Obj(0);
        tracking::TrackerNode& holder = system.Tracker(3 % 7);
        const auto* visits = holder.iop().VisitsOf(object);
        ASSERT_NE(visits, nullptr);
        const double to_arrived = *visits->front().to_arrived;
        const chord::NodeRef true_to = *visits->front().to;
        holder.mutable_iop().SetTo(object, system.Tracker(12).Self(),
                                   to_arrived);
        monitor.RunOnce();  // Incremental tick must open it.
        system.RunUntil(25'000.0);
        monitor.RunOnce();  // Still open.
        holder.mutable_iop().SetTo(object, true_to, to_arrived);
        system.RunUntil(26'000.0);
        monitor.RunOnce();  // Incremental tick must close it.
      });
}

TEST(InvariantDifferential, BackwardLinkOpensIdentically) {
  ExpectIdenticalDetection<IndividualWorld>(
      [](tracking::TrackingSystem& system, InvariantMonitor& monitor) {
        monitor.RunOnce();
        const auto object = Obj(1);
        tracking::TrackerNode& holder = system.Tracker(1 % 4);
        const auto* visits = holder.iop().VisitsOf(object);
        ASSERT_NE(visits, nullptr);
        const double arrived = visits->front().arrived;
        holder.mutable_iop().SetFrom(object, arrived, system.Tracker(2).Self(),
                                     arrived + 5000.0);
        monitor.RunOnce();
        system.RunUntil(24'000.0);
        monitor.RunOnce();
      });
}

TEST(InvariantDifferential, StaleGatewayEntryOpensAndHealsIdentically) {
  ExpectIdenticalDetection<IndividualWorld>(
      [](tracking::TrackingSystem& system, InvariantMonitor& monitor) {
        monitor.RunOnce();
        const auto object = Obj(2);
        tracking::TrackerNode* gateway = system.OwnerOf(object);
        ASSERT_NE(gateway, nullptr);
        const tracking::IndexEntry* current =
            gateway->individual_index().Find(object);
        ASSERT_NE(current, nullptr);
        const tracking::IndexEntry good = *current;
        gateway->mutable_individual_index().Upsert(
            object, tracking::IndexEntry{system.Tracker(2 % 4).Self(), 12.0});
        monitor.RunOnce();
        system.RunUntil(30'000.0);
        monitor.RunOnce();
        gateway->mutable_individual_index().Upsert(object, good);
        system.RunUntil(31'000.0);
        monitor.RunOnce();
      });
}

TEST(InvariantDifferential, DroppedRecordOpensAndHealsIdentically) {
  ExpectIdenticalDetection<IndividualWorld>(
      [](tracking::TrackingSystem& system, InvariantMonitor& monitor) {
        monitor.RunOnce();
        const auto object = Obj(3);
        tracking::TrackerNode* gateway = system.OwnerOf(object);
        ASSERT_NE(gateway, nullptr);
        const auto dropped =
            gateway->mutable_individual_index().Extract(object);
        ASSERT_TRUE(dropped.has_value());
        monitor.RunOnce();
        system.RunUntil(40'000.0);
        monitor.RunOnce();
        gateway->mutable_individual_index().Upsert(object, *dropped);
        system.RunUntil(41'000.0);
        monitor.RunOnce();
      });
}

// A ring finding on an incremental tick. The finger write publishes only
// kRingFinger, so the tick sees it through the ring scopes' finger marks
// alone; the repair re-wires the whole ring, which publishes a membership
// delta and re-judges every node.
TEST(InvariantDifferential, CorruptFingerOpensAndHealsIdentically) {
  ExpectIdenticalDetection<IndividualWorld>(
      [](tracking::TrackingSystem& system, InvariantMonitor& monitor) {
        monitor.RunOnce();
        chord::ChordRing& ring = system.ring();
        chord::ChordNode& node = ring.Node(3);
        const auto correct = ring.ExpectedSuccessor(node.fingers().Start(40));
        chord::NodeRef wrong = node.Self();
        if (wrong.id == correct.id) wrong = ring.Node(4).Self();
        node.OracleSetFinger(40, wrong);
        monitor.RunOnce();  // Incremental tick must open it.
        system.RunUntil(25'000.0);
        monitor.RunOnce();  // Still open.
        ring.OracleBootstrap();
        system.RunUntil(26'000.0);
        monitor.RunOnce();  // Incremental tick must close it.
      });
}

// Many findings in one scan, spread over the split run's key partitions:
// an incremental tick opens the broken links in holder order and the
// closing full sweep opens the lost records in enumeration order. Neither
// order may reach the ledger.
TEST(InvariantDifferential, ManyFindingsInOneScanOpenIdentically) {
  ExpectIdenticalDetection<IndividualWorld>(
      [](tracking::TrackingSystem& system, InvariantMonitor& monitor) {
        monitor.RunOnce();
        // Objects 0..3 first visit node i % 4 and then move to another node.
        for (int i = 0; i < 4; ++i) {
          tracking::TrackerNode& holder = system.Tracker(i % 4);
          const auto* visits = holder.iop().VisitsOf(Obj(i));
          ASSERT_NE(visits, nullptr);
          holder.mutable_iop().SetTo(Obj(i), system.Tracker(12).Self(),
                                     *visits->front().to_arrived);
        }
        monitor.RunOnce();
        for (int i = 0; i < 8; ++i) {
          tracking::TrackerNode* gateway = system.OwnerOf(Obj(i));
          ASSERT_NE(gateway, nullptr);
          ASSERT_TRUE(
              gateway->mutable_individual_index().Extract(Obj(i)).has_value());
        }
      });
}

// --- Replicated individual-mode world (fused dual-trip scenario) ------------

struct ReplicatedWorld {
  ReplicatedWorld() : system(MakeConfig()) {
    for (int i = 0; i < 8; ++i) {
      system.CaptureAt(static_cast<std::size_t>(i % 4), Obj(i), 10.0 + i);
      system.CaptureAt(static_cast<std::size_t>((i + 3) % 7), Obj(i),
                       4000.0 + i);
      system.CaptureAt(static_cast<std::size_t>((i + 5) % 9), Obj(i),
                       8000.0 + i);
    }
    system.Run();
    system.FlushAllWindows();
    system.RunUntil(20'000.0);
  }

  static tracking::TrackingSystem MakeConfig() {
    tracking::SystemConfig config;
    config.tracker.mode = tracking::IndexingMode::kIndividual;
    config.tracker.replicate_index = true;
    return tracking::TrackingSystem(16, std::move(config));
  }

  tracking::TrackingSystem system;
};

// One corrupting write that trips TWO of the fused object-grain audits on
// the SAME object in the SAME scan: an entry fresher than every replica
// (gateway.replication: successors no longer cover the freshest entry)
// pointing at the wrong site (gateway.staleness: index disagrees with the
// oracle). The fusion shares one oracle fetch and one site resolution per
// object, but each sub-check must still report and heal under its own
// check id.
TEST(InvariantDifferential, DualTripReportsBothFusedCheckIdsIdentically) {
  const auto scenario = [](tracking::TrackingSystem& system,
                           InvariantMonitor& monitor) {
    monitor.RunOnce();
    const auto object = Obj(4);
    tracking::TrackerNode* gateway = system.OwnerOf(object);
    ASSERT_NE(gateway, nullptr);
    const tracking::IndexEntry* current =
        gateway->individual_index().Find(object);
    ASSERT_NE(current, nullptr);
    const tracking::IndexEntry good = *current;
    tracking::IndexEntry corrupt = good;
    corrupt.latest_node = system.Tracker(2).Self();
    corrupt.latest_arrived = system.simulator().Now() - 500.0;
    gateway->mutable_individual_index().Upsert(object, corrupt);
    monitor.RunOnce();  // Incremental tick must open both findings.
    system.RunUntil(25'000.0);
    monitor.RunOnce();
    gateway->mutable_individual_index().Upsert(object, good);
    system.RunUntil(26'000.0);
    monitor.RunOnce();  // ...and close both.
  };
  const auto full = RunOnce<ReplicatedWorld>(Mode::kFull, scenario).digest;
  const Outcome incremental =
      RunOnce<ReplicatedWorld>(Mode::kIncremental, scenario);
  EXPECT_EQ(full, incremental.digest)
      << "incremental mode diverged from the full-scan ground truth";
  ExpectPartitionAndSpillInvariant(incremental,
                                   Rerun<ReplicatedWorld>(scenario),
                                   kScenarioStagingCap, "dual trip");
  const auto count = [&full](const char* check) {
    return std::count_if(full.begin(), full.end(),
                         [check](const std::string& line) {
                           return line.rfind(check, 0) == 0;
                         });
  };
  EXPECT_EQ(count("gateway.staleness"), 1) << "staleness finding missing";
  EXPECT_EQ(count("gateway.replication"), 1) << "replication finding missing";
}

// --- Group-mode worlds (mirrors GroupFixture) -------------------------------

struct GroupWorld {
  GroupWorld() : system(MakeConfig()) {
    for (int i = 0; i < 128; ++i) {
      system.CaptureAt(static_cast<std::size_t>(i % 8), Obj(100 + i),
                       10.0 + i);
    }
    system.Run();
    system.FlushAllWindows();
    system.RunUntil(60'000.0);
  }

  static tracking::TrackingSystem MakeConfig() {
    tracking::SystemConfig config;
    config.scheme = tracking::PrefixScheme::kLogN;
    config.tracker.mode = tracking::IndexingMode::kGroup;
    config.tracker.delegation_threshold = 4;
    return tracking::TrackingSystem(16, std::move(config));
  }

  tracking::TrackingSystem system;
};

/// First (tracker, prefix, object) whose entry sits in a delegated child
/// bucket. Deterministic across runs of the same binary: the world is
/// seeded identically, so store iteration order repeats.
bool FindDelegated(tracking::TrackingSystem& system,
                   tracking::TrackerNode** node, hash::Prefix* prefix,
                   hash::UInt160* object) {
  const unsigned lp = system.CurrentLp();
  for (std::size_t i = 0; i < system.NodeCount(); ++i) {
    tracking::TrackerNode& tracker = system.Tracker(i);
    for (const auto& p : tracker.prefix_store().Prefixes()) {
      if (p.length != lp + 1) continue;
      const auto* bucket = tracker.prefix_store().TryBucket(p);
      if (bucket == nullptr || bucket->Empty()) continue;
      *node = &tracker;
      *prefix = p;
      *object = bucket->Entries().begin()->first;
      return true;
    }
  }
  return false;
}

TEST(InvariantDifferential, DroppedDelegatedRecordOpensIdentically) {
  ExpectIdenticalDetection<GroupWorld>(
      [](tracking::TrackingSystem& system, InvariantMonitor& monitor) {
        monitor.RunOnce();
        tracking::TrackerNode* node = nullptr;
        hash::Prefix prefix;
        hash::UInt160 object;
        ASSERT_TRUE(FindDelegated(system, &node, &prefix, &object));
        auto* bucket = node->mutable_prefix_store().TryBucket(prefix);
        const auto dropped = bucket->Extract(object);
        ASSERT_TRUE(dropped.has_value());
        monitor.RunOnce();
        system.RunUntil(90'000.0);
        monitor.RunOnce();
        bucket->Upsert(object, *dropped);
        system.RunUntil(91'000.0);
        monitor.RunOnce();
      });
}

TEST(InvariantDifferential, DuplicatedRecordOpensIdentically) {
  ExpectIdenticalDetection<GroupWorld>(
      [](tracking::TrackingSystem& system, InvariantMonitor& monitor) {
        monitor.RunOnce();
        tracking::TrackerNode* node = nullptr;
        hash::Prefix prefix;
        hash::UInt160 object;
        ASSERT_TRUE(FindDelegated(system, &node, &prefix, &object));
        const auto* entry = node->prefix_store().TryBucket(prefix)->Find(object);
        ASSERT_NE(entry, nullptr);
        tracking::TrackerNode& other =
            system.Tracker(node == &system.Tracker(0) ? 1 : 0);
        other.mutable_prefix_store().BucketFor(prefix).Upsert(object, *entry);
        monitor.RunOnce();
        system.RunUntil(80'000.0);
        monitor.RunOnce();
      });
}

TEST(InvariantDifferential, MisplacedBucketOpensIdentically) {
  ExpectIdenticalDetection<GroupWorld>(
      [](tracking::TrackingSystem& system, InvariantMonitor& monitor) {
        monitor.RunOnce();
        const unsigned lp = system.CurrentLp();
        const auto stray = hash::Prefix::OfKey(Obj(100), lp + 3);
        tracking::TrackerNode& tracker = system.Tracker(5);
        tracker.mutable_prefix_store().BucketFor(stray).Upsert(
            Obj(100), tracking::IndexEntry{tracker.Self(), 10.0});
        monitor.RunOnce();
        system.RunUntil(70'000.0);
        monitor.RunOnce();
      });
}

// --- Churn-soak differential (mirrors churn_soak_test's schedule) -----------

/// Replays the churn-soak schedule (joins, crashes, graceful leaves,
/// captures, live queries) with a periodically-ticking monitor and returns
/// the violation digest. Same seed + same mode-independent schedule ==
/// identical simulation trajectory, so the two modes' digests must match.
Outcome RunChurn(std::uint64_t seed, Mode mode, std::size_t staging_cap = 0) {
  tracking::SystemConfig config;
  config.tracker.mode = tracking::IndexingMode::kGroup;
  config.tracker.window.tmax_ms = 100.0;
  config.tracker.replicate_index = true;
  config.tracker.query_timeout_ms = 5000.0;
  config.stabilize_every_ms = 100.0;
  config.fix_fingers_every_ms = 10.0;
  config.seed = seed;
  tracking::TrackingSystem system(16, std::move(config));
  util::Rng rng(seed * 7919 + 3);

  std::vector<hash::UInt160> objects;
  for (int i = 0; i < 12; ++i) {
    objects.push_back(
        hash::ObjectKey(util::Format("epc:soak-{}-{}", seed, i)));
  }
  for (std::size_t i = 0; i < objects.size(); ++i) {
    system.CaptureAt(i % 16, objects[i], 10.0 + static_cast<double>(i));
  }
  system.RunUntil(system.simulator().Now() + 3000.0);

  InvariantMonitor monitor(system.simulator(), system.metrics().registry());
  ConfigureMonitor(monitor, system, mode, staging_cap);
  InstallRingChecks(monitor, system.ring());
  InstallTrackingChecks(monitor, system);
  monitor.Start(/*period_ms=*/500.0,
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
  if (mode != Mode::kFull) {
    EXPECT_EQ(monitor.CrossCheckMisses(), 0u)
        << "churn cross-check miss (seed " << seed << ")";
    EXPECT_GT(monitor.DeltasRouted(), 0u);
  }
  if (staging_cap != 0) {
    EXPECT_GT(monitor.Staging().spills, 0u) << "the spill leg never spilled";
  }
  // Both modes must also agree the run is self-healing at quiesce.
  EXPECT_EQ(monitor.OpenViolations(), 0u)
      << "violations still open at quiesce (seed " << seed << ")";
  return OutcomeOf(monitor);
}

class ChurnDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnDifferential, FullAndIncrementalAgreeUnderChurn) {
  const std::uint64_t seed = GetParam();
  const auto full = RunChurn(seed, Mode::kFull).digest;
  const Outcome incremental = RunChurn(seed, Mode::kIncremental);
  EXPECT_EQ(full, incremental.digest)
      << "incremental mode diverged under churn (seed " << seed << ")";
  ExpectPartitionAndSpillInvariant(
      incremental,
      [seed](Mode mode, std::size_t staging_cap) {
        return RunChurn(seed, mode, staging_cap);
      },
      kChurnStagingCap, util::Format("churn seed {}", seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnDifferential,
                         ::testing::Values(11ull, 23ull, 47ull));

}  // namespace
}  // namespace peertrack::obs
