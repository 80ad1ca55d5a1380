// Invariant monitor: ledger open/close semantics, sim-clock scheduling
// edge cases, and seeded-corruption detection (break a link, stale an
// index entry, drop a delegated record — assert the right check fires,
// then heals after repair).

#include <gtest/gtest.h>

#include "chord/chord_ring.hpp"
#include "obs/invariants.hpp"
#include "tracking/tracking_system.hpp"
#include "util/format.hpp"

namespace peertrack::obs {
namespace {

// --- HealthLedger -----------------------------------------------------------

Finding MakeFinding(std::string subject) {
  return Finding{1, std::move(subject), "detail"};
}

TEST(HealthLedger, OpensRefreshesAndCloses) {
  HealthLedger ledger;

  auto delta = ledger.Reconcile("c", Severity::kError, {MakeFinding("s")}, 100.0);
  EXPECT_EQ(delta.opened, 1u);
  EXPECT_EQ(ledger.OpenCount(), 1u);
  ASSERT_EQ(ledger.violations().size(), 1u);
  EXPECT_DOUBLE_EQ(ledger.violations()[0].first_seen_ms, 100.0);
  EXPECT_TRUE(ledger.violations()[0].Open());

  delta = ledger.Reconcile("c", Severity::kError, {MakeFinding("s")}, 200.0);
  EXPECT_EQ(delta.opened, 0u);
  EXPECT_EQ(delta.refreshed, 1u);
  EXPECT_DOUBLE_EQ(ledger.violations()[0].last_seen_ms, 200.0);

  delta = ledger.Reconcile("c", Severity::kError, {}, 350.0);
  ASSERT_EQ(delta.repaired_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(delta.repaired_ms[0], 250.0);
  EXPECT_EQ(ledger.OpenCount(), 0u);
  EXPECT_FALSE(ledger.violations()[0].Open());
  EXPECT_DOUBLE_EQ(*ledger.violations()[0].cleared_ms, 350.0);
  EXPECT_DOUBLE_EQ(ledger.violations()[0].RepairMs(), 250.0);
}

TEST(HealthLedger, ClosesEvenAtTheSameTimestamp) {
  // Two reconciles at the same sim time (e.g. two manual RunOnce calls):
  // the second, finding-free one must still close the violation.
  HealthLedger ledger;
  ledger.Reconcile("c", Severity::kWarn, {MakeFinding("s")}, 50.0);
  const auto delta = ledger.Reconcile("c", Severity::kWarn, {}, 50.0);
  ASSERT_EQ(delta.repaired_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(delta.repaired_ms[0], 0.0);
  EXPECT_EQ(ledger.OpenCount(), 0u);
}

TEST(HealthLedger, ChecksAndSubjectsAreIndependent) {
  HealthLedger ledger;
  ledger.Reconcile("a", Severity::kWarn, {MakeFinding("s1"), MakeFinding("s2")}, 1.0);
  ledger.Reconcile("b", Severity::kFatal, {MakeFinding("s1")}, 1.0);
  EXPECT_EQ(ledger.OpenCount(), 3u);
  EXPECT_EQ(ledger.OpenCount("a"), 2u);
  EXPECT_EQ(ledger.OpenCount("b"), 1u);
  EXPECT_EQ(ledger.OpenFatalCount(), 1u);

  // Closing check a's s1 must not touch check b's s1.
  ledger.Reconcile("a", Severity::kWarn, {MakeFinding("s2")}, 2.0);
  EXPECT_EQ(ledger.OpenCount("a"), 1u);
  EXPECT_EQ(ledger.OpenCount("b"), 1u);
  EXPECT_EQ(ledger.OpenFatalCount(), 1u);
}

TEST(HealthLedger, ReopenedFaultIsANewViolation) {
  HealthLedger ledger;
  ledger.Reconcile("c", Severity::kWarn, {MakeFinding("s")}, 10.0);
  ledger.Reconcile("c", Severity::kWarn, {}, 20.0);
  ledger.Reconcile("c", Severity::kWarn, {MakeFinding("s")}, 30.0);
  ASSERT_EQ(ledger.violations().size(), 2u);
  EXPECT_FALSE(ledger.violations()[0].Open());
  EXPECT_TRUE(ledger.violations()[1].Open());
  EXPECT_DOUBLE_EQ(ledger.violations()[1].first_seen_ms, 30.0);
}

// --- HealthReport rendering -------------------------------------------------

TEST(HealthReport, JsonAndTableRenderOpenViolations) {
  sim::Simulator sim;
  Registry registry;
  InvariantMonitor monitor(sim, registry);
  bool broken = true;
  monitor.AddCheck("test.check", Severity::kFatal, [&](CheckContext& ctx) {
    if (broken) ctx.Report(7, "subject-1", "it broke");
  });
  monitor.RunOnce();

  const HealthReport report = monitor.Report();
  EXPECT_EQ(report.open_violations, 1u);
  EXPECT_EQ(report.open_fatal, 1u);
  EXPECT_FALSE(report.Healthy());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_TRUE(report.violations[0].Open());

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\": \"peertrack.health.v2\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": \"test.check\""), std::string::npos);
  // Object-less violation: the v2 per-violation object key renders null.
  EXPECT_NE(json.find("\"object\": null"), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"fatal\""), std::string::npos);
  EXPECT_NE(json.find("\"cleared_ms\": null"), std::string::npos);
  EXPECT_NE(json.find("\"open\": true"), std::string::npos);

  const std::string table = report.SummaryTable();
  EXPECT_NE(table.find("test.check"), std::string::npos);
  EXPECT_NE(table.find("UNHEALTHY"), std::string::npos);

  // Heal and re-report: cleared_ms becomes a number, verdict flips.
  broken = false;
  monitor.RunOnce();
  const HealthReport healed = monitor.Report();
  EXPECT_TRUE(healed.Healthy());
  EXPECT_EQ(healed.ToJson().find("\"cleared_ms\": null"), std::string::npos);
  EXPECT_NE(healed.SummaryTable().find("HEALTHY"), std::string::npos);
}

TEST(HealthReport, JsonEscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

// --- Monitor scheduling (satellite: cadence vs RunUntil boundaries) ---------

TEST(InvariantMonitor, CadenceRespectsRunUntilBoundaries) {
  sim::Simulator sim;
  Registry registry;
  InvariantMonitor monitor(sim, registry);
  std::vector<double> scan_times;
  monitor.AddCheck("noop", Severity::kWarn,
                   [&](CheckContext& ctx) { scan_times.push_back(ctx.Now()); });

  monitor.Start(100.0, 1000.0);  // Scan at t=0 immediately, then every 100.
  EXPECT_EQ(monitor.ScansRun(), 1u);

  sim.RunUntil(250.0);  // Picks up the t=100 and t=200 ticks only.
  EXPECT_EQ(monitor.ScansRun(), 3u);
  EXPECT_EQ(scan_times.back(), 200.0);

  sim.RunUntil(5000.0);  // The horizon caps the schedule at t=1000.
  EXPECT_EQ(monitor.ScansRun(), 11u);
  EXPECT_EQ(scan_times.back(), 1000.0);
  // Nothing rescheduled past the horizon: the queue must be drained, or the
  // monitor would keep otherwise-finished simulations alive.
  EXPECT_EQ(sim.PendingEvents(), 0u);

  const Registry& reg = registry;
  EXPECT_EQ(reg.CounterValue("invariant.scans"), 11u);
  EXPECT_EQ(reg.CounterValue("invariant.pass:noop"), 11u);
}

TEST(InvariantMonitor, AttachedMidRunScansFromCurrentTime) {
  sim::Simulator sim;
  Registry registry;
  sim.RunUntil(500.0);  // The simulation is already under way.

  InvariantMonitor monitor(sim, registry);
  std::vector<double> scan_times;
  monitor.AddCheck("noop", Severity::kWarn,
                   [&](CheckContext& ctx) { scan_times.push_back(ctx.Now()); });
  monitor.Start(100.0, 1000.0);
  EXPECT_EQ(scan_times.front(), 500.0);

  sim.RunUntil(2000.0);
  EXPECT_EQ(monitor.ScansRun(), 6u);  // 500, 600, ..., 1000.
  EXPECT_EQ(scan_times.back(), 1000.0);
}

TEST(InvariantMonitor, ZeroPeriodMeansSingleScan) {
  sim::Simulator sim;
  Registry registry;
  InvariantMonitor monitor(sim, registry);
  monitor.AddCheck("noop", Severity::kWarn, [](CheckContext&) {});
  monitor.Start(0.0, 1e9);
  sim.RunUntil(1000.0);
  EXPECT_EQ(monitor.ScansRun(), 1u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(InvariantMonitor, EndOfRunViolationsReportStillOpen) {
  sim::Simulator sim;
  Registry registry;
  InvariantMonitor monitor(sim, registry);
  monitor.AddCheck("stuck", Severity::kError,
                   [](CheckContext& ctx) { ctx.Report(3, "never-heals", "broken"); });
  monitor.Start(100.0, 300.0);
  sim.RunUntil(10'000.0);  // Run ends; the fault never cleared.

  const HealthReport report = monitor.Report();
  EXPECT_EQ(report.scans, 4u);
  EXPECT_EQ(report.open_violations, 1u);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_TRUE(report.violations[0].Open());
  EXPECT_FALSE(report.violations[0].cleared_ms.has_value());
  EXPECT_DOUBLE_EQ(report.violations[0].first_seen_ms, 0.0);
  EXPECT_DOUBLE_EQ(report.violations[0].last_seen_ms, 300.0);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_EQ(report.checks[0].opened, 1u);
  EXPECT_EQ(report.checks[0].healed, 0u);
  EXPECT_EQ(report.checks[0].open, 1u);
}

TEST(InvariantMonitor, RepairLatencyFeedsHistograms) {
  sim::Simulator sim;
  Registry registry;
  InvariantMonitor monitor(sim, registry);
  bool broken = false;
  monitor.AddCheck("flaky", Severity::kError, [&](CheckContext& ctx) {
    if (broken) ctx.Report(1, "fault", "transient");
  });
  monitor.Start(100.0, 2000.0);

  sim.RunUntil(400.0);
  broken = true;  // Fault appears; first seen at the t=500 scan.
  sim.RunUntil(900.0);
  broken = false;  // Healed; first clean scan at t=1000.
  sim.RunUntil(2000.0);

  const HealthReport report = monitor.Report();
  EXPECT_TRUE(report.Healthy());
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_EQ(report.checks[0].opened, 1u);
  EXPECT_EQ(report.checks[0].healed, 1u);
  EXPECT_EQ(report.checks[0].repair.count, 1u);
  // Opened at the 500 scan, cleared at the 1000 scan: 500 ms to repair
  // (scan-granular; the histogram is log-bucketed so allow bucket error).
  EXPECT_NEAR(report.checks[0].repair.p50_ms, 500.0, 50.0);

  const Histogram* repair = registry.FindHistogram("invariant.repair_ms:flaky");
  ASSERT_NE(repair, nullptr);
  EXPECT_EQ(repair->Count(), 1u);
  EXPECT_EQ(registry.FindHistogram("invariant.repair_ms")->Count(), 1u);
  EXPECT_EQ(registry.CounterValue("invariant.violations_opened"), 1u);
  EXPECT_EQ(registry.CounterValue("invariant.violations_healed"), 1u);
}

// --- Incremental attachment -------------------------------------------------

TEST(InvariantMonitor, SecondMonitorOnClaimedBusStaysInFullMode) {
  sim::Simulator sim;
  Registry registry;
  StateDeltaBus bus;
  InvariantMonitor first(sim, registry);
  ASSERT_TRUE(first.EnableIncremental(bus));
  {
    InvariantMonitor second(sim, registry);
    EXPECT_FALSE(second.EnableIncremental(bus));
    EXPECT_FALSE(second.IncrementalEnabled());
    bool incremental = true;
    bool full_pass = false;
    second.AddCheck("probe", Severity::kWarn, [&](CheckContext& ctx) {
      incremental = ctx.Incremental();
      full_pass = ctx.FullPass();
    });
    second.RunOnce();
    second.RunOnce();
    EXPECT_FALSE(incremental);
    EXPECT_TRUE(full_pass);
    EXPECT_EQ(second.FullSweeps(), second.ScansRun());
  }
  // The refused monitor never held the claim, so its destruction must not
  // release the first monitor's staging.
  EXPECT_TRUE(bus.Staging());
  EXPECT_TRUE(first.IncrementalEnabled());
}

TEST(InvariantMonitor, IncrementalWithoutInstallersClearsBacklog) {
  sim::Simulator sim;
  Registry registry;
  StateDeltaBus bus;
  InvariantMonitor monitor(sim, registry);
  ASSERT_TRUE(monitor.EnableIncremental(bus));
  for (std::uint32_t actor = 0; actor < 5; ++actor) {
    bus.Publish(StateDelta::Ring(DeltaKind::kRingNeighbors, actor));
  }
  bus.Publish(StateDelta::Global(DeltaKind::kLpChange));
  EXPECT_EQ(bus.StagedCount(), 6u);
  monitor.RunOnce();
  EXPECT_EQ(bus.StagedCount(), 0u);
  EXPECT_TRUE(bus.Staged(0).empty());
  EXPECT_EQ(monitor.DeltasRouted(), 6u);
}

// --- Ring checks: seeded corruption ----------------------------------------

class RingFixture {
 public:
  explicit RingFixture(std::size_t n)
      : latency_(5.0), net_(sim_, latency_, /*seed=*/42), ring_(net_) {
    for (std::size_t i = 0; i < n; ++i) {
      ring_.AddNode(util::Format("node-{}", i));
    }
    ring_.OracleBootstrap();
  }

  sim::Simulator sim_;
  sim::ConstantLatency latency_;
  sim::Network net_;
  chord::ChordRing ring_;
};

/// Open violations of `check`, by id.
std::size_t OpenOf(const InvariantMonitor& monitor, std::string_view check) {
  return monitor.ledger().OpenCount(check);
}

TEST(RingChecks, ConvergedRingIsClean) {
  RingFixture f(24);
  Registry registry;
  InvariantMonitor monitor(f.sim_, registry);
  InstallRingChecks(monitor, f.ring_);
  monitor.RunOnce();
  EXPECT_EQ(monitor.OpenViolations(), 0u);
}

TEST(RingChecks, CorruptFingerFiresAndHeals) {
  RingFixture f(16);
  Registry registry;
  InvariantMonitor monitor(f.sim_, registry);
  InstallRingChecks(monitor, f.ring_);

  // Point node 3's finger 40 at the wrong node (itself cannot be the
  // successor of start(40) in a 16-node ring with these ids — but pick a
  // definitely-wrong target: the node's own ref).
  chord::ChordNode& node = f.ring_.Node(3);
  const auto correct = f.ring_.ExpectedSuccessor(node.fingers().Start(40));
  chord::NodeRef wrong = node.Self();
  if (wrong.id == correct.id) wrong = f.ring_.Node(4).Self();
  node.OracleSetFinger(40, wrong);

  monitor.RunOnce();
  EXPECT_EQ(OpenOf(monitor, "ring.finger"), 1u);
  const auto& violations = monitor.ledger().violations();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].check, "ring.finger");
  EXPECT_EQ(violations[0].subject, util::Format("{}#f{}", node.Address(), 40));
  EXPECT_DOUBLE_EQ(violations[0].first_seen_ms, 0.0);

  // Repair (re-wire the exact ring) and advance the clock: the violation
  // closes with open/close sim times.
  f.sim_.RunUntil(750.0);
  f.ring_.OracleBootstrap();
  monitor.RunOnce();
  EXPECT_EQ(monitor.OpenViolations(), 0u);
  EXPECT_FALSE(violations[0].Open());
  EXPECT_DOUBLE_EQ(*violations[0].cleared_ms, 750.0);
  EXPECT_DOUBLE_EQ(violations[0].RepairMs(), 750.0);
}

TEST(RingChecks, CorruptSuccessorFires) {
  RingFixture f(12);
  Registry registry;
  InvariantMonitor monitor(f.sim_, registry);
  InstallRingChecks(monitor, f.ring_);

  // Rewire node 5's successor pointer to itself: both the successor check
  // and the successor-list prefix check must fire for exactly that node.
  chord::ChordNode& node = f.ring_.Node(5);
  const auto predecessor = node.Predecessor();
  node.OracleWire(predecessor, {node.Self()});

  monitor.RunOnce();
  EXPECT_EQ(OpenOf(monitor, "ring.successor"), 1u);
  EXPECT_EQ(OpenOf(monitor, "ring.successor_list"), 1u);
  EXPECT_EQ(OpenOf(monitor, "ring.predecessor"), 0u);

  f.sim_.RunUntil(100.0);
  f.ring_.OracleBootstrap();
  monitor.RunOnce();
  EXPECT_EQ(monitor.OpenViolations(), 0u);
}

// --- Tracking checks: seeded corruption ------------------------------------

hash::UInt160 Obj(int i) { return hash::ObjectKey(util::Format("epc:obj-{}", i)); }

/// Small settled individual-mode network: 3 hops per object, fully drained.
struct IndividualFixture {
  IndividualFixture() : system(MakeConfig()) {
    for (int i = 0; i < 8; ++i) {
      system.CaptureAt(static_cast<std::size_t>(i % 4), Obj(i), 10.0 + i);
      system.CaptureAt(static_cast<std::size_t>((i + 3) % 7), Obj(i), 4000.0 + i);
      system.CaptureAt(static_cast<std::size_t>((i + 5) % 9), Obj(i), 8000.0 + i);
    }
    system.Run();
    system.FlushAllWindows();
    system.RunUntil(20'000.0);  // Everything long settled.
  }

  static tracking::TrackingSystem MakeConfig() {
    tracking::SystemConfig config;
    config.tracker.mode = tracking::IndexingMode::kIndividual;
    return tracking::TrackingSystem(16, std::move(config));
  }

  tracking::TrackingSystem system;
};

TEST(TrackingChecks, SettledIndividualRunIsClean) {
  IndividualFixture f;
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  InstallTrackingChecks(monitor, f.system, /*staleness_ms=*/100.0);
  monitor.RunOnce();
  EXPECT_EQ(monitor.OpenViolations(), 0u);
  EXPECT_EQ(registry.CounterValue("invariant.pass:iop.link"), 1u);
  EXPECT_EQ(registry.CounterValue("invariant.pass:gateway.staleness"), 1u);
  EXPECT_EQ(registry.CounterValue("invariant.pass:triangle.coverage"), 1u);
}

TEST(TrackingChecks, BrokenToLinkFiresIopLinkThenHeals) {
  IndividualFixture f;
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  InstallTrackingChecks(monitor, f.system, /*staleness_ms=*/100.0);

  // Find the tracker holding obj 0's middle visit and corrupt its to-link
  // to reference a node that never saw the object.
  const auto object = Obj(0);
  const std::size_t middle = 3 % 7;  // Second capture site of obj 0.
  tracking::TrackerNode& holder = f.system.Tracker(middle);
  const auto* visits = holder.iop().VisitsOf(object);
  ASSERT_NE(visits, nullptr);
  const double true_to_arrived = *visits->front().to_arrived;
  const chord::NodeRef true_to = *visits->front().to;
  holder.mutable_iop().SetTo(object, f.system.Tracker(12).Self(), true_to_arrived);

  monitor.RunOnce();
  EXPECT_GE(OpenOf(monitor, "iop.link"), 1u);
  bool found = false;
  double opened_at = -1.0;
  for (const auto& violation : monitor.ledger().violations()) {
    if (violation.check == "iop.link" && violation.actor == holder.Self().actor) {
      found = true;
      opened_at = violation.first_seen_ms;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_DOUBLE_EQ(opened_at, 20'000.0);

  // Repair the link and rescan after some time: every iop.link violation
  // must close at the repair-scan timestamp.
  f.system.RunUntil(25'000.0);
  holder.mutable_iop().SetTo(object, true_to, true_to_arrived);
  monitor.RunOnce();
  EXPECT_EQ(monitor.OpenViolations(), 0u);
  for (const auto& violation : monitor.ledger().violations()) {
    EXPECT_FALSE(violation.Open());
    EXPECT_DOUBLE_EQ(*violation.cleared_ms, 25'000.0);
  }
}

TEST(TrackingChecks, BackwardLinkFiresAcyclicCheck) {
  IndividualFixture f;
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  InstallTrackingChecks(monitor, f.system, /*staleness_ms=*/100.0);

  // A from-link that points forward in time is impossible in a sound chain
  // (it would allow a cycle); inject one directly.
  const auto object = Obj(1);
  tracking::TrackerNode& holder = f.system.Tracker(1 % 4);  // First site.
  const auto* visits = holder.iop().VisitsOf(object);
  ASSERT_NE(visits, nullptr);
  const double arrived = visits->front().arrived;
  holder.mutable_iop().SetFrom(object, arrived, f.system.Tracker(2).Self(),
                               arrived + 5000.0);

  monitor.RunOnce();
  EXPECT_GE(OpenOf(monitor, "iop.acyclic"), 1u);
  EXPECT_GE(monitor.Report().open_fatal, 1u);
}

TEST(TrackingChecks, StaleGatewayEntryFiresThenHeals) {
  IndividualFixture f;
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  InstallTrackingChecks(monitor, f.system, /*staleness_ms=*/100.0);

  // Roll obj 2's gateway entry back to its first sighting: the index now
  // lies about the latest location.
  const auto object = Obj(2);
  tracking::TrackerNode* gateway = f.system.OwnerOf(object);
  ASSERT_NE(gateway, nullptr);
  const tracking::IndexEntry* current = gateway->individual_index().Find(object);
  ASSERT_NE(current, nullptr);
  const tracking::IndexEntry good = *current;
  gateway->mutable_individual_index().Upsert(
      object, tracking::IndexEntry{f.system.Tracker(2 % 4).Self(), 12.0});

  monitor.RunOnce();
  EXPECT_EQ(OpenOf(monitor, "gateway.staleness"), 1u);
  const auto& violations = monitor.ledger().violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].check, "gateway.staleness");
  EXPECT_EQ(violations[0].subject, object.ToShortHex());

  f.system.RunUntil(30'000.0);
  gateway->mutable_individual_index().Upsert(object, good);
  monitor.RunOnce();
  EXPECT_EQ(monitor.OpenViolations(), 0u);
  EXPECT_DOUBLE_EQ(violations[0].first_seen_ms, 20'000.0);
  EXPECT_DOUBLE_EQ(*violations[0].cleared_ms, 30'000.0);
}

TEST(TrackingChecks, DroppedRecordFiresTriangleCoverageThenHeals) {
  IndividualFixture f;
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  InstallTrackingChecks(monitor, f.system, /*staleness_ms=*/100.0);

  const auto object = Obj(3);
  tracking::TrackerNode* gateway = f.system.OwnerOf(object);
  ASSERT_NE(gateway, nullptr);
  const auto dropped = gateway->mutable_individual_index().Extract(object);
  ASSERT_TRUE(dropped.has_value());

  monitor.RunOnce();
  EXPECT_EQ(OpenOf(monitor, "triangle.coverage"), 1u);
  EXPECT_EQ(monitor.Report().open_fatal, 1u);
  const auto& violations = monitor.ledger().violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].subject, object.ToShortHex());

  f.system.RunUntil(40'000.0);
  gateway->mutable_individual_index().Upsert(object, *dropped);
  monitor.RunOnce();
  EXPECT_EQ(monitor.OpenViolations(), 0u);
  EXPECT_EQ(monitor.Report().open_fatal, 0u);
}

// --- Group mode: delegated records and bucket shape -------------------------

struct GroupFixture {
  GroupFixture() : system(MakeConfig()) {
    // Enough objects per prefix to force delegation: kLogN gives Lp=4 (16
    // buckets) for 16 nodes, so 128 objects average 8 per bucket against a
    // threshold of 4, and alpha 0.5 pushes the oldest halves to children.
    for (int i = 0; i < 128; ++i) {
      system.CaptureAt(static_cast<std::size_t>(i % 8), Obj(100 + i), 10.0 + i);
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

  /// Some (tracker, prefix, object) where the entry sits in a delegated
  /// child bucket (length == Lp + 1).
  bool FindDelegated(tracking::TrackerNode** node, hash::Prefix* prefix,
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

  tracking::TrackingSystem system;
};

TEST(TrackingChecks, SettledGroupRunIsClean) {
  GroupFixture f;
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  InstallTrackingChecks(monitor, f.system, /*staleness_ms=*/100.0);
  monitor.RunOnce();
  EXPECT_EQ(monitor.OpenViolations(), 0u);
}

TEST(TrackingChecks, DroppedDelegatedRecordFiresTriangleCoverage) {
  GroupFixture f;
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  InstallTrackingChecks(monitor, f.system, /*staleness_ms=*/100.0);

  tracking::TrackerNode* node = nullptr;
  hash::Prefix prefix;
  hash::UInt160 object;
  ASSERT_TRUE(f.FindDelegated(&node, &prefix, &object))
      << "expected at least one delegated (Lp+1) bucket";
  auto* bucket = node->mutable_prefix_store().TryBucket(prefix);
  const auto dropped = bucket->Extract(object);
  ASSERT_TRUE(dropped.has_value());

  monitor.RunOnce();
  EXPECT_EQ(OpenOf(monitor, "triangle.coverage"), 1u);
  bool subject_matches = false;
  for (const auto& violation : monitor.ledger().violations()) {
    if (violation.check == "triangle.coverage" &&
        violation.subject == object.ToShortHex()) {
      subject_matches = true;
    }
  }
  EXPECT_TRUE(subject_matches);

  f.system.RunUntil(90'000.0);
  bucket->Upsert(object, *dropped);
  monitor.RunOnce();
  EXPECT_EQ(monitor.OpenViolations(), 0u);
}

TEST(TrackingChecks, DuplicatedRecordFiresTriangleCoverage) {
  GroupFixture f;
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  InstallTrackingChecks(monitor, f.system, /*staleness_ms=*/100.0);

  tracking::TrackerNode* node = nullptr;
  hash::Prefix prefix;
  hash::UInt160 object;
  ASSERT_TRUE(f.FindDelegated(&node, &prefix, &object));
  const auto* entry = node->prefix_store().TryBucket(prefix)->Find(object);
  ASSERT_NE(entry, nullptr);
  // Copy the entry into a second bucket at the SAME level on another node:
  // duplication off the object's own parent/child chain.
  tracking::TrackerNode& other =
      f.system.Tracker(node == &f.system.Tracker(0) ? 1 : 0);
  other.mutable_prefix_store().BucketFor(prefix).Upsert(object, *entry);

  monitor.RunOnce();
  EXPECT_GE(OpenOf(monitor, "triangle.coverage"), 1u);
}

TEST(TrackingChecks, MisplacedBucketFiresPrefixShape) {
  GroupFixture f;
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  InstallTrackingChecks(monitor, f.system, /*staleness_ms=*/100.0);

  // A bucket at a level no gateway ever probes (Lp+3) is unreachable state.
  const unsigned lp = f.system.CurrentLp();
  const auto stray_prefix = hash::Prefix::OfKey(Obj(100), lp + 3);
  tracking::TrackerNode& tracker = f.system.Tracker(5);
  tracker.mutable_prefix_store().BucketFor(stray_prefix)
      .Upsert(Obj(100), tracking::IndexEntry{tracker.Self(), 10.0});

  monitor.RunOnce();
  EXPECT_GE(OpenOf(monitor, "prefix.shape"), 1u);
}

}  // namespace
}  // namespace peertrack::obs
