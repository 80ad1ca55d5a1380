// Seeded-corruption forensics: with the flight recorder on from the first
// capture, inject each canonical corruption (broken IOP to-link, staled
// gateway entry, dropped index record), let the invariant monitor open the
// violation, and assert the automated forensic dump + causal explainer
// name the *actual injected cause* — validated by cause id AND by the
// evidence event's seq falling inside the bracket recorded around the
// injection. This is the end-to-end contract of DESIGN.md §12.

#include <gtest/gtest.h>

#include <filesystem>

#include "obs/explain.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "tracking/tracking_system.hpp"
#include "util/format.hpp"

namespace peertrack::obs {
namespace {

hash::UInt160 Obj(int i) { return hash::ObjectKey(util::Format("epc:obj-{}", i)); }

/// Settled individual-mode network recorded from t=0: the recorder must be
/// attached BEFORE the captures so the oracle's object.truth deltas (and
/// every protocol write) are in the rings when a violation later triggers
/// a dump. Mirrors the IndividualFixture of obs_invariants_test.cpp.
struct RecordedFixture {
  explicit RecordedFixture(std::string_view subdir)
      : system(MakeSystem()),
        dir((std::filesystem::temp_directory_path() / "peertrack-forensics" /
             std::string(subdir))
                .string()) {
    std::filesystem::remove_all(dir);
    system.network().EnableRecorder(/*events_per_actor=*/2048);
    for (int i = 0; i < 8; ++i) {
      system.CaptureAt(static_cast<std::size_t>(i % 4), Obj(i), 10.0 + i);
      system.CaptureAt(static_cast<std::size_t>((i + 3) % 7), Obj(i), 4000.0 + i);
      system.CaptureAt(static_cast<std::size_t>((i + 5) % 9), Obj(i), 8000.0 + i);
    }
    system.Run();
    system.FlushAllWindows();
    system.RunUntil(20'000.0);
  }

  ~RecordedFixture() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  static tracking::TrackingSystem MakeSystem() {
    tracking::SystemConfig config;
    config.tracker.mode = tracking::IndexingMode::kIndividual;
    return tracking::TrackingSystem(16, std::move(config));
  }

  /// Monitor with tracking checks and forensics into `dir`.
  void Arm(InvariantMonitor& monitor) {
    InstallTrackingChecks(monitor, system, /*staleness_ms=*/100.0);
    InvariantMonitor::ForensicOptions options;
    options.dir = dir;
    monitor.EnableForensics(*system.network().recorder(), std::move(options));
  }

  FlightRecorder& recorder() { return *system.network().recorder(); }

  /// First violation of `check` carrying a bundle, or nullptr.
  static const Violation* BundledViolation(const InvariantMonitor& monitor,
                                           std::string_view check) {
    for (const auto& violation : monitor.ledger().violations()) {
      if (violation.check == check && !violation.bundle_path.empty()) {
        return &violation;
      }
    }
    return nullptr;
  }

  /// Re-run the explainer exactly as the dumper did, from the violation's
  /// trigger snapshot — gives the test the structured CauseNode (ids +
  /// evidence seqs) instead of parsing the rendered text.
  CauseNode ReExplain(const Violation& violation) {
    ForensicTrigger trigger;
    trigger.check = violation.check;
    trigger.subject = violation.subject;
    trigger.detail = violation.detail;
    trigger.actor = violation.actor;
    trigger.event_seq = violation.trigger_event;
    trigger.object = violation.object;
    trigger.has_object = violation.has_object;
    return Explain(recorder().Collect(trigger, {violation.actor}));
  }

  tracking::TrackingSystem system;
  std::string dir;
};

TEST(Forensics, StaleGatewayWriteIsNamedRegressive) {
  RecordedFixture f("stale-gateway");
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  f.Arm(monitor);

  // Bracket the injection in recorder seq space: the explainer's evidence
  // must point INSIDE this bracket, i.e. at the injected write itself.
  const auto object = Obj(2);
  tracking::TrackerNode* gateway = f.system.OwnerOf(object);
  ASSERT_NE(gateway, nullptr);
  const std::uint64_t seq_before = f.recorder().LastSeq();
  gateway->mutable_individual_index().Upsert(
      object, tracking::IndexEntry{f.system.Tracker(2 % 4).Self(), 12.0});
  const std::uint64_t seq_after = f.recorder().LastSeq();
  ASSERT_GT(seq_after, seq_before) << "injected write was not recorded";

  monitor.RunOnce();
  EXPECT_GE(monitor.ForensicBundles(), 1u);
  const Violation* violation =
      RecordedFixture::BundledViolation(monitor, "gateway.staleness");
  ASSERT_NE(violation, nullptr);
  EXPECT_TRUE(std::filesystem::exists(violation->bundle_path));
  EXPECT_TRUE(violation->has_object);
  EXPECT_EQ(violation->object, object);
  EXPECT_EQ(violation->cause, "gateway.regressive-write");
  EXPECT_NE(violation->explain.find("gateway.regressive-write"),
            std::string::npos);
  EXPECT_NE(violation->explain.find("object.truth"), std::string::npos);

  const CauseNode cause = f.ReExplain(*violation);
  EXPECT_EQ(cause.id, "gateway.regressive-write");
  EXPECT_GT(cause.evidence_seq, seq_before);
  EXPECT_LE(cause.evidence_seq, seq_after);
  // The child must be the ground-truth movement the write regressed past —
  // recorded long before the injection, via the world ring.
  ASSERT_FALSE(cause.children.empty());
  EXPECT_EQ(cause.children[0].id, "object.truth");
  EXPECT_LE(cause.children[0].evidence_seq, seq_before);

  // Satellite: health schema v2 carries the forensics block end to end.
  const std::string json = monitor.Report().ToJson();
  EXPECT_NE(json.find("\"schema\": \"peertrack.health.v2\""), std::string::npos);
  EXPECT_NE(json.find("\"forensics\""), std::string::npos);
  EXPECT_NE(json.find("\"cause\": \"gateway.regressive-write\""),
            std::string::npos);
  EXPECT_NE(json.find(util::Format("\"object\": \"{}\"", object.ToShortHex())),
            std::string::npos);
  EXPECT_NE(monitor.Report().SummaryTable().find("gateway.regressive-write"),
            std::string::npos);
}

TEST(Forensics, BrokenToLinkIsNamedStaleLinkWrite) {
  RecordedFixture f("broken-link");
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  f.Arm(monitor);

  const auto object = Obj(0);
  tracking::TrackerNode& holder = f.system.Tracker(3 % 7);  // Middle visit.
  const auto* visits = holder.iop().VisitsOf(object);
  ASSERT_NE(visits, nullptr);
  const double true_to_arrived = *visits->front().to_arrived;
  const std::uint64_t seq_before = f.recorder().LastSeq();
  holder.mutable_iop().SetTo(object, f.system.Tracker(12).Self(),
                             true_to_arrived);
  const std::uint64_t seq_after = f.recorder().LastSeq();
  ASSERT_GT(seq_after, seq_before) << "injected link write was not recorded";

  monitor.RunOnce();
  EXPECT_GE(monitor.ForensicBundles(), 1u);
  const Violation* violation =
      RecordedFixture::BundledViolation(monitor, "iop.link");
  ASSERT_NE(violation, nullptr);
  EXPECT_TRUE(std::filesystem::exists(violation->bundle_path));
  EXPECT_EQ(violation->cause, "iop.stale-link-write");
  EXPECT_GT(violation->trigger_event, seq_before);

  const CauseNode cause = f.ReExplain(*violation);
  EXPECT_EQ(cause.id, "iop.stale-link-write");
  EXPECT_GT(cause.evidence_seq, seq_before);
  EXPECT_LE(cause.evidence_seq, seq_after);
}

TEST(Forensics, DroppedRecordIsNamedEraseWithoutReindex) {
  RecordedFixture f("dropped-record");
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  f.Arm(monitor);

  const auto object = Obj(3);
  tracking::TrackerNode* gateway = f.system.OwnerOf(object);
  ASSERT_NE(gateway, nullptr);
  const std::uint64_t seq_before = f.recorder().LastSeq();
  const auto dropped = gateway->mutable_individual_index().Extract(object);
  ASSERT_TRUE(dropped.has_value());
  const std::uint64_t seq_after = f.recorder().LastSeq();
  ASSERT_GT(seq_after, seq_before) << "injected erase was not recorded";

  monitor.RunOnce();
  EXPECT_GE(monitor.ForensicBundles(), 1u);
  const Violation* violation =
      RecordedFixture::BundledViolation(monitor, "triangle.coverage");
  ASSERT_NE(violation, nullptr);
  EXPECT_TRUE(std::filesystem::exists(violation->bundle_path));
  EXPECT_EQ(violation->cause, "index.erase-without-reindex");

  const CauseNode cause = f.ReExplain(*violation);
  EXPECT_EQ(cause.id, "index.erase-without-reindex");
  EXPECT_GT(cause.evidence_seq, seq_before);
  EXPECT_LE(cause.evidence_seq, seq_after);
  // The record's real protocol-era home is cited as prior evidence.
  ASSERT_FALSE(cause.children.empty());
  EXPECT_EQ(cause.children[0].id, "index.prior-upsert");
  EXPECT_LE(cause.children[0].evidence_seq, seq_before);
}

TEST(Forensics, BundleCapIsRespected) {
  RecordedFixture f("bundle-cap");
  Registry registry;
  InvariantMonitor monitor(f.system.simulator(), registry);
  InstallTrackingChecks(monitor, f.system, /*staleness_ms=*/100.0);
  InvariantMonitor::ForensicOptions options;
  options.dir = f.dir;
  options.max_bundles = 1;
  monitor.EnableForensics(f.recorder(), std::move(options));

  // Two independent corruptions, but the cap allows only one dump.
  f.system.OwnerOf(Obj(3))->mutable_individual_index().Extract(Obj(3));
  f.system.OwnerOf(Obj(4))->mutable_individual_index().Extract(Obj(4));
  monitor.RunOnce();
  EXPECT_EQ(monitor.ForensicBundles(), 1u);
  std::size_t bundled = 0;
  for (const auto& violation : monitor.ledger().violations()) {
    if (!violation.bundle_path.empty()) ++bundled;
  }
  EXPECT_EQ(bundled, 1u);
}

}  // namespace
}  // namespace peertrack::obs
