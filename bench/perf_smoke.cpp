// perf_smoke — the repo's canonical performance probe.
//
// Runs the fixed-seed workload::RunPerfSmoke scenario (default: 256 nodes,
// 512000 objects, group indexing, 100 trace queries), times it, and writes
// BENCH.json with wall-clock timings and throughput (events/sec,
// messages/sec), peak RSS and message-pool allocation stats. CI runs this
// on every push and uploads BENCH.json as an artifact, so the performance
// trajectory of the simulator kernel is recorded PR over PR.
//
// Usage:
//   perf_smoke [--nodes=256] [--objects=512000] [--queries=100]
//              [--seed=0xBE9C5] [--repeat=1] [--out=BENCH.json]
//              [--invariant-mode=off|full|incremental]
//              [--invariant-period=5000] [--full-sweep-every=10]
//              [--replicate=1] [--profile=1] [--flame=PATH]
//              [--recorder-events=256] [--forensics=DIR] [--shards=1]
//
// Sharded kernel (--shards=N, default 1): the primary numbers always come
// from the kernel run with one shard (so the BENCH.json throughput history
// stays comparable PR over PR). With N > 1 the bench additionally
// runs a scaling pair — one 1-shard leg and one N-shard leg, both with
// delegation disabled (the sharded kernel's colocation contract) — and
// cross-checks their final state: events, captures, query outcomes and
// every Metrics::CsvRows() row must match exactly (exit 5 otherwise,
// naming the first differing row; the N-shard leg must also report zero
// cross-shard direct calls). The BENCH.json "shards" block
// records both throughputs, the speedup, scale_efficiency = speedup / N,
// and host_cores: on a host with fewer cores than shards the efficiency is
// an honesty record, not a target.
//
// Flight recorder (--recorder-events, default 256): every actor keeps a
// bounded ring of protocol events (obs::FlightRecorder) — the black box
// the forensic dumps read. Recording is ON in the canonical BENCH.json
// numbers; the perf gate caps its profiled attribution (obs.recorder.*
// scopes) at 5% of the measured wall. Its wall-clock cost is larger: a
// bare-stack A/B (S=1, profiler and monitor off) read +17.7% and +22.1%
// index wall (ROADMAP.md, item 6). --recorder-events=0 disables it (the
// off leg of that A/B). The
// BENCH.json "recorder" block records both the setting and the volume.
// --forensics=DIR additionally dumps a forensic bundle (JSON + Perfetto)
// for every violation the monitor opens and every failed query.
//
// Profiling (--profile, default ON): every run is attributed by the
// always-on obs::Profiler. The benchmark A/B-tests the profiler's own
// cost: --repeat=N runs 2N legs, alternating profiler runtime-disabled /
// enabled in ABBA order so both arms get early and late slots; all 2N
// legs must produce bit-identical simulation metrics (instrumentation can
// never perturb the simulation — exit 2 if it does), the best enabled leg
// provides the primary numbers plus the BENCH.json "profile" block (top
// scopes, coverage, self-overhead = 1 - best_off/best_on wall), and
// --flame=PATH writes that leg's collapsed-stack text for standard
// flamegraph tools. Per-leg walls print to stderr — if they spread by
// more than a few percent, the machine was contended and the overhead
// number is suspect. --profile=0 restores the old behaviour (N legs,
// profiler disabled, no "profile" block).
//
// Gateway-index replication (R=2 successors) is ON by default so the
// recorded throughput includes the churn-recovery write path;
// --replicate=0 measures the bare unreplicated index.
//
// With --invariant-mode=full the obs::InvariantMonitor audits
// ring/IOP/triangle health with a full-universe scan at a fixed sim-time
// cadence; --invariant-mode=incremental audits only subjects marked dirty
// by the StateDeltaBus, with every Nth scan (--full-sweep-every) promoted
// to a full cross-check sweep that must find nothing the incremental path
// missed. Overhead and verdict land in BENCH.json under "invariants":
// overhead_fraction = (periodic scan + staged-delta drain) wall / total
// wall, per-check wall times, peak_staged (the largest backlog any drain
// found) and spills (drains between scans, when the backlog reached the
// bus's staging cap), and final_sweep_ms for the forced settled sweep that
// runs after
// the timed phases (a verification step, not steady-state overhead —
// violations and cross-check misses are read after it and still cover
// it). Any violation or cross-check miss on this clean fixed-seed
// scenario fails the run (exit 4).
//
// With --repeat=N the scenario runs N times and the fastest run is
// reported (standard practice to shave scheduler noise); the simulation
// metrics must be identical across repeats, which doubles as a built-in
// determinism check.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.hpp"  // Shared JsonEscape.
#include "obs/profiler.hpp"
#include "sim/message_pool.hpp"
#include "util/config.hpp"
#include "util/format.hpp"
#include "workload/perf_smoke.hpp"

namespace {

using peertrack::workload::InvariantMode;
using peertrack::workload::PerfSmokeParams;
using peertrack::workload::PerfSmokeReport;

double PerSec(std::uint64_t count, double wall_ms) {
  return wall_ms > 0.0 ? static_cast<double>(count) * 1000.0 / wall_ms : 0.0;
}

/// The process's peak resident set so far, over every leg it ran
/// (getrusage ru_maxrss, KiB on Linux).
double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

const char* ModeName(InvariantMode mode) {
  switch (mode) {
    case InvariantMode::kOff: return "off";
    case InvariantMode::kFull: return "full";
    case InvariantMode::kIncremental: return "incremental";
  }
  return "off";
}

/// Prints the first metric row where `a` and `b` differ (or the first row
/// only one side has); "diverged" alone is undebuggable. No output when
/// the rows are equal.
void PrintFirstDifferingRow(const PerfSmokeReport& a, const char* a_name,
                            const PerfSmokeReport& b, const char* b_name) {
  const auto join = [](const std::vector<std::string>& row) {
    std::string out;
    for (const auto& cell : row) {
      if (!out.empty()) out += ',';
      out += cell;
    }
    return out;
  };
  const auto& ra = a.metric_rows;
  const auto& rb = b.metric_rows;
  for (std::size_t i = 0; i < std::max(ra.size(), rb.size()); ++i) {
    if (i >= ra.size() || i >= rb.size() || ra[i] != rb[i]) {
      std::fprintf(stderr,
                   "perf_smoke: first differing metric row %zu:\n"
                   "  %s: %s\n  %s: %s\n",
                   i, a_name, i < ra.size() ? join(ra[i]).c_str() : "(absent)",
                   b_name, i < rb.size() ? join(rb[i]).c_str() : "(absent)");
      return;
    }
  }
}

/// A/B + attribution results for the BENCH.json "profile" block.
struct ProfileResult {
  bool enabled = false;
  peertrack::obs::Profiler::Report report;    ///< Best profiled leg.
  double events_per_sec_profiled = 0.0;
  double events_per_sec_unprofiled = 0.0;
  /// 1 - wall(best unprofiled leg) / wall(best profiled leg). The
  /// minimum per arm is the noise-robust statistic: ambient load (CI
  /// co-tenancy, a concurrent build) only ever slows a leg down, and
  /// the ABBA leg order gives both arms early and late slots, so each
  /// arm's best leg is its least-contended one. (Paired-median
  /// estimators proved fragile here: contention that overlaps half the
  /// run skews every pair it touches, and per-leg walls swing far more
  /// than the effect being measured.) Can come out negative from
  /// residual noise; reported raw, with self_overhead_resolved saying
  /// whether it is a measurement at all.
  double self_overhead_fraction = 0.0;
  /// False when the A/B cannot resolve the profiler's cost: the fraction
  /// is negative, or the two arms' leg walls overlap (the spread between
  /// legs of one arm covers the gap between the arms).
  bool self_overhead_resolved = false;
  double measured_wall_ms = 0.0;  ///< wall_* total + final sweep, best leg.
};

/// Scaling-pair results for the BENCH.json "shards" block.
struct ShardScale {
  std::size_t shards = 1;
  unsigned host_cores = 0;
  double events_per_sec_sharded = 0.0;
  double events_per_sec_single = 0.0;
  double speedup = 0.0;            ///< sharded / single throughput.
  double scale_efficiency = 0.0;   ///< speedup / shards.
  std::uint64_t windows = 0;
  std::uint64_t cross_shard_messages = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t cross_shard_direct_calls = 0;
};

std::string ShardsJson(const ShardScale& scale) {
  using peertrack::util::Format;
  if (scale.shards <= 1) {
    return Format(
        "  \"shards\": {{\"enabled\": false, \"shards\": 1, "
        "\"host_cores\": {}}},\n",
        scale.host_cores);
  }
  return Format(
      "  \"shards\": {{\"enabled\": true, \"shards\": {}, \"host_cores\": {}, "
      "\"delegation\": false, "
      "\"events_per_sec_sharded\": {:.1f}, \"events_per_sec_single\": {:.1f}, "
      "\"speedup\": {:.3f}, \"scale_efficiency\": {:.3f}, "
      "\"windows\": {}, \"cross_shard_messages\": {}, \"deferrals\": {}, "
      "\"cross_shard_direct_calls\": {}}},\n",
      scale.shards, scale.host_cores, scale.events_per_sec_sharded,
      scale.events_per_sec_single, scale.speedup, scale.scale_efficiency,
      scale.windows, scale.cross_shard_messages, scale.deferrals,
      scale.cross_shard_direct_calls);
}

/// Fraction of measured wall attributed to named root scopes.
double CoverageFraction(const ProfileResult& prof) {
  return prof.measured_wall_ms > 0.0
             ? prof.report.root_incl_ms / prof.measured_wall_ms
             : 0.0;
}

std::string ProfileJson(const ProfileResult& prof) {
  using peertrack::util::Format;
  if (!prof.enabled) {
    return "  \"profile\": {\"enabled\": false},\n";
  }
  constexpr std::size_t kTopScopes = 20;
  std::string json = Format(
      "  \"profile\": {{\"enabled\": true, "
      "\"events_per_sec_profiled\": {:.1f}, "
      "\"events_per_sec_unprofiled\": {:.1f}, "
      "\"self_overhead_fraction\": {:.4f}, "
      "\"self_overhead_resolved\": {}, "
      "\"attributed_ms\": {:.3f}, \"measured_wall_ms\": {:.3f}, "
      "\"coverage_fraction\": {:.4f}, \"scopes\": [",
      prof.events_per_sec_profiled, prof.events_per_sec_unprofiled,
      prof.self_overhead_fraction,
      prof.self_overhead_resolved ? "true" : "false", prof.report.root_incl_ms,
      prof.measured_wall_ms, CoverageFraction(prof));
  const std::size_t n = std::min(kTopScopes, prof.report.totals.size());
  std::size_t emitted = 0;
  const auto emit = [&](std::size_t i) {
    const auto& total = prof.report.totals[i];
    const auto& info = prof.report.InfoOf(total.scope);
    json += Format(
        "{}{{\"name\": \"{}\", \"category\": \"{}\", \"hits\": {}, "
        "\"incl_ms\": {:.3f}, \"excl_ms\": {:.3f}, \"alloc_bytes\": {}, "
        "\"allocs\": {}}}",
        emitted == 0 ? "" : ", ", peertrack::obs::JsonEscape(info.full),
        peertrack::obs::JsonEscape(info.category), total.hits, total.incl_ms,
        total.excl_ms, total.alloc_bytes, total.allocs);
    ++emitted;
  };
  for (std::size_t i = 0; i < n; ++i) emit(i);
  // The perf gate tracks the recorder's cost by scope, so obs.recorder.*
  // rows are force-included even when they fall outside the top N (cheap
  // scopes must stay visible to prove they are cheap).
  for (std::size_t i = n; i < prof.report.totals.size(); ++i) {
    if (prof.report.InfoOf(prof.report.totals[i].scope).category ==
        "obs.recorder") {
      emit(i);
    }
  }
  json += "]},\n";
  return json;
}

std::string ReportJson(const PerfSmokeParams& params, const PerfSmokeReport& report,
                       int repeats, const ProfileResult& prof,
                       const ShardScale& scale) {
  const peertrack::sim::MessagePoolStats pool = peertrack::sim::MessagePoolStats::Read();
  std::string json = "{\n";
  json += peertrack::util::Format(
      "  \"bench\": \"perf_smoke\",\n"
      "  \"config\": {{\"nodes\": {}, \"objects\": {}, \"queries\": {}, "
      "\"seed\": {}, \"repeats\": {}, \"replicate\": {}, \"profile\": {}, "
      "\"recorder_events\": {}}},\n",
      params.nodes, params.objects, params.queries, params.seed, repeats,
      params.replicate ? "true" : "false", prof.enabled ? "true" : "false",
      params.recorder_events);
  json += peertrack::util::Format(
      "  \"wall_ms\": {{\"build\": {:.3f}, \"index\": {:.3f}, \"query\": {:.3f}, "
      "\"total\": {:.3f}}},\n",
      report.wall_build_ms, report.wall_index_ms, report.wall_query_ms,
      report.WallTotalMs());
  json += peertrack::util::Format(
      "  \"events\": {},\n  \"events_per_sec\": {:.1f},\n"
      "  \"messages\": {},\n  \"messages_per_sec\": {:.1f},\n"
      "  \"bytes\": {},\n  \"captures\": {},\n",
      report.events, PerSec(report.events, report.WallTotalMs()), report.messages,
      PerSec(report.messages, report.WallTotalMs()), report.bytes, report.captures);
  json += peertrack::util::Format(
      "  \"queries_ok\": {},\n  \"queries_failed\": {},\n  \"sim_time_ms\": {:.1f},\n"
      "  \"peak_rss_mb\": {:.1f},\n",
      report.queries_ok, report.queries_failed, report.sim_time_ms,
      PeakRssMb());
  json += peertrack::util::Format(
      "  \"allocations\": {{\"pool_enabled\": {}, \"pool_served\": {}, "
      "\"pool_reused\": {}, \"pool_fallback\": {}, \"slab_bytes\": {}}},\n",
      peertrack::sim::MessagePool::Enabled() ? "true" : "false", pool.served,
      pool.reused, pool.fallback, pool.slab_bytes);
  json += ProfileJson(prof);
  json += ShardsJson(scale);
  json += peertrack::util::Format(
      "  \"recorder\": {{\"enabled\": {}, \"events_per_actor\": {}, "
      "\"events_recorded\": {}, \"forensic_bundles\": {}}},\n",
      params.recorder_events > 0 ? "true" : "false", params.recorder_events,
      report.recorder_events, report.forensic_bundles);
  const double overhead_fraction =
      report.WallTotalMs() > 0.0
          ? report.invariant_scan_ms / report.WallTotalMs()
          : 0.0;
  json += peertrack::util::Format(
      "  \"invariants\": {{\"enabled\": {}, \"mode\": \"{}\", \"scans\": {}, "
      "\"full_sweeps\": {}, \"deltas_routed\": {}, "
      "\"peak_staged\": {}, \"spills\": {}, "
      "\"invariant_scan_ms\": {:.3f}, \"final_sweep_ms\": {:.3f}, "
      "\"overhead_fraction\": {:.4f}, "
      "\"violations\": {}, \"open\": {}, \"cross_check_misses\": {}, "
      "\"checks\": [",
      params.invariants != InvariantMode::kOff ? "true" : "false",
      ModeName(params.invariants), report.invariant_scans,
      report.invariant_full_sweeps, report.invariant_deltas,
      report.invariant_peak_staged, report.invariant_spills,
      report.invariant_scan_ms, report.invariant_final_sweep_ms,
      overhead_fraction, report.invariant_violations,
      report.invariant_open, report.invariant_cross_check_misses);
  for (std::size_t i = 0; i < report.invariant_check_ids.size(); ++i) {
    json += peertrack::util::Format("{}{{\"id\": \"{}\"}}", i == 0 ? "" : ", ",
                                    report.invariant_check_ids[i]);
  }
  json += "]}\n";
  json += "}\n";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const auto config = peertrack::util::Config::FromArgs(argc, argv);
  PerfSmokeParams params;
  params.nodes = static_cast<std::size_t>(config.GetUInt("nodes", params.nodes));
  params.objects = static_cast<std::size_t>(config.GetUInt("objects", params.objects));
  params.queries = static_cast<std::size_t>(config.GetUInt("queries", params.queries));
  params.seed = config.GetUInt("seed", params.seed);
  const std::string mode = config.GetString("invariant-mode", "");
  if (mode == "off") {
    params.invariants = InvariantMode::kOff;
  } else if (mode == "full") {
    params.invariants = InvariantMode::kFull;
  } else if (mode == "incremental") {
    params.invariants = InvariantMode::kIncremental;
  } else if (!mode.empty()) {
    std::fprintf(stderr,
                 "perf_smoke: unknown --invariant-mode=%s "
                 "(want off|full|incremental)\n",
                 mode.c_str());
    return 1;
  }
  params.replicate = config.GetBool("replicate", params.replicate);
  params.invariant_period_ms =
      config.GetDouble("invariant-period", params.invariant_period_ms);
  params.full_sweep_every_n_ticks = static_cast<std::uint32_t>(
      config.GetUInt("full-sweep-every", params.full_sweep_every_n_ticks));
  params.recorder_events = static_cast<std::size_t>(
      config.GetUInt("recorder-events", params.recorder_events));
  params.forensics_dir = config.GetString("forensics", params.forensics_dir);
  const int repeats = std::max<int>(1, static_cast<int>(config.GetInt("repeat", 1)));
  const std::string out_path = config.GetString("out", "BENCH.json");
  const std::size_t shards =
      std::max<std::size_t>(1, static_cast<std::size_t>(config.GetUInt("shards", 1)));

  const bool profile = config.GetBool("profile", true);
  const std::string flame_path = config.GetString("flame", "");

  // Leg plan: with --profile the scenario runs 2*repeats legs, alternating
  // profiler-disabled / profiler-enabled (interleaved so slow machine
  // drift — thermal, noisy neighbours — hits both arms equally; each arm
  // keeps its best leg). Every leg must be bit-identical to leg 0 — this
  // is both the determinism check and the proof that instrumentation never
  // perturbs the simulation.
  ProfileResult prof;
  prof.enabled = profile;
  PerfSmokeReport reference;  ///< Leg 0, kept for the identity compare.
  PerfSmokeReport best_off;
  PerfSmokeReport best_on;
  bool have_off = false;
  bool have_on = false;
  // Slowest leg of each arm (the fastest is best_off / best_on), for
  // self_overhead_resolved.
  double off_max = 0.0, on_max = 0.0;
  const int total_legs = profile ? 2 * repeats : repeats;
  for (int leg = 0; leg < total_legs; ++leg) {
    // ABBA design: pair 0 runs (off, on), pair 1 (on, off), ... so linear
    // machine drift cancels within the paired-ratio estimator instead of
    // systematically inflating whichever arm runs second.
    const int pair = leg / 2;
    const bool second_in_pair = leg % 2 == 1;
    const bool leg_profiled = profile && (second_in_pair != (pair % 2 == 1));
    peertrack::obs::Profiler::SetEnabled(leg_profiled);
    if (leg_profiled) peertrack::obs::Profiler::Reset();
    PerfSmokeReport report = peertrack::workload::RunPerfSmoke(params);
    peertrack::obs::Profiler::Report snapshot;
    if (leg_profiled) snapshot = peertrack::obs::Profiler::Snapshot();
    peertrack::obs::Profiler::SetEnabled(false);
    if (leg == 0) {
      reference = report;
    } else if (report.events != reference.events ||
               report.metric_rows != reference.metric_rows) {
      std::fprintf(stderr,
                   "perf_smoke: %s leg %d diverged from leg 0 "
                   "(events %llu vs %llu) — determinism broken%s\n",
                   leg_profiled ? "profiled" : "unprofiled", leg,
                   static_cast<unsigned long long>(report.events),
                   static_cast<unsigned long long>(reference.events),
                   leg_profiled ? " (instrumentation perturbed the run?)" : "");
      PrintFirstDifferingRow(reference, "leg 0", report,
                             ("leg " + std::to_string(leg)).c_str());
      return 2;
    }
    std::fprintf(stderr, "(leg %d/%d %s: wall %.1f ms)\n", leg + 1, total_legs,
                 leg_profiled ? "profiled" : "unprofiled",
                 report.WallTotalMs());
    double& arm_max = leg_profiled ? on_max : off_max;
    arm_max = std::max(arm_max, report.WallTotalMs());
    if (leg_profiled) {
      if (!have_on || report.WallTotalMs() < best_on.WallTotalMs()) {
        prof.report = std::move(snapshot);
        best_on = std::move(report);
        have_on = true;
      }
    } else {
      if (!have_off || report.WallTotalMs() < best_off.WallTotalMs()) {
        best_off = std::move(report);
        have_off = true;
      }
    }
  }

  // With profiling the primary numbers come from the best profiled leg —
  // that is the configuration every real run uses (always-on profiler) —
  // and the A/B delta against the best unprofiled leg is reported as
  // self_overhead_fraction.
  const PerfSmokeReport& best = profile ? best_on : best_off;
  if (profile) {
    prof.events_per_sec_profiled = PerSec(best_on.events, best_on.WallTotalMs());
    prof.events_per_sec_unprofiled =
        PerSec(best_off.events, best_off.WallTotalMs());
    // Overhead: fastest leg of each arm (see ProfileResult).
    if (have_off && have_on && best_on.WallTotalMs() > 0.0) {
      prof.self_overhead_fraction =
          1.0 - best_off.WallTotalMs() / best_on.WallTotalMs();
      const bool arms_overlap = off_max >= best_on.WallTotalMs() &&
                                on_max >= best_off.WallTotalMs();
      prof.self_overhead_resolved =
          prof.self_overhead_fraction >= 0.0 && !arms_overlap;
    }
    // Root scopes cover the three timed phases plus the root-level final
    // invariant sweep, so coverage is measured against that same span.
    prof.measured_wall_ms =
        best_on.WallTotalMs() + best_on.invariant_final_sweep_ms;
    if (!flame_path.empty()) {
      if (!peertrack::obs::Profiler::WriteCollapsed(prof.report, flame_path)) {
        std::fprintf(stderr, "perf_smoke: cannot write %s\n",
                     flame_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "(collapsed stacks written to %s)\n",
                   flame_path.c_str());
    }
  }

  // Scaling pair: the primary (history-comparable) numbers above always run
  // the kernel with one shard; with --shards=N > 1 the kernel scaling is
  // measured separately, 1 vs N shards with delegation disabled in BOTH
  // legs so the pair differs only in the kernel.
  ShardScale scale;
  scale.shards = shards;
  scale.host_cores = std::thread::hardware_concurrency();
  if (shards > 1) {
    PerfSmokeParams single = params;
    single.shards = 1;
    single.disable_delegation = true;
    PerfSmokeParams sharded = params;
    sharded.shards = shards;
    sharded.disable_delegation = true;
    std::fprintf(stderr, "(scaling pair: 1 vs %zu shards, delegation off)\n",
                 shards);
    const PerfSmokeReport base = peertrack::workload::RunPerfSmoke(single);
    std::fprintf(stderr, "(scaling leg 1-shard: wall %.1f ms)\n",
                 base.WallTotalMs());
    const PerfSmokeReport par = peertrack::workload::RunPerfSmoke(sharded);
    std::fprintf(stderr, "(scaling leg %zu-shard: wall %.1f ms)\n", shards,
                 par.WallTotalMs());
    // Differential cross-check: the sharded kernel must reproduce the
    // single-threaded final state — event count, query outcomes, the full
    // metrics dump, and every delta and record the obs lanes carried.
    if (par.events != base.events || par.messages != base.messages ||
        par.bytes != base.bytes || par.captures != base.captures ||
        par.queries_ok != base.queries_ok ||
        par.queries_failed != base.queries_failed ||
        par.metric_rows != base.metric_rows ||
        par.invariant_deltas != base.invariant_deltas ||
        par.invariant_violations != base.invariant_violations ||
        par.recorder_events != base.recorder_events) {
      std::fprintf(
          stderr,
          "perf_smoke: %zu-shard leg diverged from the 1-shard oracle: "
          "events %llu vs %llu, messages %llu vs %llu, bytes %llu vs %llu, "
          "captures %llu vs %llu, queries_ok %zu vs %zu, invariant_deltas "
          "%llu vs %llu, invariant_violations %zu vs %zu, recorder_events "
          "%llu vs %llu\n",
          shards, static_cast<unsigned long long>(par.events),
          static_cast<unsigned long long>(base.events),
          static_cast<unsigned long long>(par.messages),
          static_cast<unsigned long long>(base.messages),
          static_cast<unsigned long long>(par.bytes),
          static_cast<unsigned long long>(base.bytes),
          static_cast<unsigned long long>(par.captures),
          static_cast<unsigned long long>(base.captures), par.queries_ok,
          base.queries_ok,
          static_cast<unsigned long long>(par.invariant_deltas),
          static_cast<unsigned long long>(base.invariant_deltas),
          par.invariant_violations, base.invariant_violations,
          static_cast<unsigned long long>(par.recorder_events),
          static_cast<unsigned long long>(base.recorder_events));
      PrintFirstDifferingRow(base, "1-shard", par, "sharded");
      return 5;
    }
    if (par.cross_shard_direct_calls != 0) {
      std::fprintf(stderr,
                   "perf_smoke: %llu cross-shard direct call(s) inside "
                   "parallel windows — colocation contract broken\n",
                   static_cast<unsigned long long>(
                       par.cross_shard_direct_calls));
      return 5;
    }
    if (params.invariants != InvariantMode::kOff &&
        (par.invariant_violations != 0 ||
         par.invariant_cross_check_misses != 0)) {
      std::fprintf(stderr,
                   "perf_smoke: sharded leg opened %zu violation(s) "
                   "(%llu cross-check misses)\n",
                   par.invariant_violations,
                   static_cast<unsigned long long>(
                       par.invariant_cross_check_misses));
      return 4;
    }
    scale.events_per_sec_sharded = PerSec(par.events, par.WallTotalMs());
    scale.events_per_sec_single = PerSec(base.events, base.WallTotalMs());
    scale.speedup = scale.events_per_sec_single > 0.0
                        ? scale.events_per_sec_sharded /
                              scale.events_per_sec_single
                        : 0.0;
    scale.scale_efficiency =
        scale.speedup / static_cast<double>(shards);
    scale.windows = par.shard_windows;
    scale.cross_shard_messages = par.cross_shard_messages;
    scale.deferrals = par.lookahead_deferrals;
    scale.cross_shard_direct_calls = par.cross_shard_direct_calls;
  }

  const std::string json = ReportJson(params, best, repeats, prof, scale);
  std::fputs(json.c_str(), stdout);
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "perf_smoke: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << json;
    std::fprintf(stderr, "(BENCH written to %s)\n", out_path.c_str());
  }
  if (best.queries_failed != 0) return 3;
  if (params.invariants != InvariantMode::kOff &&
      (best.invariant_violations != 0 ||
       best.invariant_cross_check_misses != 0)) {
    std::fprintf(stderr,
                 "perf_smoke: %zu invariant violation(s) on a clean run "
                 "(%zu still open, %llu cross-check misses) — see the "
                 "health checks\n",
                 best.invariant_violations, best.invariant_open,
                 static_cast<unsigned long long>(
                     best.invariant_cross_check_misses));
    return 4;
  }
  return 0;
}
