// PeerTrack benchmark: three workloads through tracking::TrackingSystem.
//
//   perfbench --workload <ingest|ingest_audited|query_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 repeats independent rounds (fresh system, same seeded inputs)
// until --seconds have passed and prints the end-to-end metrics as medians
// over rounds. --trace 1 runs one untraced and one traced round of the
// workload plus the layer cost ladder, and prints the per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. See README.md for every definition.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "round.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <ingest|ingest_audited|query_mix>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n";
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.trace < 0) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

// --- Workload definitions -------------------------------------------------

constexpr std::size_t kClients = 64;
constexpr std::size_t kCheckObjects = 16384;  // 2 queries each: L and TR.
// query_mix timed phase: simulated span of the closed-loop client run and
// the pallet moves spread over it (~1 capture per 10 queries).
constexpr double kQueryPhaseMs = 240000.0;
constexpr std::size_t kConcurrentPalletHops = 600;

Geometry IngestGeometry() { return Geometry{}; }  // 256 nodes x 2000 objects.
Geometry QueryGeometry() {
  Geometry g;
  g.objects_per_node = 500;
  return g;
}

Stack IngestStack() { return Stack{}; }  // S=1, R=2, obs off.
Stack AuditedStack() {
  Stack s;
  s.shards = 2;
  s.monitor = true;
  s.recorder_events = 256;
  s.profiler = true;
  return s;
}

struct Workload {
  std::string name;
  Movement movement;
  Scenario scenario;
  Stack stack;
  std::unique_ptr<ZipfTargets> zipf;
  bool queries_timed = false;  ///< Query metrics from the timed phase.
  /// Rounds an untraced run makes even when --seconds is used up. At least
  /// two, so the same-seed determinism check has a pair to compare;
  /// query_mix rounds are short, so it takes more of them to spread its
  /// timed phases over more of the host's slow and fast periods.
  std::size_t min_rounds = 2;
};

double LastTime(const std::vector<Capture>& captures) {
  double t = 0.0;
  for (const Capture& c : captures) t = std::max(t, c.at);
  return t;
}

// Set-up ends half a dwell after the last preloaded capture: its capture
// window (Tmax 1 s) has closed and its index traffic (5 ms hops) drained,
// and the timed phase's first capture is still a half dwell away.
double SettledAfter(const Movement& m, const std::vector<Capture>& preload) {
  return LastTime(preload) + m.geometry.step_ms / 2.0;
}

std::unique_ptr<Workload> MakeIngest(const std::string& name, const Stack& stack,
                                     std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  w->movement = MakeMovement(IngestGeometry(), seed);
  w->stack = stack;
  Scenario& s = w->scenario;
  s.movement = &w->movement;
  s.preload = w->movement.births;
  s.preload_until_ms = SettledAfter(w->movement, s.preload);
  s.timed = w->movement.hops;
  s.check_sample = CheckSample(w->movement, kCheckObjects, seed);
  s.seed = seed;
  s.monitor_until_ms = LastTime(s.timed) + w->movement.geometry.step_ms;
  return w;
}

std::unique_ptr<Workload> MakeQueryMix(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "query_mix";
  w->movement = MakeMovement(QueryGeometry(), seed);
  w->stack = IngestStack();
  w->queries_timed = true;
  w->min_rounds = 4;
  w->zipf = std::make_unique<ZipfTargets>(w->movement.keys.size(), seed);
  Scenario& s = w->scenario;
  s.movement = &w->movement;
  s.preload = w->movement.births;
  s.preload.insert(s.preload.end(), w->movement.hops.begin(), w->movement.hops.end());
  const double phase_start = SettledAfter(w->movement, s.preload);
  s.preload_until_ms = phase_start;
  s.timed = MakeConcurrentMoves(w->movement, kConcurrentPalletHops, phase_start,
                                kQueryPhaseMs, seed);
  s.clients = kClients;
  s.query_until_ms = phase_start + kQueryPhaseMs;
  s.zipf = w->zipf.get();
  s.check_sample = CheckSample(w->movement, kCheckObjects, seed);
  s.seed = seed;
  return w;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "ingest") return MakeIngest(name, IngestStack(), seed);
  if (name == "ingest_audited") return MakeIngest(name, AuditedStack(), seed);
  if (name == "query_mix") return MakeQueryMix(seed);
  Usage("unknown workload " + name);
}

// --- Statistics -------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Percentile of the empirical CDF, interpolated linearly between adjacent
// distinct values. Simulated latencies sit on the 5 ms hop grid, so a
// nearest-rank p99 would jump a whole grid step whenever the CDF crosses
// 0.99 at a grid point; the interpolated value moves with the CDF instead.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double below = v.front();  // Largest distinct value with CDF < p.
  double cdf_below = 0.0;
  for (std::size_t i = 0; i < v.size();) {
    std::size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    const double cdf = static_cast<double>(j) / n;
    if (cdf >= p) {
      if (i == 0) return v[i];
      return below + (p - cdf_below) / (cdf - cdf_below) * (v[i] - below);
    }
    below = v[i];
    cdf_below = cdf;
    i = j;
  }
  return v.back();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t Sum(const Traffic& t, std::initializer_list<const char*> prefixes,
                  bool bytes = false) {
  std::uint64_t total = 0;
  for (const auto& [type, cb] : t) {
    for (const char* p : prefixes) {
      if (type.starts_with(p)) {
        total += bytes ? cb.second : cb.first;
        break;
      }
    }
  }
  return total;
}

// Messages a query sends: gateway probes, IOP walk steps, chord lookups.
constexpr std::initializer_list<const char*> kQueryTypes = {"track.probe", "track.walk",
                                                            "chord.lookup"};

// --- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed_checks_;
      std::cout << "CHECK FAILED: " << what << "\n";
    }
  }
  void Note(const std::string& line) { std::cout << line << "\n"; }

  bool Correct() const { return failed_checks_ == 0; }
  std::uint64_t FailedChecks() const { return failed_checks_; }

  void Print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (Correct() ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit
           << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t failed_checks_ = 0;
};

const QueryStats& QueryPhase(const Workload& w, const RoundResult& r) {
  return w.queries_timed ? r.timed_queries : r.check_queries;
}
const Traffic& QueryTraffic(const Workload& w, const RoundResult& r) {
  return w.queries_timed ? r.timed_traffic : r.check_traffic;
}
double QueryPhaseSeconds(const Workload& w, const RoundResult& r) {
  return w.queries_timed ? r.timed_s : r.check_s;
}

double Throughput(const Workload& w, const RoundResult& r) {
  return w.queries_timed
             ? Ratio(static_cast<double>(QueryPhase(w, r).Queries()), r.timed_s)
             : Ratio(static_cast<double>(r.timed_captures), r.timed_s);
}

std::uint64_t QueryFailures(const RoundResult& r) {
  return r.timed_queries.failed + r.timed_queries.wrong + r.check_queries.failed +
         r.check_queries.wrong;
}
std::uint64_t QueriesAttempted(const RoundResult& r) {
  return r.timed_queries.Queries() + r.check_queries.Queries();
}

// Output checks every round must pass.
void CheckRound(const Workload& w, const RoundResult& r, Report& report) {
  const std::string tag = w.name + ": ";
  report.Check(r.check_queries.failed == 0 && r.check_queries.wrong == 0,
               tag + "post-phase answers differ from the oracle (" +
                   std::to_string(r.check_queries.failed) + " failed, " +
                   std::to_string(r.check_queries.wrong) + " wrong)");
  report.Check(r.timed_queries.failed == 0,
               tag + std::to_string(r.timed_queries.failed) + " timed-phase queries failed");
  if (w.stack.monitor) {
    report.Check(r.violations == 0 && r.open_violations == 0,
                 tag + "invariant violations: " + std::to_string(r.violations));
    report.Check(r.cross_check_misses == 0,
                 tag + "cross-check misses: " + std::to_string(r.cross_check_misses));
  }
  report.Check(r.shard_direct == 0,
               tag + "shard direct calls: " + std::to_string(r.shard_direct));
}

std::uint64_t PlanDigest(const Movement& m) {
  std::uint64_t h = 0;
  auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001B3ull;
    h ^= h >> 29;
  };
  for (const auto& key : m.keys) {
    for (const auto w : key.words()) mix(w);
  }
  for (const Capture& c : m.hops) mix((std::uint64_t{c.object} << 32) | c.node);
  return h;
}

// --- Untraced run: end-to-end metrics ---------------------------------------

int RunEndToEnd(const Args& args, const Workload& w, Report& report) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  // Repeat fresh rounds until the time is used up.
  std::vector<RoundResult> rounds;
  while (rounds.size() < w.min_rounds || elapsed() < args.seconds) {
    rounds.push_back(RunIsolated(w.scenario, w.stack));
    CheckRound(w, rounds.back(), report);
    report.Check(rounds.back().digest == rounds.front().digest &&
                     rounds.back().check_queries.digest ==
                         rounds.front().check_queries.digest,
                 w.name + ": round " + std::to_string(rounds.size()) +
                     " simulated counts differ from round 1 at the same seed");
  }

  std::vector<double> setup, captures, queries, fail, rss;
  std::uint64_t attempted = 0, failed = 0;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
    captures.push_back(Ratio(static_cast<double>(r.timed_captures), r.timed_s));
    queries.push_back(Ratio(static_cast<double>(QueryPhase(w, r).Queries()),
                            QueryPhaseSeconds(w, r)));
    fail.push_back(Ratio(static_cast<double>(QueryFailures(r)),
                         static_cast<double>(QueriesAttempted(r))));
    attempted += r.preload_captures + r.timed_captures + QueriesAttempted(r);
    failed += QueryFailures(r);
  }
  // Simulated metrics repeat exactly across rounds (checked by digest), so
  // the first round stands for all.
  const RoundResult& r = rounds.front();
  const QueryStats& q = QueryPhase(w, r);
  const Traffic& qt = QueryTraffic(w, r);
  // On query_mix the timed traffic also carries the queries; the write
  // path is everything else.
  const double write_msgs = static_cast<double>(
      r.timed_messages - (w.queries_timed ? Sum(r.timed_traffic, kQueryTypes) : 0));
  const double write_bytes = static_cast<double>(
      r.timed_bytes - (w.queries_timed ? Sum(r.timed_traffic, kQueryTypes, true) : 0));
  const double caps = static_cast<double>(r.timed_captures);

  report.Add("setup_s", Median(setup), "s");
  report.Add("captures_per_s", Median(captures), "1/s");
  report.Add("queries_per_s", Median(queries), "1/s");
  report.Add("peak_rss_mb", Median(rss), "MiB");
  report.Add("msgs_per_capture", Ratio(write_msgs, caps), "msgs");
  report.Add("bytes_per_capture", Ratio(write_bytes, caps), "B");
  report.Add("msgs_per_query",
             Ratio(static_cast<double>(Sum(qt, kQueryTypes)), static_cast<double>(q.Queries())),
             "msgs");
  report.Add("locate_sim_p50_ms", Percentile(q.locate_ms, 0.50), "sim_ms");
  report.Add("locate_sim_p99_ms", Percentile(q.locate_ms, 0.99), "sim_ms");
  report.Add("trace_sim_p50_ms", Percentile(q.trace_ms, 0.50), "sim_ms");
  report.Add("trace_sim_p99_ms", Percentile(q.trace_ms, 0.99), "sim_ms");
  report.Add("locate_fresh_share",
             1.0 - Ratio(static_cast<double>(q.stale), static_cast<double>(q.locates)),
             "ratio");
  report.Add("gateway_load_imbalance", r.load_imbalance, "ratio");
  report.Add("query_ok_share", 1.0 - Median(fail), "ratio");

  std::ostringstream notes;
  notes << "workload " << w.name << " seed " << args.seed << ": " << rounds.size()
        << " rounds, host cores " << std::thread::hardware_concurrency() << "\n"
        << "  timed captures " << r.timed_captures << ", timed events " << r.timed_events
        << ", timed messages " << r.timed_messages << ", timed bytes " << r.timed_bytes
        << "\n  query phase: " << q.locates << " locates, " << q.traces << " traces, "
        << q.stale << " stale locates; percentiles from " << q.locate_ms.size()
        << " locate and " << q.trace_ms.size() << " trace samples\n"
        << "  query_fail_share " << Median(fail) << ", locate_stale_share "
        << Ratio(static_cast<double>(q.stale), static_cast<double>(q.locates))
        << "\n  per round (setup_s, timed_s, query phase s):";
  for (const RoundResult& round : rounds) {
    notes << " (" << round.setup_s << ", " << round.timed_s << ", "
          << QueryPhaseSeconds(w, round) << ")";
  }
  report.Note(notes.str());
  report.Print(attempted, failed + report.FailedChecks());
  return 0;
}

// --- Traced run: per-layer metrics --------------------------------------------

double Wall(const RoundResult& r) { return r.setup_s + r.timed_s; }

int RunTraced(const Args& args, const Workload& w, Report& report) {
  // An untraced reference round, the cost ladder, and last the same stack
  // traced (profiler on, host and query spans recorded). The traced round
  // runs in this process so its spans stay in memory; running it last
  // gives it the same fresh heap as the forked rounds.
  const RoundResult plain = RunIsolated(w.scenario, w.stack);
  CheckRound(w, plain, report);

  // Cost ladder on the ingest inputs at this seed: each rung switches one
  // more layer on by config alone. A rung whose stack and inputs match the
  // untraced round reuses it.
  std::unique_ptr<Workload> ingest;
  const Workload* ladder_inputs = &w;
  if (w.name == "query_mix") {
    ingest = MakeIngest("ingest", IngestStack(), args.seed);
    ladder_inputs = ingest.get();
  }
  // Rungs are compared on set-up plus timed wall; they skip the answer
  // check, which the workload's own rounds run.
  Scenario ladder_scenario = ladder_inputs->scenario;
  ladder_scenario.check_sample.clear();
  std::vector<Stack> rungs(6);
  rungs[0].replicate = false;                       // bare
  rungs[2].monitor = true;                          // + monitor
  rungs[3] = rungs[2];
  rungs[3].recorder_events = 256;                   // + recorder
  rungs[4] = rungs[3];
  rungs[4].profiler = true;                         // + profiler
  rungs[5] = AuditedStack();                        // S=2
  std::vector<RoundResult> ladder;
  for (const Stack& rung : rungs) {
    const bool same = ladder_inputs == &w && rung == w.stack;
    ladder.push_back(same ? plain : RunIsolated(ladder_scenario, rung));
  }

  SpanLog spans;
  Stack traced_stack = w.stack;
  traced_stack.profiler = true;
  const RoundResult t = RunRound(w.scenario, traced_stack, &spans);
  CheckRound(w, t, report);
  report.Check(t.digest == plain.digest &&
                   t.check_queries.digest == plain.check_queries.digest,
               w.name + ": traced round's simulated counts differ from the untraced round");
  const RoundResult& r2 = ladder[1];
  const RoundResult& s1 = ladder[4];
  const RoundResult& s2 = ladder[5];
  // S-invariance: the full stack at S=2 equals S=1 on every simulated
  // count, and the obs layers add only their own monitor ticks to the
  // protocol's events.
  report.Check(s1.digest == s2.digest, "ladder: S=2 simulated counts differ from S=1");
  report.Check(r2.timed_messages == s2.timed_messages && r2.timed_bytes == s2.timed_bytes &&
                   r2.timed_captures == s2.timed_captures &&
                   r2.timed_events == s2.timed_events - s2.monitor_ticks,
               "ladder: ingest and ingest_audited timed-phase counts differ");
  for (std::size_t i = 2; i < ladder.size(); ++i) {
    report.Check(ladder[i].violations == 0 && ladder[i].cross_check_misses == 0 &&
                     ladder[i].shard_direct == 0,
                 "ladder rung " + std::to_string(i) + " reported violations");
  }

  const double caps = static_cast<double>(t.timed_captures);
  const double all_caps = static_cast<double>(t.preload_captures + t.timed_captures);
  const QueryStats& q = QueryPhase(w, t);
  const Traffic& qt = QueryTraffic(w, t);
  const double queries = static_cast<double>(q.Queries());
  const int timed = [&] {
    for (std::size_t i = 0; i < spans.spans().size(); ++i) {
      if (spans.spans()[i].name == "timed") return static_cast<int>(i);
    }
    return -1;
  }();
  const double run_s = spans.Total("sim.run", timed);
  auto self = [&t](const char* layer) {
    const auto it = t.prof_self_s.find(layer);
    return it == t.prof_self_s.end() ? 0.0 : it->second;
  };

  report.Add("sim.events", static_cast<double>(t.timed_events), "count");
  report.Add("sim.events_per_capture", Ratio(static_cast<double>(t.timed_events), caps), "count");
  report.Add("sim.run_s", run_s, "s");
  report.Add("sim.kernel_self_s",
             run_s * static_cast<double>(traced_stack.shards) - t.prof_run_attributed_s, "s");
  report.Add("sim.pool_allocs_per_event",
             Ratio(static_cast<double>(t.pool_served), static_cast<double>(t.timed_events)),
             "count");
  report.Add("sim.pool_fallback", static_cast<double>(t.pool_fallback), "count");
  report.Add("sim.shard.windows", static_cast<double>(s2.shard_windows), "count");
  report.Add("sim.shard.cross_msgs", static_cast<double>(s2.shard_cross), "count");
  report.Add("sim.shard.cross_msgs_per_window",
             Ratio(static_cast<double>(s2.shard_cross), static_cast<double>(s2.shard_windows)),
             "count");
  report.Add("sim.shard.deferrals", static_cast<double>(s2.shard_deferrals), "count");
  report.Add("sim.shard.direct_calls", static_cast<double>(s2.shard_direct), "count");
  const double speedup = Ratio(s1.timed_s, s2.timed_s);
  report.Add("sim.shard.speedup", speedup, "x");
  report.Add("sim.shard.efficiency", speedup / 2.0, "ratio");
  report.Add("chord.build_s", t.build_s, "s");
  report.Add("chord.lookup_hops_mean", t.query_lookup_hops_mean, "hops");
  report.Add("chord.msgs_per_query",
             Ratio(static_cast<double>(Sum(qt, {"chord.lookup"})), queries), "msgs");
  report.Add("rpc.retries", static_cast<double>(t.rpc_retries), "count");
  report.Add("rpc.timeouts", static_cast<double>(t.rpc_timeouts), "count");
  report.Add("tracking.preload_s", t.preload_s, "s");
  report.Add("tracking.schedule_s", t.schedule_s, "s");
  report.Add("tracking.flush_s", t.flush_s, "s");
  const Traffic& wt = t.timed_traffic;
  report.Add("tracking.index_msgs_per_capture",
             Ratio(static_cast<double>(Sum(wt, {"track.routed", "track.arrival",
                                                "track.group_arrival"})),
                   caps),
             "msgs");
  report.Add("tracking.iop_msgs_per_capture",
             Ratio(static_cast<double>(Sum(wt, {"track.iop_"})), caps), "msgs");
  report.Add("tracking.replica_msgs_per_capture",
             Ratio(static_cast<double>(Sum(wt, {"track.replica"})), caps), "msgs");
  report.Add("tracking.replica_bytes_per_capture",
             Ratio(static_cast<double>(Sum(wt, {"track.replica"}, true)), caps), "B");
  report.Add("tracking.self_s", self("tracking"), "s");
  report.Add("tracking.probe_msgs_per_query",
             Ratio(static_cast<double>(Sum(qt, {"track.probe"})), queries), "msgs");
  report.Add("tracking.walk_msgs_per_query",
             Ratio(static_cast<double>(Sum(qt, {"track.walk"})), queries), "msgs");
  report.Add("tracking.probe_hops_mean",
             Ratio(static_cast<double>(q.probe_hops), static_cast<double>(q.traces)), "hops");
  report.Add("moods.trace_len_mean",
             Ratio(static_cast<double>(q.trace_visits), static_cast<double>(q.trace_ms.size())),
             "visits");
  report.Add("moods.iop_objects", static_cast<double>(t.iop_objects), "count");
  report.Add("obs.invariants.scan_s", t.monitor_scan_s, "s");
  report.Add("obs.invariants.scan_share", Ratio(t.monitor_scan_s, t.timed_s), "ratio");
  report.Add("obs.invariants.scans", static_cast<double>(t.monitor_scans), "count");
  report.Add("obs.invariants.deltas_per_capture",
             Ratio(static_cast<double>(t.monitor_deltas), all_caps), "count");
  report.Add("obs.invariants.final_sweep_s", t.final_sweep_s, "s");
  report.Add("obs.invariants.violations", static_cast<double>(t.violations), "count");
  report.Add("obs.invariants.cross_check_misses", static_cast<double>(t.cross_check_misses),
             "count");
  report.Add("obs.recorder.events_per_capture",
             Ratio(static_cast<double>(t.recorder_events), all_caps), "count");
  report.Add("obs.bus.self_s", self("obs.bus"), "s");
  report.Add("obs.recorder.self_s", self("obs.recorder"), "s");
  report.Add("obs.invariants.self_s", self("obs.invariants"), "s");
  report.Add("obs.profiler.overhead", Ratio(Wall(ladder[4]) - Wall(ladder[3]), Wall(ladder[3])),
             "ratio");
  report.Add("ladder.replication_s", Wall(ladder[1]) - Wall(ladder[0]), "s");
  report.Add("ladder.invariants_s", Wall(ladder[2]) - Wall(ladder[1]), "s");
  report.Add("ladder.recorder_s", Wall(ladder[3]) - Wall(ladder[2]), "s");
  report.Add("ladder.profiler_s", Wall(ladder[4]) - Wall(ladder[3]), "s");
  report.Add("ladder.shards_s", Wall(ladder[5]) - Wall(ladder[4]), "s");
  report.Add("trace.overhead", Ratio(Throughput(w, plain), Throughput(w, t)) - 1.0, "ratio");

  std::ostringstream notes;
  notes << "traced " << w.name << " seed " << args.seed << ", host cores "
        << std::thread::hardware_concurrency() << "; " << spans.spans().size()
        << " host spans; ladder walls (s):";
  for (const RoundResult& rung : ladder) notes << " " << Wall(rung);
  notes << "\n  layer self time in the timed phase (span self, s): tracking.schedule "
        << spans.SelfTotal("tracking.schedule", timed) << ", sim.run "
        << spans.SelfTotal("sim.run", timed) << ", tracking.flush "
        << spans.SelfTotal("tracking.flush", timed);
  report.Note(notes.str());
  if (!args.trace_out.empty() && !spans.WriteJsonl(args.trace_out)) {
    report.Check(false, "could not write spans to " + args.trace_out);
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const RoundResult* r : {&plain, &t}) {
    attempted += r->preload_captures + r->timed_captures + QueriesAttempted(*r);
    failed += QueryFailures(*r);
  }
  report.Print(attempted, failed + report.FailedChecks());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  Report report;
  // Inputs are a function of the seed alone: the same seed regenerates the
  // same plan, another seed gives another.
  const Geometry& g = w->movement.geometry;
  report.Check(PlanDigest(w->movement) == PlanDigest(MakeMovement(g, args.seed)),
               "same seed produced a different plan");
  report.Check(PlanDigest(w->movement) != PlanDigest(MakeMovement(g, args.seed + 1)),
               "a different seed produced the same plan");
  try {
    return args.trace ? RunTraced(args, *w, report) : RunEndToEnd(args, *w, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
