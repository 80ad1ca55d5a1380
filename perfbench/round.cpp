#include "round.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/profiler.hpp"
#include "sim/message_pool.hpp"
#include "sim/shard_engine.hpp"
#include "tracking/tracking_system.hpp"

namespace perfbench {

namespace {

using peertrack::tracking::TrackerNode;
using peertrack::tracking::TrackingSystem;
namespace obs = peertrack::obs;

constexpr double kMonitorPeriodMs = 5000.0;
constexpr std::uint32_t kFullSweepEvery = 10;
constexpr std::size_t kCheckBatch = 4096;

class Stopwatch {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t MixDouble(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof v);
  return Mix(bits);
}

Traffic Delta(const Traffic& after, const Traffic& before) {
  Traffic out;
  for (const auto& [type, cb] : after) {
    const auto it = before.find(type);
    const std::uint64_t c0 = it == before.end() ? 0 : it->second.first;
    const std::uint64_t b0 = it == before.end() ? 0 : it->second.second;
    if (cb.first != c0) out[type] = {cb.first - c0, cb.second - b0};
  }
  return out;
}

Traffic TrafficOf(TrackingSystem& system) {
  Traffic out;
  for (const auto& [type, counter] : system.metrics().ByType()) {
    out[type] = {counter.count, counter.bytes};
  }
  return out;
}

struct HopStats {
  std::size_t count = 0;
  double sum = 0.0;
};

HopStats LookupHops(TrackingSystem& system) {
  const auto& stats = system.metrics().LookupHops();
  return {stats.Count(), stats.Sum()};
}

// One query as planned: which object, which kind, from where.
struct PlannedQuery {
  std::uint32_t object = 0;
  bool trace = false;
  std::uint32_t origin = 0;
};

// Answer slot filled by the callback. One slot per query, so callbacks that
// run on different shard threads never share a slot.
struct Answer {
  bool done = false;
  bool ok = false;
  bool broken = false;
  std::uint32_t node = peertrack::moods::kNowhere;
  double arrived = 0.0;
  double issued = 0.0;
  double completed = 0.0;
  std::vector<TrackerNode::TraceStep> path;
  std::size_t probe_hops = 0;
};

// Send `q`; its callback fills `slot`, then runs `then` (if any). `slot`
// must outlive the answer.
void Issue(TrackingSystem& system, const Movement& movement, const PlannedQuery& q,
           Answer& slot, std::function<void()> then = {}) {
  const auto& key = movement.keys[q.object];
  if (q.trace) {
    system.TraceQuery(q.origin, key, [&slot, then](TrackerNode::TraceResult res) {
      slot.done = true;
      slot.ok = res.ok;
      slot.broken = res.chain_broken;
      slot.issued = res.issued_at;
      slot.completed = res.completed_at;
      slot.path = std::move(res.path);
      slot.probe_hops = res.probe_hops;
      if (then) then();
    });
  } else {
    system.LocateQuery(q.origin, key, [&slot, &system, then](TrackerNode::LocateResult res) {
      slot.done = true;
      slot.ok = res.ok;
      slot.node = system.NodeIndexOfActor(res.node.actor);
      slot.arrived = res.arrived;
      slot.issued = res.issued_at;
      slot.completed = res.completed_at;
      if (then) then();
    });
  }
}

// Fold one answered query into `stats`. `exact` = the world is quiesced, so
// the answer must equal the oracle exactly; otherwise only a locate's node
// is compared with the truth at issue time (staleness).
void Account(TrackingSystem& system, const Movement& movement,
             const PlannedQuery& q, const Answer& a, std::uint64_t id, bool exact,
             QueryStats& stats, SpanLog* spans) {
  const auto& key = movement.keys[q.object];
  const auto& oracle = system.oracle();
  const double latency = a.completed - a.issued;
  (q.trace ? stats.traces : stats.locates) += 1;
  std::uint64_t h = Mix(id) ^ Mix(q.object + (q.trace ? 1ull << 40 : 0));
  if (!a.done || !a.ok || a.broken) {
    ++stats.failed;
  } else if (q.trace) {
    stats.trace_ms.push_back(latency);
    stats.trace_visits += a.path.size();
    stats.probe_hops += a.probe_hops;
    if (exact) {
      const auto* truth = oracle.FullTrace(key);
      bool same = truth != nullptr && truth->size() == a.path.size();
      for (std::size_t i = 0; same && i < a.path.size(); ++i) {
        same = system.NodeIndexOfActor(a.path[i].node.actor) == (*truth)[i].node &&
               a.path[i].arrived == (*truth)[i].arrived;
      }
      if (!same) ++stats.wrong;
    }
    for (const auto& step : a.path) {
      h = Mix(h ^ step.node.actor) ^ MixDouble(step.arrived);
    }
  } else {
    stats.locate_ms.push_back(latency);
    const auto truth = oracle.Locate(key, a.issued);
    if (a.node != truth) {
      ++(exact ? stats.wrong : stats.stale);
    } else if (exact) {
      const auto* trace = oracle.FullTrace(key);
      if (trace == nullptr || trace->back().arrived != a.arrived) ++stats.wrong;
    }
    h = Mix(h ^ a.node) ^ MixDouble(a.arrived);
  }
  stats.digest += Mix(h ^ MixDouble(latency));
  if (spans != nullptr) {
    spans->AddQuery({id, q.trace ? 'T' : 'L', exact, a.issued, a.completed});
  }
}

// The timed-phase query load: `clients` independent closed-loop clients.
// Each issues its next query from the previous one's callback until the
// simulated clock passes `until`. Single-shard only: callbacks schedule
// new queries, which is safe only on the one simulator.
class ClosedLoop {
 public:
  ClosedLoop(TrackingSystem& system, const Scenario& scenario, QueryStats& stats,
             SpanLog* spans)
      : system_(system), scenario_(scenario), stats_(stats), spans_(spans) {
    for (std::size_t c = 0; c < scenario.clients; ++c) {
      clients_.push_back(StreamOf(scenario.seed, 1000 + c));
    }
  }

  void Start() {
    for (std::size_t c = 0; c < clients_.size(); ++c) Next(c);
  }

 private:
  struct InFlight {
    PlannedQuery query;
    Answer answer;
    std::uint64_t id = 0;
  };

  void Next(std::size_t client) {
    if (system_.simulator().Now() >= scenario_.query_until_ms) return;
    Rng& rng = clients_[client];
    auto flight = std::make_shared<InFlight>();
    flight->query.trace = rng.Below(4) == 0;  // 3 L(o,t) : 1 TR(o).
    flight->query.object = scenario_.zipf->Draw(rng);
    flight->query.origin = static_cast<std::uint32_t>(
        rng.Below(scenario_.movement->geometry.nodes));
    flight->id = next_id_++;
    Issue(system_, *scenario_.movement, flight->query, flight->answer,
          [this, client, flight] {
            Account(system_, *scenario_.movement, flight->query, flight->answer,
                    flight->id, /*exact=*/false, stats_, spans_);
            Next(client);
          });
  }

  TrackingSystem& system_;
  const Scenario& scenario_;
  QueryStats& stats_;
  SpanLog* spans_;
  std::vector<Rng> clients_;
  std::uint64_t next_id_ = 0;
};

// Post-phase oracle check: L(o, now) and TR(o) for every sampled object,
// issued from the coordinator (safe at any shard count) in batches of
// `batch`, each drained before the next. The simulated network has no
// queueing, so a query's simulated latency does not depend on how many
// run beside it; large batches keep the sharded kernel's per-Run barrier
// cost out of the host timing.
void CheckAnswers(TrackingSystem& system, const Scenario& scenario,
                  std::size_t batch, QueryStats& stats, SpanLog* spans) {
  Rng rng = StreamOf(scenario.seed, 7);
  std::vector<PlannedQuery> plan;
  for (const std::uint32_t object : scenario.check_sample) {
    const auto origin = static_cast<std::uint32_t>(
        rng.Below(scenario.movement->geometry.nodes));
    plan.push_back({object, false, origin});
    plan.push_back({object, true, origin});
  }
  std::vector<Answer> answers(plan.size());
  for (std::size_t begin = 0; begin < plan.size(); begin += batch) {
    const std::size_t end = std::min(plan.size(), begin + batch);
    for (std::size_t i = begin; i < end; ++i) {
      Issue(system, *scenario.movement, plan[i], answers[i]);
    }
    {
      Span run(spans, "sim.run");
      system.Run();
    }
    for (std::size_t i = begin; i < end; ++i) {
      Account(system, *scenario.movement, plan[i], answers[i], 1'000'000'000ull + i,
              /*exact=*/true, stats, spans);
      answers[i].path.clear();
    }
  }
}

double Imbalance(const std::vector<std::uint64_t>& loads) {
  double sum = 0.0, max = 0.0;
  for (const auto v : loads) {
    sum += static_cast<double>(v);
    max = std::max(max, static_cast<double>(v));
  }
  return sum > 0.0 ? max / (sum / static_cast<double>(loads.size())) : 0.0;
}

void ReadProfile(const obs::Profiler::Report& report, RoundResult& r) {
  for (const auto& total : report.totals) {
    const auto& info = report.InfoOf(total.scope);
    std::string layer;
    if (info.category == "tracking" ||
        (info.category == "deliver" && info.name.starts_with("track."))) {
      layer = "tracking";
    } else if (info.category == "bus") {
      layer = "obs.bus";
    } else if (info.category == "obs.recorder") {
      layer = "obs.recorder";
    } else if (info.category == "invariant") {
      layer = "obs.invariants";
    } else {
      continue;
    }
    r.prof_self_s[layer] += total.excl_ms / 1000.0;
  }
}

}  // namespace

RoundResult RunRound(const Scenario& scenario, const Stack& stack, SpanLog* spans) {
  if (scenario.clients > 0 && stack.shards != 1) {
    throw std::invalid_argument("closed-loop query clients need a single shard");
  }
  RoundResult r;
  obs::Profiler::SetEnabled(stack.profiler);
  Span round(spans, "round");
  const Movement& movement = *scenario.movement;

  peertrack::tracking::SystemConfig config;
  config.tracker.mode = peertrack::tracking::IndexingMode::kGroup;
  config.tracker.window.tmax_ms = 1000.0;
  config.tracker.window.nmax = 8192;
  config.tracker.replicate_index = stack.replicate;
  // Delegated ascent makes synchronous cross-actor calls, which the
  // sharded kernel forbids; every stack runs without it so that S=1 and
  // S=2 run one protocol and must agree on every simulated count.
  config.tracker.delegation_threshold = std::numeric_limits<std::size_t>::max();
  config.seed = StreamOf(scenario.seed, 9).Next();
  config.shards = stack.shards;

  std::unique_ptr<TrackingSystem> system;
  std::unique_ptr<obs::InvariantMonitor> monitor;
  {
    Span setup(spans, "setup");
    Stopwatch setup_clock;
    {
      Span span(spans, "chord.build");
      Stopwatch clock;
      system = std::make_unique<TrackingSystem>(movement.geometry.nodes, config);
      r.build_s = clock.Seconds();
    }
    if (stack.recorder_events > 0) system->network().EnableRecorder(stack.recorder_events);
    if (stack.monitor) {
      monitor = std::make_unique<obs::InvariantMonitor>(system->MonitorSimulator(),
                                                        system->metrics().registry());
      monitor->EnableIncremental(system->network().delta_bus(), kFullSweepEvery);
      obs::InstallRingChecks(*monitor, system->ring());
      obs::InstallTrackingChecks(*monitor, *system);
      monitor->Start(kMonitorPeriodMs, scenario.monitor_until_ms);
    }
    {
      Span span(spans, "tracking.preload");
      Stopwatch clock;
      {
        Span loop(spans, "tracking.schedule");
        for (const Capture& c : scenario.preload) {
          system->CaptureAt(c.node, movement.keys[c.object], c.at);
        }
      }
      {
        // RunUntil, not Run + FlushAllWindows: both drain the monitor's
        // whole periodic schedule, which would park the clock past the
        // timed phase. Open capture windows close on their own Tmax timer
        // well before preload_until_ms.
        Span run(spans, "sim.run");
        system->RunUntil(scenario.preload_until_ms);
      }
      r.preload_s = clock.Seconds();
    }
    r.preload_captures = scenario.preload.size();
    r.setup_s = setup_clock.Seconds();
  }

  // --- Timed phase -------------------------------------------------------
  const std::uint64_t events0 = system->ProcessedEvents();
  const std::uint64_t messages0 = system->metrics().TotalMessages();
  const std::uint64_t bytes0 = system->metrics().TotalBytes();
  const Traffic traffic0 = TrafficOf(*system);
  const HopStats hops0 = LookupHops(*system);
  const std::uint64_t scans0 = monitor ? monitor->ScansRun() : 0;
  const double scan_ms0 = monitor ? monitor->ScanWallMs() : 0.0;
  const auto* engine = system->engine();
  const std::uint64_t windows0 = engine ? engine->WindowsExecuted() : 0;
  const std::uint64_t cross0 = engine ? engine->CrossShardMessages() : 0;
  const std::uint64_t deferrals0 = engine ? engine->LookaheadDeferrals() : 0;
  peertrack::sim::MessagePoolStats::ResetThread();
  if (stack.profiler) obs::Profiler::Reset();
  {
    Span timed(spans, "timed");
    std::unique_ptr<ClosedLoop> clients;
    {
      Span loop(spans, "tracking.schedule");
      Stopwatch clock;
      for (const Capture& c : scenario.timed) {
        system->CaptureAt(c.node, movement.keys[c.object], c.at);
      }
      if (scenario.clients > 0) {
        clients = std::make_unique<ClosedLoop>(*system, scenario, r.timed_queries, spans);
        clients->Start();
      }
      r.schedule_s = clock.Seconds();
    }
    {
      Span run(spans, "sim.run");
      Stopwatch clock;
      system->Run();
      r.run_s = clock.Seconds();
    }
    if (stack.profiler) r.prof_run_attributed_s = obs::Profiler::Snapshot().root_incl_ms / 1000.0;
    {
      Span flush(spans, "tracking.flush");
      Stopwatch clock;
      system->FlushAllWindows();
      r.flush_s = clock.Seconds();
    }
  }
  r.timed_s = r.schedule_s + r.run_s + r.flush_s;
  if (stack.profiler) ReadProfile(obs::Profiler::Snapshot(), r);
  const auto pool = peertrack::sim::MessagePoolStats::Read();
  r.pool_served = pool.served;
  r.pool_fallback = pool.fallback;
  r.timed_captures = scenario.timed.size();
  r.timed_events = system->ProcessedEvents() - events0;
  r.timed_messages = system->metrics().TotalMessages() - messages0;
  r.timed_bytes = system->metrics().TotalBytes() - bytes0;
  const Traffic traffic1 = TrafficOf(*system);
  r.timed_traffic = Delta(traffic1, traffic0);
  const HopStats hops1 = LookupHops(*system);
  if (monitor) {
    r.monitor_ticks = monitor->ScansRun() - scans0;
    r.monitor_scan_s = (monitor->ScanWallMs() - scan_ms0) / 1000.0;
  }
  if (engine) {
    r.shard_windows = engine->WindowsExecuted() - windows0;
    r.shard_cross = engine->CrossShardMessages() - cross0;
    r.shard_deferrals = engine->LookaheadDeferrals() - deferrals0;
  }

  // --- Output check ------------------------------------------------------
  {
    Span check(spans, "check");
    Stopwatch clock;
    CheckAnswers(*system, scenario, kCheckBatch, r.check_queries, spans);
    r.check_s = clock.Seconds();
  }
  r.check_traffic = Delta(TrafficOf(*system), traffic1);
  const HopStats hops2 = LookupHops(*system);
  // Query-phase chord lookups: the timed phase when it carries the query
  // load, else the check phase.
  const HopStats& from = scenario.clients > 0 ? hops0 : hops1;
  const HopStats& to = scenario.clients > 0 ? hops1 : hops2;
  if (to.count > from.count) {
    r.query_lookup_hops_mean = (to.sum - from.sum) / static_cast<double>(to.count - from.count);
  }

  if (monitor) {
    Span sweep(spans, "obs.invariants.final_sweep");
    const double before = monitor->ScanWallMs();
    monitor->RunOnce(/*force_full_sweep=*/true);
    r.final_sweep_s = (monitor->ScanWallMs() - before) / 1000.0;
    r.monitor_scans = monitor->ScansRun();
    r.monitor_deltas = monitor->DeltasRouted();
    r.violations = monitor->ViolationsOpened();
    r.open_violations = monitor->OpenViolations();
    r.cross_check_misses = monitor->CrossCheckMisses();
  }
  if (engine) r.shard_direct = engine->CrossShardDirectCalls();
  if (const auto* recorder = system->network().recorder()) {
    r.recorder_events = recorder->EventsRecorded();
  }
  r.rpc_retries = system->metrics().RpcRetries();
  r.rpc_timeouts = system->metrics().RpcTimeouts();
  for (std::size_t n = 0; n < system->NodeCount(); ++n) {
    r.iop_objects += system->Tracker(n).iop().ObjectCount();
  }
  r.load_imbalance = Imbalance(system->IndexLoadPerNode());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::uint64_t d = Mix(r.timed_events) ^ Mix(r.timed_messages + 1) ^
                    Mix(r.timed_bytes + 2) ^ Mix(r.timed_captures + 3);
  d = Mix(d ^ r.timed_queries.digest) ^ Mix(r.iop_objects + 4);
  d = Mix(d ^ r.violations) ^ Mix(r.monitor_deltas + 5);
  r.digest = d;
  {
    Span teardown(spans, "teardown");
    monitor.reset();
    system.reset();
  }
  return r;
}

namespace {

// The pipe format between a round's child and the parent: one field list,
// RoundFields, drives both directions. A field missing from it comes back
// zero in the parent.
class Writer {
 public:
  template <class T>
  void operator()(const T& value) { Put(value); }
  const std::string& bytes() const { return bytes_; }

 private:
  template <class T>
    requires std::is_arithmetic_v<T>
  void Put(const T& v) {
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void Put(const std::string& v) {
    Put(std::uint64_t{v.size()});
    bytes_ += v;
  }
  template <class A, class B>
  void Put(const std::pair<A, B>& v) {
    Put(v.first);
    Put(v.second);
  }
  template <class T>
  void Put(const std::vector<T>& v) {
    Put(std::uint64_t{v.size()});
    for (const T& x : v) Put(x);
  }
  template <class K, class V>
  void Put(const std::map<K, V>& v) {
    Put(std::uint64_t{v.size()});
    for (const auto& [key, x] : v) {
      Put(key);
      Put(x);
    }
  }

  std::string bytes_;
};

class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}
  template <class T>
  void operator()(T& value) { Get(value); }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  void Need(std::uint64_t n) const {
    if (n > bytes_.size() - pos_) throw std::runtime_error("truncated round result");
  }
  template <class T>
    requires std::is_arithmetic_v<T>
  void Get(T& v) {
    Need(sizeof v);
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    pos_ += sizeof v;
  }
  void Get(std::string& v) {
    std::uint64_t n = 0;
    Get(n);
    Need(n);
    v.assign(bytes_, pos_, n);
    pos_ += n;
  }
  template <class A, class B>
  void Get(std::pair<A, B>& v) {
    Get(v.first);
    Get(v.second);
  }
  template <class T>
  void Get(std::vector<T>& v) {
    std::uint64_t n = 0;
    Get(n);
    Need(n);  // Every element takes at least one byte.
    v.resize(n);
    for (T& x : v) Get(x);
  }
  template <class K, class V>
  void Get(std::map<K, V>& v) {
    std::uint64_t n = 0;
    Get(n);
    Need(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      K key{};
      V x{};
      Get(key);
      Get(x);
      v.emplace(std::move(key), std::move(x));
    }
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
};

template <class Ar, class Q>
void QueryFields(Ar& ar, Q& q) {
  ar(q.locates), ar(q.traces), ar(q.failed), ar(q.wrong), ar(q.stale);
  ar(q.locate_ms), ar(q.trace_ms), ar(q.trace_visits), ar(q.probe_hops), ar(q.digest);
}

template <class Ar, class R>
void RoundFields(Ar& ar, R& r) {
  ar(r.build_s), ar(r.preload_s), ar(r.setup_s), ar(r.schedule_s), ar(r.run_s);
  ar(r.flush_s), ar(r.timed_s), ar(r.check_s), ar(r.final_sweep_s);
  ar(r.preload_captures), ar(r.timed_captures), ar(r.timed_events);
  ar(r.timed_messages), ar(r.timed_bytes), ar(r.timed_traffic), ar(r.check_traffic);
  QueryFields(ar, r.timed_queries);
  QueryFields(ar, r.check_queries);
  ar(r.rpc_retries), ar(r.rpc_timeouts), ar(r.query_lookup_hops_mean);
  ar(r.pool_served), ar(r.pool_fallback), ar(r.shard_windows), ar(r.shard_cross);
  ar(r.shard_deferrals), ar(r.shard_direct), ar(r.monitor_scans), ar(r.monitor_ticks);
  ar(r.monitor_deltas), ar(r.violations), ar(r.open_violations);
  ar(r.cross_check_misses), ar(r.monitor_scan_s), ar(r.recorder_events);
  ar(r.iop_objects), ar(r.load_imbalance), ar(r.peak_rss_mb), ar(r.digest);
  ar(r.prof_run_attributed_s), ar(r.prof_self_s);
}

bool WriteAll(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::string ReadAll(int fd) {
  std::string bytes;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = read(fd, buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buffer, static_cast<std::size_t>(n));
  }
  return bytes;
}

}  // namespace

RoundResult RunIsolated(const Scenario& scenario, const Stack& stack) {
  std::fflush(nullptr);  // The child must not inherit and re-flush output.
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // Die with the parent, so a killed run leaves no round behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    int code = 1;
    try {
      const RoundResult result = RunRound(scenario, stack, nullptr);
      Writer writer;
      RoundFields(writer, result);
      if (WriteAll(fds[1], writer.bytes())) code = 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: round failed: %s\n", e.what());
    }
    _exit(code);
  }
  close(fds[1]);
  const std::string bytes = ReadAll(fds[0]);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("round process failed");
  }
  RoundResult r;
  Reader reader(bytes);
  RoundFields(reader, r);
  if (!reader.AtEnd()) throw std::runtime_error("malformed round result");
  return r;
}

}  // namespace perfbench
