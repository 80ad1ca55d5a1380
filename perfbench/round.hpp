#pragma once
// One round of a workload: build the system, preload it, run the timed
// phase, then check a seeded sample of answers against the movement oracle.
//
// Every round builds a fresh tracking::TrackingSystem, so rounds are
// independent repeats of the same seeded inputs; their simulated counts
// must agree exactly (RoundResult::digest).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "spans.hpp"

namespace perfbench {

/// The layers a round switches on. Each field is set by config alone.
struct Stack {
  std::size_t shards = 1;
  bool replicate = true;           ///< Gateway index replication, R=2.
  bool monitor = false;            ///< Incremental invariant monitor.
  std::size_t recorder_events = 0; ///< Flight recorder ring per actor; 0 = off.
  bool profiler = false;

  friend bool operator==(const Stack&, const Stack&) = default;
};

/// What a round runs: the inputs plus the shape of its timed phase.
struct Scenario {
  const Movement* movement = nullptr;
  std::vector<Capture> preload;  ///< Set-up captures, drained before timing.
  /// Set-up runs the simulated clock to exactly this instant, after the
  /// preload's last capture window has closed and drained and before the
  /// timed phase's first capture.
  double preload_until_ms = 0.0;
  std::vector<Capture> timed;    ///< Timed-phase captures (open timetable).
  /// Closed-loop query clients during the timed phase (0 = none). Clients
  /// stop issuing once the simulated clock passes query_until_ms.
  std::size_t clients = 0;
  double query_until_ms = 0.0;
  const ZipfTargets* zipf = nullptr;
  std::vector<std::uint32_t> check_sample;
  std::uint64_t seed = 0;
  double monitor_until_ms = 0.0;  ///< Last periodic scan instant.
};

struct QueryStats {
  std::uint64_t locates = 0;
  std::uint64_t traces = 0;
  std::uint64_t failed = 0;   ///< Callback reported !ok, or a broken chain.
  std::uint64_t wrong = 0;    ///< Differs from the oracle (check phase only).
  std::uint64_t stale = 0;    ///< Locate answer differs from the oracle at issue.
  std::vector<double> locate_ms;  ///< Simulated issue-to-callback latency.
  std::vector<double> trace_ms;
  std::uint64_t trace_visits = 0;   ///< Sum of answered TR path lengths.
  std::uint64_t probe_hops = 0;     ///< Sum of TR routing probes.
  std::uint64_t digest = 0;         ///< Order-independent hash of answers.
  std::uint64_t Queries() const { return locates + traces; }
};

/// Message count and bytes by type over one phase.
using Traffic = std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>;

struct RoundResult {
  // Host seconds.
  double build_s = 0, preload_s = 0, setup_s = 0;
  double schedule_s = 0, run_s = 0, flush_s = 0, timed_s = 0;
  double check_s = 0, final_sweep_s = 0;

  // Simulated counts; a pure function of seed and stack.
  std::uint64_t preload_captures = 0;
  std::uint64_t timed_captures = 0;
  std::uint64_t timed_events = 0;
  std::uint64_t timed_messages = 0;
  std::uint64_t timed_bytes = 0;
  Traffic timed_traffic;
  Traffic check_traffic;
  QueryStats timed_queries;
  QueryStats check_queries;
  std::uint64_t rpc_retries = 0, rpc_timeouts = 0;
  double query_lookup_hops_mean = 0;  ///< chord lookups in the query phase.
  std::uint64_t pool_served = 0, pool_fallback = 0;  ///< Timed, this thread.
  std::uint64_t shard_windows = 0, shard_cross = 0, shard_deferrals = 0,
                shard_direct = 0;
  std::uint64_t monitor_scans = 0, monitor_ticks = 0, monitor_deltas = 0;
  std::uint64_t violations = 0, open_violations = 0, cross_check_misses = 0;
  double monitor_scan_s = 0;  ///< Periodic scans inside the timed phase.
  std::uint64_t recorder_events = 0;
  std::uint64_t iop_objects = 0;
  double load_imbalance = 0;
  double peak_rss_mb = 0;  ///< ru_maxrss of the process that ran the round.
  /// Digest of the timed phase's simulated counts and answers and of the
  /// end state; the check phase has its own, check_queries.digest.
  std::uint64_t digest = 0;

  // Profiler attribution over the timed phase (traced rounds only).
  double prof_run_attributed_s = 0;  ///< Root-inclusive time inside Run.
  std::map<std::string, double> prof_self_s;  ///< Exclusive s by layer.
};

RoundResult RunRound(const Scenario& scenario, const Stack& stack,
                     SpanLog* spans);

/// RunRound in a forked child process, so every round starts from the
/// same heap: the parent holds only the inputs. Rounds run one after
/// another in one process come out slower each time, because the message
/// pool's freelists and the allocator's free lists keep the previous
/// round's scattered order. Call only while the calling process runs no
/// other thread. Throws if the child fails.
RoundResult RunIsolated(const Scenario& scenario, const Stack& stack);

}  // namespace perfbench
