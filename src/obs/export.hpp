#pragma once
// Exporters for the observability layer.
//
// Two consumers, two formats:
//  * PerfettoExporter renders the Tracer's spans and wire messages as
//    Chrome/Perfetto trace-event JSON ("X" complete events per span, "i"
//    instants per message), loadable in ui.perfetto.dev — one track per
//    actor, so a query's probe/walk/rpc tree reads left to right across
//    the nodes it touched.
//  * TimeSeriesSampler snapshots sim::Metrics periodically on the
//    simulated clock and emits (t_ms, instrument, value) rows as CSV or
//    JSONL, turning end-of-run totals into time series (indexing cost
//    ramp-up, retry bursts under loss, queue drain).
//
// This header sits *above* sim (it includes sim headers); trace.hpp and
// registry.hpp stay below sim. See DESIGN.md §7.

#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace peertrack::obs {

/// Bounded-horizon periodic self-rescheduling, shared by every sim-clock
/// observer (TimeSeriesSampler, InvariantMonitor): run
/// `body` now, then again every `period_ms` while the NEXT tick lands at
/// or before `until_ms`. The horizon bound is what lets a drained
/// simulator terminate — the schedule never keeps the event queue alive
/// past `until_ms`. `body` captures must outlive the horizon.
template <typename Body>
void BoundedPeriodicSchedule(sim::Simulator& simulator, double period_ms,
                             double until_ms, Body body) {
  body();
  if (period_ms > 0.0 && simulator.Now() + period_ms <= until_ms) {
    simulator.ScheduleAfter(
        period_ms, [&simulator, period_ms, until_ms,
                    body = std::move(body)]() mutable {
          BoundedPeriodicSchedule(simulator, period_ms, until_ms,
                                  std::move(body));
        });
  }
}

class PerfettoExporter {
 public:
  /// Render every span and message event as a trace-event JSON document
  /// ({"traceEvents":[...],"displayTimeUnit":"ms"}). Span ts/dur are in
  /// microseconds per the format; tid is the owning actor. Still-open
  /// spans export with dur 0 and status "open".
  static std::string ToJson(const Tracer& tracer);

  /// ToJson + write to `path`. Returns false when the file cannot be
  /// opened or written.
  static bool WriteFile(const Tracer& tracer, const std::string& path);
};

/// Periodic snapshot of a Metrics object on the simulated clock.
///
/// Ticks are scheduled only up to the `until_ms` horizon passed to Start,
/// so a drained simulator still terminates (the sampler never keeps the
/// event queue alive past its horizon). Each sample appends one row per
/// built-in total, named counter, gauge, and histogram statistic.
class TimeSeriesSampler {
 public:
  struct Row {
    double t_ms = 0.0;
    std::string instrument;
    double value = 0.0;
  };

  TimeSeriesSampler(sim::Simulator& simulator, const sim::Metrics& metrics)
      : simulator_(simulator), metrics_(metrics) {}
  ~TimeSeriesSampler();
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Sample now and then every `period_ms` until the simulated clock
  /// passes `until_ms` (BoundedPeriodicSchedule). Also registers a drain
  /// hook: when the simulator's event queue empties mid-interval, one
  /// final sample is flushed at the drain time, so activity in the last
  /// partial period is never silently dropped from the series.
  void Start(double period_ms, double until_ms);

  /// Take one snapshot at the current simulated time. A repeat call at
  /// the same simulated time is a no-op (the rows would be identical);
  /// this is what keeps the drain flush from duplicating a sample when
  /// the drain lands exactly on a periodic tick.
  void SampleNow();

  const std::vector<Row>& rows() const noexcept { return rows_; }

  /// Write rows as CSV with header `t_ms,instrument,value`. Returns false
  /// on I/O failure.
  bool WriteCsv(const std::string& path) const;

  /// Write rows as JSON Lines: {"t_ms":..,"instrument":"..","value":..}.
  bool WriteJsonl(const std::string& path) const;

 private:
  sim::Simulator& simulator_;
  const sim::Metrics& metrics_;
  std::vector<Row> rows_;
  double last_sample_t_ = -1.0;       ///< Sim time of the latest sample.
  sim::Simulator::DrainHookId drain_hook_ = 0;  ///< 0 = not registered.
};

}  // namespace peertrack::obs
