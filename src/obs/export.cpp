#include "obs/export.hpp"

#include <fstream>

#include "obs/health.hpp"  // Shared JsonEscape.
#include "util/format.hpp"

namespace peertrack::obs {

std::string PerfettoExporter::ToJson(const Tracer& tracer) {
  std::string json = "{\"traceEvents\":[";
  bool first = true;
  const auto append = [&](std::string event) {
    if (!first) json += ',';
    first = false;
    json += event;
  };

  for (const SpanRecord& span : tracer.Spans()) {
    // Trace-event ts/dur are microseconds; simulated time is milliseconds.
    const double ts_us = span.start_ms * 1000.0;
    const double dur_us = span.open ? 0.0 : (span.end_ms - span.start_ms) * 1000.0;
    append(util::Format(
        "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},"
        "\"pid\":0,\"tid\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},"
        "\"status\":\"{}\"}}}}",
        JsonEscape(span.name), ts_us, dur_us, span.actor, span.trace_id,
        span.span_id, span.parent_id,
        JsonEscape(span.open ? "open" : span.status)));
  }
  for (const MessageEvent& msg : tracer.Messages()) {
    append(util::Format(
        "{{\"name\":\"msg:{}\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\","
        "\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{\"to\":{},\"bytes\":{},"
        "\"trace\":{},\"span\":{}}}}}",
        JsonEscape(msg.type), msg.at_ms * 1000.0, msg.from, msg.to, msg.bytes,
        msg.trace.trace_id, msg.trace.span_id));
  }
  json += "],\"displayTimeUnit\":\"ms\"}";
  return json;
}

bool PerfettoExporter::WriteFile(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << ToJson(tracer);
  return static_cast<bool>(out);
}

TimeSeriesSampler::~TimeSeriesSampler() {
  if (drain_hook_ != 0) simulator_.RemoveDrainHook(drain_hook_);
}

void TimeSeriesSampler::Start(double period_ms, double until_ms) {
  BoundedPeriodicSchedule(simulator_, period_ms, until_ms,
                          [this] { SampleNow(); });
  // Flush a final sample when the queue drains mid-interval; SampleNow's
  // same-timestamp guard makes this a no-op when the drain coincides with
  // a periodic tick.
  if (drain_hook_ == 0) {
    drain_hook_ = simulator_.AddDrainHook([this] { SampleNow(); });
  }
}

void TimeSeriesSampler::SampleNow() {
  const double t = simulator_.Now();
  if (t <= last_sample_t_) return;  // Already sampled at this instant.
  last_sample_t_ = t;
  const auto row = [&](std::string instrument, double value) {
    rows_.push_back(Row{t, std::move(instrument), value});
  };

  row("total_messages", static_cast<double>(metrics_.TotalMessages()));
  row("total_bytes", static_cast<double>(metrics_.TotalBytes()));
  row("dropped_messages", static_cast<double>(metrics_.DroppedMessages()));
  row("rpc_retries", static_cast<double>(metrics_.RpcRetries()));
  row("rpc_timeouts", static_cast<double>(metrics_.RpcTimeouts()));

  const obs::Registry& registry = metrics_.registry();
  for (const auto& [name, counter] : registry.counters()) {
    row(util::Format("counter:{}", name), static_cast<double>(counter.Value()));
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    row(util::Format("gauge:{}", name), gauge.Value());
  }
  for (const auto& [name, hist] : registry.histograms()) {
    row(util::Format("{}.count", name), static_cast<double>(hist.Count()));
    row(util::Format("{}.p50", name), hist.P50());
    row(util::Format("{}.p95", name), hist.P95());
    row(util::Format("{}.p99", name), hist.P99());
    row(util::Format("{}.max", name), hist.Max());
  }
}

bool TimeSeriesSampler::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "t_ms,instrument,value\n";
  for (const Row& row : rows_) {
    out << util::Format("{},{},{}\n", row.t_ms, row.instrument, row.value);
  }
  return static_cast<bool>(out);
}

bool TimeSeriesSampler::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Row& row : rows_) {
    out << util::Format("{{\"t_ms\":{},\"instrument\":\"{}\",\"value\":{}}}\n",
                        row.t_ms, JsonEscape(row.instrument), row.value);
  }
  return static_cast<bool>(out);
}

}  // namespace peertrack::obs
