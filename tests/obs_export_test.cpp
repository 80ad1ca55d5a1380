// Exporter tests: the time-series sampler must emit monotone sim-time rows
// with the expected instruments, and the Perfetto exporter must produce
// valid trace-event JSON (checked with a small recursive-descent parser —
// no JSON library in the toolchain, and hand-rolling the check keeps the
// test honest about syntax, not just substrings).

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <string>
#include <string_view>

#include "obs/export.hpp"
#include "obs/invariants.hpp"
#include "tracking/tracking_system.hpp"
#include "workload/scenario.hpp"

namespace peertrack::obs {
namespace {

// --- Minimal JSON validator -------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  /// True when the whole input is exactly one valid JSON value.
  bool Validate() {
    SkipWs();
    if (!ParseValue()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

  std::size_t objects_seen = 0;

 private:
  bool ParseValue() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return ParseString();
      case 't': return ParseLiteral("true");
      case 'f': return ParseLiteral("false");
      case 'n': return ParseLiteral("null");
      default: return ParseNumber();
    }
  }

  bool ParseObject() {
    ++pos_;  // '{'
    ++objects_seen;
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!ParseString()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!ParseValue()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool ParseArray() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!ParseValue()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool ParseString() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      ++pos_;
    }
    return false;  // unterminated
  }

  bool ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(Peek())) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(Peek())) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(Peek())) ++pos_;
    }
    return pos_ > start;
  }

  bool ParseLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(JsonParser, SelfCheck) {
  EXPECT_TRUE(JsonParser(R"({"a":[1,2.5,-3e2],"b":"x\"y","c":null})").Validate());
  EXPECT_FALSE(JsonParser(R"({"a":1)").Validate());
  EXPECT_FALSE(JsonParser(R"({"a":})").Validate());
  EXPECT_FALSE(JsonParser("{} trailing").Validate());
}

// --- Perfetto exporter ------------------------------------------------------

TEST(PerfettoExporter, EmptyTracerIsValidJson) {
  Tracer tracer;
  const std::string json = PerfettoExporter::ToJson(tracer);
  EXPECT_TRUE(JsonParser(json).Validate()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(PerfettoExporter, SpansAndMessagesExportAsEvents) {
  Tracer tracer;
  tracer.SetEnabled(true);
  const TraceContext root = tracer.StartTrace("query.trace", 3, 100.0);
  const TraceContext child = tracer.StartSpan(root, "query.probe#1", 3, 105.0);
  tracer.RecordMessage(106.0, 3, 7, "track.probe", 52, child);
  tracer.EndSpan(child, 115.0, "ok");
  tracer.EndSpan(root, 120.0, "ok");
  // A still-open span and a name needing escaping must not break the JSON.
  tracer.StartTrace("weird\"name\n", 1, 130.0);

  const std::string json = PerfettoExporter::ToJson(tracer);
  JsonParser parser(json);
  ASSERT_TRUE(parser.Validate()) << json;
  EXPECT_GE(parser.objects_seen, 5u);  // document + 3 spans + 1 message
  EXPECT_NE(json.find("\"query.trace\""), std::string::npos);
  EXPECT_NE(json.find("\"msg:track.probe\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // 100 ms -> 100000 us.
  EXPECT_NE(json.find("\"ts\":100000"), std::string::npos);
}

TEST(PerfettoExporter, EndToEndTraceIsValidJson) {
  tracking::TrackingSystem system(16, [] {
    tracking::SystemConfig config;
    config.tracker.mode = tracking::IndexingMode::kGroup;
    config.seed = 0xfeedULL;
    return config;
  }());
  system.network().tracer().SetEnabled(true);
  const auto object = hash::ObjectKey("epc:exported");
  workload::InjectTrajectory(system, object, {3, 7, 1}, 10.0, 500.0);
  system.Run();
  system.FlushAllWindows();
  bool done = false;
  system.TraceQuery(0, object,
                    [&](tracking::TrackerNode::TraceResult) { done = true; });
  system.Run();
  ASSERT_TRUE(done);

  const std::string json = PerfettoExporter::ToJson(system.network().tracer());
  JsonParser parser(json);
  EXPECT_TRUE(parser.Validate());
  EXPECT_GT(parser.objects_seen, 10u);
}

// --- Time-series sampler ----------------------------------------------------

TEST(TimeSeriesSampler, RowsAreMonotoneInSimTime) {
  tracking::TrackingSystem system(8, [] {
    tracking::SystemConfig config;
    config.tracker.mode = tracking::IndexingMode::kIndividual;
    config.seed = 0xfeedULL;
    return config;
  }());
  TimeSeriesSampler sampler(system.simulator(), system.metrics());
  sampler.Start(/*period_ms=*/100.0, /*until_ms=*/2000.0);
  const auto object = hash::ObjectKey("epc:sampled");
  workload::InjectTrajectory(system, object, {1, 4, 6}, 10.0, 500.0);
  system.Run();

  ASSERT_FALSE(sampler.rows().empty());
  double last_t = 0.0;
  std::set<std::string> instruments;
  for (const TimeSeriesSampler::Row& row : sampler.rows()) {
    EXPECT_GE(row.t_ms, last_t);
    last_t = row.t_ms;
    instruments.insert(row.instrument);
  }
  // Ticks every 100 ms up to the 2000 ms horizon, sampling the built-ins.
  EXPECT_GE(last_t, 1000.0);
  EXPECT_LE(last_t, 2000.0);
  EXPECT_TRUE(instruments.contains("total_messages"));
  EXPECT_TRUE(instruments.contains("total_bytes"));
  EXPECT_TRUE(instruments.contains("rpc_retries"));

  // total_messages must itself be non-decreasing over time.
  double last_messages = 0.0;
  for (const TimeSeriesSampler::Row& row : sampler.rows()) {
    if (row.instrument != "total_messages") continue;
    EXPECT_GE(row.value, last_messages);
    last_messages = row.value;
  }
  EXPECT_GT(last_messages, 0.0);
}

TEST(TimeSeriesSampler, DoesNotKeepTheSimulatorAlivePastHorizon) {
  sim::Metrics metrics;
  sim::Simulator simulator;
  // No other events: the sampler's own ticks are the only queue entries and
  // must stop at the horizon instead of rescheduling forever.
  TimeSeriesSampler sampler(simulator, metrics);
  sampler.Start(10.0, 100.0);
  simulator.Run();
  EXPECT_LE(simulator.Now(), 100.0);
  // t=0 plus ten ticks.
  std::size_t samples = 0;
  for (const auto& row : sampler.rows()) {
    if (row.instrument == "total_messages") ++samples;
  }
  EXPECT_EQ(samples, 11u);
}

TEST(TimeSeriesSampler, FlushesFinalSampleWhenSimulatorDrainsMidInterval) {
  // Regression: activity after the sampler's last periodic tick used to be
  // invisible — the run drained mid-interval and the closing counter values
  // never made it into a row. The sampler now registers a drain hook that
  // flushes one final sample at the drain timestamp.
  sim::Metrics metrics;
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, metrics);
  sampler.Start(/*period_ms=*/100.0, /*until_ms=*/300.0);
  // The workload outlives the sampling horizon and mutates a counter well
  // after the t=300 tick.
  simulator.ScheduleAt(455.5, [&] { metrics.Bump("late.counter"); });
  simulator.Run();

  ASSERT_FALSE(sampler.rows().empty());
  EXPECT_DOUBLE_EQ(sampler.rows().back().t_ms, 455.5);
  bool late_value_flushed = false;
  for (const auto& row : sampler.rows()) {
    if (row.instrument == "counter:late.counter" && row.t_ms == 455.5 &&
        row.value == 1.0) {
      late_value_flushed = true;
    }
  }
  EXPECT_TRUE(late_value_flushed);

  // A drain that coincides with an existing sample timestamp is a no-op:
  // re-running the (empty) simulator must not duplicate the final rows.
  const std::size_t rows_after_drain = sampler.rows().size();
  simulator.Run();
  EXPECT_EQ(sampler.rows().size(), rows_after_drain);
}

TEST(TimeSeriesSampler, HistogramsAndCountersAppearInRows) {
  sim::Metrics metrics;
  sim::Simulator simulator;
  metrics.Bump("my.counter", 4);
  metrics.registry().GetGauge("my.gauge").Set(2.5);
  metrics.RecordLatency("op_ms", 12.0);
  TimeSeriesSampler sampler(simulator, metrics);
  sampler.SampleNow();

  std::set<std::string> instruments;
  for (const auto& row : sampler.rows()) instruments.insert(row.instrument);
  EXPECT_TRUE(instruments.contains("counter:my.counter"));
  EXPECT_TRUE(instruments.contains("gauge:my.gauge"));
  EXPECT_TRUE(instruments.contains("latency:op_ms.count"));
  EXPECT_TRUE(instruments.contains("latency:op_ms.p50"));
  EXPECT_TRUE(instruments.contains("latency:op_ms.p99"));
  EXPECT_TRUE(instruments.contains("latency:op_ms.max"));
}

TEST(TimeSeriesSampler, WritesCsvAndJsonl) {
  sim::Metrics metrics;
  sim::Simulator simulator;
  metrics.Bump("c");
  TimeSeriesSampler sampler(simulator, metrics);
  sampler.SampleNow();

  const std::string dir = ::testing::TempDir();
  const std::string csv_path = dir + "/obs_series.csv";
  const std::string jsonl_path = dir + "/obs_series.jsonl";
  ASSERT_TRUE(sampler.WriteCsv(csv_path));
  ASSERT_TRUE(sampler.WriteJsonl(jsonl_path));

  std::ifstream csv(csv_path);
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_EQ(header, "t_ms,instrument,value");
  std::size_t csv_rows = 0;
  for (std::string line; std::getline(csv, line);) ++csv_rows;
  EXPECT_EQ(csv_rows, sampler.rows().size());

  std::ifstream jsonl(jsonl_path);
  std::size_t jsonl_rows = 0;
  for (std::string line; std::getline(jsonl, line);) {
    EXPECT_TRUE(JsonParser(line).Validate()) << line;
    ++jsonl_rows;
  }
  EXPECT_EQ(jsonl_rows, sampler.rows().size());
}

// --- Bounded-horizon scheduling (shared by every sim-clock observer) --------
//
// Regression tests for the drain-termination rule: a periodic observer must
// never keep an otherwise-empty event queue alive past its horizon. The rule
// lives in one place (BoundedPeriodicSchedule) but each consumer wires it up
// independently, so each gets its own test.

TEST(BoundedPeriodicSchedule, HelperStopsAtHorizonOnDrainedSimulator) {
  sim::Simulator simulator;
  std::size_t ticks = 0;
  BoundedPeriodicSchedule(simulator, 10.0, 100.0, [&] { ++ticks; });
  simulator.Run();
  EXPECT_LE(simulator.Now(), 100.0);
  EXPECT_EQ(ticks, 11u);  // t=0 plus ten rescheduled ticks.

  // Degenerate periods must not recurse forever either.
  std::size_t once = 0;
  BoundedPeriodicSchedule(simulator, 0.0, 1000.0, [&] { ++once; });
  simulator.Run();
  EXPECT_EQ(once, 1u);
}

TEST(BoundedPeriodicSchedule, InvariantMonitorDoesNotKeepSimulatorAlive) {
  sim::Simulator simulator;
  Registry registry;
  InvariantMonitor monitor(simulator, registry);
  std::size_t check_runs = 0;
  monitor.AddCheck("test.drain", Severity::kWarn,
                   [&](CheckContext&) { ++check_runs; });
  monitor.Start(/*period_ms=*/10.0, /*until_ms=*/100.0);
  simulator.Run();
  EXPECT_LE(simulator.Now(), 100.0);
  EXPECT_EQ(monitor.ScansRun(), 11u);
  EXPECT_EQ(check_runs, 11u);
}

// --- JSON string-escaping edge cases ----------------------------------------

TEST(PerfettoExporter, EscapesQuotesBackslashesAndNonAscii) {
  Tracer tracer;
  tracer.SetEnabled(true);
  // Quotes, backslashes, control chars, and multi-byte UTF-8 — every class
  // of character that can break naive JSON emission.
  const TraceContext root =
      tracer.StartTrace("q\"uo\\te", 1, 10.0);
  const TraceContext child =
      tracer.StartSpan(root, "ctrl\x01\x1f\ttab", 1, 11.0);
  tracer.RecordMessage(12.0, 1, 2, "utf8 λ→蛙", 10, child);
  tracer.EndSpan(child, 13.0, "ok\nnewline");
  tracer.EndSpan(root, 14.0, "ok");

  const std::string json = PerfettoExporter::ToJson(tracer);
  ASSERT_TRUE(JsonParser(json).Validate()) << json;
  // No raw control characters may survive into the document (the parser
  // above rejects them inside strings; this sweep covers the whole text).
  for (const char c : json) {
    const auto u = static_cast<unsigned char>(c);
    EXPECT_TRUE(u >= 0x20 || c == '\n') << "raw control char " << int(u);
  }
  // Multi-byte UTF-8 passes through unescaped (valid JSON either way).
  EXPECT_NE(json.find("λ→蛙"), std::string::npos);
}

}  // namespace
}  // namespace peertrack::obs
