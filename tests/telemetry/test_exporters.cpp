// Telemetry exporters: Chrome trace-event JSON well-formedness (parsed
// back with a real JSON parser), Prometheus text exposition format, and
// the JSON metrics snapshot.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "json_check.hpp"
#include "support/format.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::telemetry {
namespace {

using testjson::Node;

Event make_span(const char* name, std::int64_t start, std::int64_t dur,
                Track track, int index, std::string args = {}) {
  Event event;
  event.name = name;
  event.start_us = start;
  event.dur_us = dur;
  event.track = track;
  event.index = index;
  event.args = std::move(args);
  return event;
}

class ExportersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& rec = Recorder::instance();
    rec.enable();
    rec.reset();
  }
  void TearDown() override {
    auto& rec = Recorder::instance();
    rec.reset();
    rec.disable();
  }
};

TEST(TraceTid, LanesMapToStableDisjointTids) {
  // The campaign's own lanes share pid 1 at disjoint tid ranges.
  EXPECT_EQ(trace_tid(Track::Main, -1), 1);
  EXPECT_EQ(trace_tid(Track::Executor, 0), 100);
  EXPECT_EQ(trace_tid(Track::Executor, 7), 107);
  EXPECT_EQ(trace_tid(Track::Monitor, 0), 3000);
  EXPECT_EQ(trace_tid(Track::MlLoop, -1), 4000);
  EXPECT_EQ(trace_tid(Track::Journal, 0), 4500);
  for (const auto track : {Track::Main, Track::Executor, Track::Monitor,
                           Track::MlLoop, Track::Journal}) {
    EXPECT_EQ(trace_pid(track, 3), 1);
  }
  // Rank lanes: tid = rank, in one pid per executor lane's worlds, so
  // rank 31 of two concurrent trials lands on two different lanes.
  EXPECT_EQ(trace_tid(Track::Rank, 31), 31);
  EXPECT_EQ(trace_pid(Track::Rank, -1), 2);
  EXPECT_EQ(trace_pid(Track::Rank, 0), 100);
  EXPECT_EQ(trace_pid(Track::Rank, 7), 107);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST_F(ExportersTest, ChromeTraceIsWellFormedAndCoversAllTracks) {
  // Events across five tracks, one with args needing escaping.
  std::vector<Event> events;
  events.push_back(make_span("trial", 10, 50, Track::Executor, 0,
                             "point=\"bcast\"; trial=1"));
  events.push_back(make_span("rank-main", 12, 40, Track::Rank, 2));
  events.back().world_lane = 0;
  events.push_back(make_span("rank-main", 14, 30, Track::Rank, 2));
  events.back().world_lane = 1;  // rank 2 of a concurrent world
  events.push_back(make_span("journal-fsync", 70, 5, Track::Journal, 0));
  events.push_back(make_span("ml-round", 80, 100, Track::MlLoop, 0));
  events.push_back(
      make_span("watchdog-fire", 95, -1, Track::Monitor, 0));  // instant

  std::vector<ThreadInfo> threads;
  threads.push_back({Track::Main, -1, "campaign-main"});
  threads.push_back({Track::Executor, 0, "executor-0"});

  const std::string trace = to_chrome_trace(events, threads);
  bool ok = false;
  std::string error;
  const Node root = testjson::parse_or_die(trace, &ok, &error);
  ASSERT_TRUE(ok) << error;
  ASSERT_TRUE(root.has("traceEvents"));
  const auto& items = root.at("traceEvents").array;

  using Lane = std::pair<int, int>;  // (pid, tid), as the exporter writes
  std::set<Lane> named_lanes;        // lanes with thread_name metadata
  std::set<int> named_pids;          // pids with process_name metadata
  std::set<Lane> event_lanes;        // lanes carrying X/i events
  int complete = 0, instants = 0, metadata = 0;
  for (const auto& item : items) {
    ASSERT_EQ(item.kind, Node::Kind::Object);
    ASSERT_TRUE(item.has("ph"));
    const std::string ph = item.at("ph").string;
    const Lane lane{static_cast<int>(item.at("pid").number),
                    static_cast<int>(item.at("tid").number)};
    if (ph == "M") {
      ++metadata;
      if (item.at("name").string == "thread_name") named_lanes.insert(lane);
      if (item.at("name").string == "process_name") {
        named_pids.insert(lane.first);
      }
      continue;
    }
    event_lanes.insert(lane);
    if (ph == "X") {
      ++complete;
      EXPECT_TRUE(item.has("ts"));
      EXPECT_TRUE(item.has("dur"));
      EXPECT_GE(item.at("dur").number, 0.0);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(item.at("s").string, "t");
    } else {
      FAIL() << "unexpected phase " << ph;
    }
  }
  EXPECT_EQ(complete, 5);
  EXPECT_EQ(instants, 1);
  EXPECT_GE(metadata, 2);  // process_name + thread_names + sort indexes

  // Every event lane has a thread_name entry and every pid a
  // process_name — including lanes that were never explicitly bound
  // (rank/journal/ml/monitor come from events).
  for (const auto& [pid, tid] : event_lanes) {
    EXPECT_TRUE(named_lanes.count({pid, tid}))
        << "unnamed lane pid " << pid << " tid " << tid;
    EXPECT_TRUE(named_pids.count(pid)) << "unnamed pid " << pid;
  }
  // The two rank-2 spans belong to different worlds: different lanes.
  EXPECT_TRUE(event_lanes.count({100, 2}));
  EXPECT_TRUE(event_lanes.count({101, 2}));
  // The acceptance bar: at least 4 distinct track types render.
  std::set<std::string> track_types;
  for (const auto& event : events) {
    track_types.insert(to_string(event.track));
  }
  EXPECT_GE(track_types.size(), 4u);
  EXPECT_GE(event_lanes.size(), 6u);

  // The escaped args round-trip through a real JSON parse.
  bool found_args = false;
  for (const auto& item : items) {
    if (item.at("ph").string == "X" && item.at("name").string == "trial") {
      ASSERT_TRUE(item.has("args"));
      EXPECT_EQ(item.at("args").at("detail").string,
                "point=\"bcast\"; trial=1");
      found_args = true;
    }
  }
  EXPECT_TRUE(found_args);
}

TEST_F(ExportersTest, ChromeTraceOfLiveRecorderParses) {
  auto& rec = Recorder::instance();
  Recorder::bind_thread(Track::Main, -1, "campaign-main");
  {
    ScopedSpan span("measure-batch");
    span.arg("points", "3");
    rec.instant("deadlock-proven", Track::Monitor, 0, "rank=2");
  }
  const std::string trace =
      to_chrome_trace(rec.drain_events(), rec.bound_threads());
  bool ok = false;
  std::string error;
  (void)testjson::parse_or_die(trace, &ok, &error);
  EXPECT_TRUE(ok) << error;
}

// Validates the Prometheus text exposition grammar line by line:
// comments are HELP/TYPE with a known family, samples are
// `name[{labels}] value` with a parseable value.
void check_prometheus(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string help_family, type_family;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family;
      ls >> hash >> kind >> family;
      ASSERT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      if (kind == "HELP") {
        help_family = family;
      } else {
        std::string type;
        ls >> type;
        ASSERT_TRUE(type == "counter" || type == "gauge" ||
                    type == "histogram")
            << line;
        // TYPE immediately follows HELP for the same family.
        EXPECT_EQ(family, help_family) << line;
        type_family = family;
      }
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(series.empty()) << line;
    ASSERT_FALSE(value.empty()) << line;
    // The series name (up to `{`) must extend the current family name
    // (histogram samples append _bucket/_sum/_count).
    const std::string name = series.substr(0, series.find('{'));
    EXPECT_EQ(name.rfind(type_family, 0), 0u)
        << "sample " << name << " outside family " << type_family;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(end, value.c_str() + value.size()) << "bad value: " << line;
    // Balanced label braces when present.
    const auto open = series.find('{');
    if (open != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << line;
    }
  }
}

TEST_F(ExportersTest, PrometheusExpositionIsWellFormed) {
  auto& rec = Recorder::instance();
  rec.counter("fastfit_trials_total", "Trial outcomes", "outcome=\"SUCCESS\"")
      .add(5);
  rec.counter("fastfit_trials_total", "Trial outcomes", "outcome=\"SEG_FAULT\"")
      .add(2);
  rec.counter("fastfit_journal_flushes_total", "Journal flushes").add();
  rec.gauge("fastfit_snapshot_cache_bytes", "Snapshot cache bytes").set(1);
  auto& lat = rec.latency("fastfit_trial_seconds", "Trial latency");
  lat.observe_us(100.0);
  lat.observe_us(2e6);

  const std::string text = to_prometheus(rec.metrics());
  check_prometheus(text);

  // One HELP/TYPE pair per family even with several series.
  std::size_t help_count = 0, at = 0;
  while ((at = text.find("# HELP fastfit_trials_total", at)) !=
         std::string::npos) {
    ++help_count;
    ++at;
  }
  EXPECT_EQ(help_count, 1u);
  EXPECT_NE(text.find("fastfit_trials_total{outcome=\"SUCCESS\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("fastfit_trials_total{outcome=\"SEG_FAULT\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("fastfit_snapshot_cache_bytes 1"), std::string::npos);
  // Histogram: le buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("fastfit_trial_seconds_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("fastfit_trial_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("fastfit_trial_seconds_count 2"), std::string::npos);
  // The drop counter always closes the exposition.
  EXPECT_NE(text.find("fastfit_telemetry_dropped_events_total 0"),
            std::string::npos);
}

TEST_F(ExportersTest, MetricsJsonParsesAndMatchesRegistry) {
  auto& rec = Recorder::instance();
  rec.counter("fastfit_trials_total", "h", "outcome=\"WRONG_ANS\"").add(7);
  rec.gauge("fastfit_snapshot_cache_bytes", "h").set(2);
  rec.latency("fastfit_trial_seconds", "h").observe_us(50.0);

  const std::string text = to_metrics_json(rec.metrics());
  bool ok = false;
  std::string error;
  const Node root = testjson::parse_or_die(text, &ok, &error);
  ASSERT_TRUE(ok) << error;
  ASSERT_TRUE(root.has("counters"));
  ASSERT_TRUE(root.has("gauges"));
  ASSERT_TRUE(root.has("histograms"));
  ASSERT_TRUE(root.has("dropped_events"));

  bool found = false;
  for (const auto& c : root.at("counters").array) {
    if (c.at("name").string == "fastfit_trials_total" &&
        c.at("labels").string == "outcome=\"WRONG_ANS\"") {
      EXPECT_EQ(c.at("value").number, 7.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  for (const auto& h : root.at("histograms").array) {
    if (h.at("name").string != "fastfit_trial_seconds") continue;
    EXPECT_EQ(h.at("count").number, 1.0);
    EXPECT_FALSE(h.at("buckets").array.empty());
  }
}

TEST_F(ExportersTest, WriteTextFileRoundTripsAndFailsCleanly) {
  const std::string path = ::testing::TempDir() + "fastfit_telemetry_out.txt";
  EXPECT_TRUE(write_text_file(path, "hello\n"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  const auto n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "hello\n");
  std::remove(path.c_str());
  EXPECT_FALSE(write_text_file("/nonexistent-dir/x/y", "boom"));
}

}  // namespace
}  // namespace fastfit::telemetry
