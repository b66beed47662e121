#include "telemetry/exporters.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "support/format.hpp"

namespace fastfit::telemetry {

namespace {

// Prometheus requires a fixed-locale float rendering; %.9g round-trips
// every value we emit (bucket edges, sums in seconds).
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void append_args_json(std::string& out, const std::string& args) {
  out += "{\"detail\":\"";
  out += json_escape(args);
  out += "\"}";
}

}  // namespace

int trace_tid(Track track, int index) noexcept {
  const int lane = index < 0 ? 0 : index;
  switch (track) {
    case Track::Main: return 1;
    case Track::Executor: return 100 + lane;
    case Track::Rank: return lane;
    case Track::Monitor: return 3000 + lane;
    case Track::MlLoop: return 4000 + lane;
    case Track::Journal: return 4500 + lane;
  }
  return 1;
}

int trace_pid(Track track, int world_lane) noexcept {
  if (track != Track::Rank) return 1;
  return world_lane < 0 ? 2 : 100 + world_lane;
}

std::string to_chrome_trace(const std::vector<Event>& events,
                            const std::vector<ThreadInfo>& threads) {
  std::string out;
  out.reserve(events.size() * 96 + 4096);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // One process per world lane, one thread per lane within it: every
  // explicitly bound thread, plus any lane that only appears in events
  // (every rank lane: ranks are fibers and never bind a thread).
  struct Lane {
    int pid;
    int tid;
    std::string label;
  };
  std::vector<Lane> lanes;
  std::vector<int> pids{1};
  const auto add_lane = [&](int pid, int tid, std::string label) {
    for (const auto& lane : lanes) {
      if (lane.pid == pid && lane.tid == tid) return;
    }
    lanes.push_back(Lane{pid, tid, std::move(label)});
    if (std::find(pids.begin(), pids.end(), pid) == pids.end()) {
      pids.push_back(pid);
    }
  };
  for (const auto& thread : threads) {
    add_lane(trace_pid(thread.track, -1),
             trace_tid(thread.track, thread.index), thread.label);
  }
  for (const auto& event : events) {
    std::string label = to_string(event.track);
    if (event.index >= 0) label += '-' + std::to_string(event.index);
    add_lane(trace_pid(event.track, event.world_lane),
             trace_tid(event.track, event.index), std::move(label));
  }
  add_lane(1, trace_tid(Track::Main, -1), "campaign-main");

  char buf[192];
  for (const int pid : pids) {
    std::string name = "fastfit campaign";
    if (pid == 2) {
      name = "worlds off the executor pool";
    } else if (pid != 1) {
      name = "worlds on executor-" + std::to_string(pid - 100);
    }
    sep();
    std::snprintf(buf, sizeof(buf),
                  R"({"name":"process_name","ph":"M","pid":%d,"tid":0,)"
                  R"("args":{"name":"%s"}})",
                  pid, name.c_str());
    out += buf;
  }
  for (const auto& lane : lanes) {
    sep();
    std::snprintf(buf, sizeof(buf),
                  R"({"name":"thread_name","ph":"M","pid":%d,"tid":%d,)"
                  R"("args":{"name":"%s"}})",
                  lane.pid, lane.tid, json_escape(lane.label).c_str());
    out += buf;
    sep();
    std::snprintf(buf, sizeof(buf),
                  R"({"name":"thread_sort_index","ph":"M","pid":%d,)"
                  R"("tid":%d,"args":{"sort_index":%d}})",
                  lane.pid, lane.tid, lane.tid);
    out += buf;
  }

  for (const auto& event : events) {
    const int pid = trace_pid(event.track, event.world_lane);
    const int tid = trace_tid(event.track, event.index);
    sep();
    if (event.dur_us >= 0) {
      std::snprintf(buf, sizeof(buf),
                    R"({"name":"%s","ph":"X","pid":%d,"tid":%d,)"
                    R"("ts":%)" PRId64 R"(,"dur":%)" PRId64,
                    json_escape(event.name).c_str(), pid, tid, event.start_us,
                    event.dur_us);
      out += buf;
    } else {
      std::snprintf(buf, sizeof(buf),
                    R"({"name":"%s","ph":"i","s":"t","pid":%d,"tid":%d,)"
                    R"("ts":%)" PRId64,
                    json_escape(event.name).c_str(), pid, tid, event.start_us);
      out += buf;
    }
    if (!event.args.empty()) {
      out += ",\"args\":";
      append_args_json(out, event.args);
    }
    out += '}';
  }

  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  const auto series = [](const std::string& name, const std::string& labels) {
    return labels.empty() ? name : name + '{' + labels + '}';
  };

  std::string last_family;
  for (const auto& c : snapshot.counters) {
    if (c.name != last_family) {
      out += "# HELP " + c.name + ' ' + c.help + '\n';
      out += "# TYPE " + c.name + " counter\n";
      last_family = c.name;
    }
    out += series(c.name, c.labels) + ' ' + std::to_string(c.value) + '\n';
  }
  last_family.clear();
  for (const auto& g : snapshot.gauges) {
    if (g.name != last_family) {
      out += "# HELP " + g.name + ' ' + g.help + '\n';
      out += "# TYPE " + g.name + " gauge\n";
      last_family = g.name;
    }
    out += series(g.name, g.labels) + ' ' + std::to_string(g.value) + '\n';
  }
  for (const auto& h : snapshot.histograms) {
    out += "# HELP " + h.name + ' ' + h.help + '\n';
    out += "# TYPE " + h.name + " histogram\n";
    for (const auto& [le, cumulative] : h.data.buckets) {
      out += h.name + "_bucket{le=\"" + format_double(le) + "\"} " +
             std::to_string(cumulative) + '\n';
    }
    out += h.name + "_bucket{le=\"+Inf\"} " + std::to_string(h.data.count) +
           '\n';
    out += h.name + "_sum " + format_double(h.data.sum_seconds) + '\n';
    out += h.name + "_count " + std::to_string(h.data.count) + '\n';
  }
  out += "# HELP fastfit_telemetry_dropped_events_total "
         "Events dropped at the recorder buffer cap\n";
  out += "# TYPE fastfit_telemetry_dropped_events_total counter\n";
  out += "fastfit_telemetry_dropped_events_total " +
         std::to_string(snapshot.dropped_events) + '\n';
  return out;
}

std::string to_metrics_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": [\n";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    out += "    {\"name\":\"" + json_escape(c.name) + "\",\"labels\":\"" +
           json_escape(c.labels) + "\",\"value\":" + std::to_string(c.value) +
           '}';
    if (i + 1 < snapshot.counters.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n  \"gauges\": [\n";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& g = snapshot.gauges[i];
    out += "    {\"name\":\"" + json_escape(g.name) + "\",\"labels\":\"" +
           json_escape(g.labels) + "\",\"value\":" + std::to_string(g.value) +
           '}';
    if (i + 1 < snapshot.gauges.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n  \"histograms\": [\n";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    out += "    {\"name\":\"" + json_escape(h.name) +
           "\",\"count\":" + std::to_string(h.data.count) +
           ",\"sum_seconds\":" + format_double(h.data.sum_seconds) +
           ",\"buckets\":[";
    for (std::size_t b = 0; b < h.data.buckets.size(); ++b) {
      const auto& [le, cumulative] = h.data.buckets[b];
      if (b) out += ',';
      out += "{\"le\":" + format_double(le) +
             ",\"count\":" + std::to_string(cumulative) + '}';
    }
    out += "]}";
    if (i + 1 < snapshot.histograms.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n  \"dropped_events\": " +
         std::to_string(snapshot.dropped_events) + "\n}\n";
  return out;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  return wrote && flushed && closed;
}

}  // namespace fastfit::telemetry
