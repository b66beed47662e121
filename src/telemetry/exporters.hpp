#pragma once

// Exporters for the telemetry recorder: Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing) and metrics snapshots (Prometheus text
// exposition and JSON). See docs/observability.md for format notes.

#include <string>
#include <vector>

#include "telemetry/recorder.hpp"

namespace fastfit::telemetry {

/// Renders events as a Chrome trace-event JSON document
/// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
/// "X" complete events for spans, "i" instants, plus process_name /
/// thread_name / thread_sort_index metadata so each track renders as a
/// labelled Perfetto thread. The campaign's own lanes live in pid 1 with
/// stable synthetic tids (main=1, executor=100+i, monitor=3000+i,
/// ml=4000, journal=4500); rank lanes live in one pid per executor lane
/// (trace_pid) with tid = rank.
std::string to_chrome_trace(const std::vector<Event>& events,
                            const std::vector<ThreadInfo>& threads);

/// Renders a snapshot in Prometheus text exposition format 0.0.4
/// (# HELP / # TYPE, counter/gauge families, histograms with le buckets,
/// _sum and _count).
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Renders a snapshot as a JSON document (counters/gauges/histograms
/// arrays plus dropped_events).
std::string to_metrics_json(const MetricsSnapshot& snapshot);

/// Writes `text` to `path` (truncating), fsyncs, and returns false (with
/// no throw) if any step fails.
bool write_text_file(const std::string& path, const std::string& text);

/// Synthetic Chrome-trace tid for a lane, matching to_chrome_trace.
int trace_tid(Track track, int index) noexcept;

/// Chrome-trace pid for an event, matching to_chrome_trace: 1 for the
/// campaign's own tracks; for Track::Rank, 100 + the executor lane that
/// ran the world, or 2 for worlds run off the executor pool.
int trace_pid(Track track, int world_lane) noexcept;

}  // namespace fastfit::telemetry
