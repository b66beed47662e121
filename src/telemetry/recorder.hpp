#pragma once

// Campaign telemetry: a process-wide event recorder for spans, counters,
// gauges, and latency histograms.
//
// The recorder is the measurement substrate under every "where does
// campaign time go" question: the trial lifecycle (queue wait, world
// execution, classification, watchdog confirmations), journal fsync
// batches, ML-loop rounds, and the per-rank world internals all report
// here, and the exporters (telemetry/exporters.hpp) turn the result into
// a Perfetto-loadable Chrome trace plus a Prometheus/JSON metrics
// snapshot.
//
// Cost model:
//  * Disabled (the default): every entry point is a relaxed atomic load
//    and an early return. No clock reads, no locks, no allocations —
//    tests assert the zero-allocation guarantee directly.
//  * Enabled: spans append to a thread-local buffer (one uncontended
//    mutex per thread, locked only against a concurrent drain), counters
//    and gauges are relaxed atomics, histograms take a per-instrument
//    mutex. A process-wide cap bounds buffered events; overflow drops
//    events and counts the drops (never silently).
//
// The singleton is intentionally leaked so instrumentation in thread
// exits and atexit handlers can never race its destruction.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "stats/histogram.hpp"

namespace fastfit::telemetry {

/// Trace track an event belongs to. Tracks map to Perfetto threads: one
/// per executor worker, one per simulated rank of each executor lane's
/// worlds, one for hang verdicts and the live progress meter, one for the
/// ML loop, one for journal I/O.
enum class Track : std::uint8_t {
  Main = 0,  ///< the campaign driver thread
  Executor,  ///< scheduler lanes (index = lane ordinal)
  Rank,      ///< simulated MPI ranks (index = world rank)
  Monitor,   ///< deadlock verdicts, watchdog fires, progress meter
  MlLoop,    ///< injection ⇄ learning feedback loop
  Journal,   ///< durable trial journal fsync batches
};
inline constexpr std::size_t kNumTracks = 6;

const char* to_string(Track track) noexcept;

/// One recorded event: a complete span (dur_us >= 0) or an instant
/// (dur_us < 0). `name` must be a string literal (stored by pointer).
struct Event {
  const char* name = "";
  std::int64_t start_us = 0;  ///< microseconds since recorder epoch
  std::int64_t dur_us = -1;   ///< span duration; < 0 marks an instant
  Track track = Track::Main;
  int index = -1;             ///< per-track lane (worker id, rank, ...)
  /// Track::Rank only: the executor lane whose thread ran the rank's
  /// world (-1 = a thread outside the executor pool). Recorder::record
  /// stamps it, and the exporter renders it as the Perfetto pid, so two
  /// worlds running at once never share a rank lane.
  int world_lane = -1;
  std::string args;           ///< "key=value; ..." detail tag (may be empty)
};

/// Monotonic counter (Prometheus counter semantics). Additions are
/// dropped while the recorder is disabled.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept;
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Recorder;
  Counter(std::string name, std::string help, std::string labels)
      : name_(std::move(name)), help_(std::move(help)),
        labels_(std::move(labels)) {}
  std::string name_;
  std::string help_;
  std::string labels_;  ///< rendered inside {...}, e.g. outcome="SUCCESS"
  std::atomic<std::uint64_t> value_{0};
};

/// Settable gauge (Prometheus gauge semantics).
class Gauge {
 public:
  void set(std::int64_t v) noexcept;
  void add(std::int64_t delta) noexcept;
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Recorder;
  Gauge(std::string name, std::string help, std::string labels)
      : name_(std::move(name)), help_(std::move(help)),
        labels_(std::move(labels)) {}
  std::string name_;
  std::string help_;
  std::string labels_;
  std::atomic<std::int64_t> value_{0};
};

/// Latency histogram over log10(microseconds), reusing stats::Histogram:
/// 5 bins per decade from 1 us to 10^7 us (10 s), clamped at the edges.
/// Exported as a Prometheus histogram with second-valued buckets.
class LatencyHistogram {
 public:
  void observe_us(double us) noexcept;

  struct Snapshot {
    /// (upper bucket edge in seconds, cumulative count); the implicit
    /// +Inf bucket equals `count`.
    std::vector<std::pair<double, std::uint64_t>> buckets;
    std::uint64_t count = 0;
    double sum_seconds = 0.0;
  };
  Snapshot snapshot() const;

 private:
  friend class Recorder;
  LatencyHistogram(std::string name, std::string help);
  std::string name_;
  std::string help_;
  mutable std::mutex mutex_;
  stats::Histogram hist_;
  double sum_us_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Point-in-time view of the metrics registry, consumed by the exporters
/// and by the live progress meter.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name, help, labels;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name, help, labels;
    std::int64_t value = 0;
  };
  struct HistogramValue {
    std::string name, help;
    LatencyHistogram::Snapshot data;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  std::uint64_t dropped_events = 0;

  /// Value of the first counter series matching (name, labels), or 0.
  std::uint64_t counter_value(std::string_view name,
                              std::string_view labels = {}) const;
  /// Sum over every series of a counter family.
  std::uint64_t counter_sum(std::string_view name) const;
  /// Value of a gauge, or 0 when absent.
  std::int64_t gauge_value(std::string_view name) const;
};

/// Identity of a trace lane: its track, per-track index, and the label
/// the exporter renders as the Perfetto thread name.
struct ThreadInfo {
  Track track = Track::Main;
  int index = -1;
  std::string label;
};

class Recorder {
 public:
  /// The process-wide recorder (leaked singleton, see file comment).
  static Recorder& instance();

  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the recorder epoch (process start, steady clock).
  std::int64_t now_us() const noexcept;

  /// Appends an event to the calling thread's buffer, stamping a rank
  /// event's world_lane from the thread's binding. No-op when disabled or
  /// when the process-wide event cap is reached (counted in
  /// dropped_events()).
  void record(Event event);

  /// Records an instant event (a point marker on a track).
  void instant(const char* name, Track track, int index = -1,
               std::string args = {});

  /// Binds the calling thread to a trace lane: subsequent spans recorded
  /// without an explicit track land here, and the exporter names the
  /// lane `label`. Safe to call repeatedly (e.g. executor workers of
  /// consecutive pools reusing an index).
  static void bind_thread(Track track, int index, std::string label);

  /// The calling thread's current lane (Main/-1 when never bound).
  static ThreadInfo thread_info();

  /// Finds or creates a metric. References stay valid for the process
  /// lifetime (instruments live in deques); callers cache them in
  /// function-local statics. `labels` is the Prometheus label body,
  /// e.g. `outcome="SUCCESS"`.
  Counter& counter(std::string_view name, std::string_view help,
                   std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               std::string_view labels = {});
  LatencyHistogram& latency(std::string_view name, std::string_view help);

  /// Moves every buffered event out of every thread buffer (live and
  /// retired), in start-time order.
  std::vector<Event> drain_events();

  /// Labels for every lane that bound itself via bind_thread.
  std::vector<ThreadInfo> bound_threads() const;

  MetricsSnapshot metrics() const;

  std::uint64_t dropped_events() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Test/bench support: drops all buffered events and resets every
  /// registered metric to zero (registrations and cached references stay
  /// valid). Does not change the enabled flag.
  void reset();

  /// Process-wide cap on buffered events between drains. At ~64 bytes an
  /// event this bounds telemetry memory to tens of MB; overflow drops
  /// (and counts) instead of growing without bound.
  static constexpr std::size_t kMaxBufferedEvents = 1u << 20;

 private:
  Recorder();

  struct ThreadBuffer;
  struct BufferHandle;
  static BufferHandle& handle();
  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::size_t> buffered_{0};
  std::atomic<std::uint64_t> dropped_{0};

  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;  ///< live threads
  std::vector<Event> retired_;  ///< events of exited threads
  std::vector<ThreadInfo> bound_;

  mutable std::mutex metrics_mutex_;
  std::deque<std::unique_ptr<Counter>> counters_;
  std::deque<std::unique_ptr<Gauge>> gauges_;
  std::deque<std::unique_ptr<LatencyHistogram>> histograms_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
  std::unordered_map<std::string, std::size_t> histogram_index_;
};

/// RAII span: captures the start time at construction (when the recorder
/// is enabled) and records the completed event at destruction. A span
/// constructed while disabled stays inert even if the recorder is
/// enabled later — a half-measured span would be a lie.
class ScopedSpan {
 public:
  /// Span on the calling thread's bound lane.
  explicit ScopedSpan(const char* name);
  /// Span on an explicit lane (e.g. Track::MlLoop from the main thread).
  ScopedSpan(const char* name, Track track, int index);
  ~ScopedSpan() { finish(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Appends a "key=value" pair to the span's detail tag.
  void arg(std::string_view key, std::string_view value);

  /// Ends the span now (idempotent; the destructor calls it too).
  void finish();

  bool active() const noexcept { return active_; }

 private:
  const char* name_;
  std::int64_t start_us_ = 0;
  Track track_ = Track::Main;
  int index_ = -1;
  std::string args_;
  bool active_ = false;
};

}  // namespace fastfit::telemetry
