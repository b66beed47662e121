#include "telemetry/progress_meter.hpp"

#include <cstdio>

#include "telemetry/exporters.hpp"

namespace fastfit::telemetry {

namespace {

/// Pulls the value out of a `outcome="X"` label body (empty if absent).
std::string outcome_of(const std::string& labels) {
  const std::string key = "outcome=\"";
  const auto at = labels.find(key);
  if (at == std::string::npos) return {};
  const auto begin = at + key.size();
  const auto end = labels.find('"', begin);
  if (end == std::string::npos) return {};
  return labels.substr(begin, end - begin);
}

}  // namespace

ProgressMeter::ProgressMeter(Options opts)
    : opts_(std::move(opts)), start_(std::chrono::steady_clock::now()) {
  thread_ = std::thread([this] {
    Recorder::bind_thread(Track::Monitor, 1, "progress-meter");
    run();
  });
}

ProgressMeter::~ProgressMeter() { stop(); }

void ProgressMeter::stop() {
  if (stopped_.exchange(true)) return;
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  export_metrics();
  if (opts_.live_line) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const std::string line = render_line(Recorder::instance().metrics(),
                                         opts_.expected_trials, elapsed);
    std::fprintf(stderr, "\r\033[K%s\n", line.c_str());
    std::fflush(stderr);
  }
}

void ProgressMeter::run() {
  auto next_metrics = start_ + opts_.metrics_interval;
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    cv_.wait_for(lock, opts_.interval, [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    {
      ScopedSpan span("progress-tick", Track::Monitor, 1);
      const auto now = std::chrono::steady_clock::now();
      const double elapsed =
          std::chrono::duration<double>(now - start_).count();
      if (opts_.live_line) {
        const std::string line = render_line(Recorder::instance().metrics(),
                                             opts_.expected_trials, elapsed);
        std::fprintf(stderr, "\r\033[K%s", line.c_str());
        std::fflush(stderr);
      }
      if (!opts_.metrics_path.empty() &&
          opts_.metrics_interval.count() > 0 && now >= next_metrics) {
        export_metrics();
        next_metrics = now + opts_.metrics_interval;
      }
    }
    lock.lock();
  }
}

void ProgressMeter::export_metrics() {
  if (opts_.metrics_path.empty()) return;
  const auto snapshot = Recorder::instance().metrics();
  const bool json = opts_.metrics_path.size() >= 5 &&
                    opts_.metrics_path.rfind(".json") ==
                        opts_.metrics_path.size() - 5;
  write_text_file(opts_.metrics_path,
                  json ? to_metrics_json(snapshot) : to_prometheus(snapshot));
}

std::string ProgressMeter::render_line(const MetricsSnapshot& snapshot,
                                       std::uint64_t expected,
                                       double elapsed_s) {
  const std::uint64_t done = snapshot.counter_sum("fastfit_trials_total");
  const double rate = elapsed_s > 0.0 ? double(done) / elapsed_s : 0.0;

  char head[160];
  if (expected > 0) {
    const double pct = expected ? 100.0 * double(done) / double(expected) : 0;
    const std::uint64_t left = done < expected ? expected - done : 0;
    const double eta = rate > 0.0 ? double(left) / rate : 0.0;
    std::snprintf(head, sizeof(head),
                  "[fastfit] %llu/%llu trials (%.1f%%) | %.1f trials/s | "
                  "ETA %.0fs",
                  static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(expected), pct, rate, eta);
  } else {
    std::snprintf(head, sizeof(head),
                  "[fastfit] %llu trials | %.1f trials/s",
                  static_cast<unsigned long long>(done), rate);
  }

  std::string line = head;
  std::string mix;
  for (const auto& c : snapshot.counters) {
    if (c.name != "fastfit_trials_total" || c.value == 0) continue;
    const std::string outcome = outcome_of(c.labels);
    if (outcome.empty()) continue;
    if (!mix.empty()) mix += ' ';
    mix += outcome + '=' + std::to_string(c.value);
  }
  if (!mix.empty()) line += " | " + mix;

  char health[160];
  std::snprintf(
      health, sizeof(health), " | retries=%llu quarantined=%llu watchdog=%llu",
      static_cast<unsigned long long>(
          snapshot.counter_sum("fastfit_trial_retries_total")),
      static_cast<unsigned long long>(
          snapshot.counter_sum("fastfit_quarantined_points_total")),
      static_cast<unsigned long long>(
          snapshot.counter_sum("fastfit_watchdog_fires_total")));
  line += health;
  if (snapshot.dropped_events > 0) {
    line += " dropped=" + std::to_string(snapshot.dropped_events);
  }
  return line;
}

}  // namespace fastfit::telemetry
