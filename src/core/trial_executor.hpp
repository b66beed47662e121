#pragma once

// Fixed-size worker pool for fault-injection trials.
//
// Trials are embarrassingly parallel: every injected execution owns its
// World, Injector, and ContextRegistry, and the per-trial RNG identity is
// a pure function of (campaign seed, point, trial index) — so running them
// concurrently cannot change any PointResult, only the wall clock. The
// executor is deliberately small: submit closures, wait for the queue to
// drain, reuse. Each trial runs all of its rank fibers on the worker
// thread that picked it up, so the pool size is the whole concurrency
// knob; see `resolve_parallel_trials` for the default.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fastfit::core {

/// Resolves CampaignOptions::max_parallel_trials: an explicit value
/// passes through; 0 ("auto") becomes hardware_concurrency() (at least
/// 1) — one lane per core, since a trial occupies exactly one thread.
std::size_t resolve_parallel_trials(std::size_t configured);

class TrialExecutor {
 public:
  /// Spawns `max_parallel` workers. `max_parallel <= 1` is the serial
  /// path: no threads are spawned and submit() runs each job inline, in
  /// submission order.
  explicit TrialExecutor(std::size_t max_parallel);

  /// Joins the workers; jobs still queued (only possible after a wait()
  /// that threw was not retried) are discarded.
  ~TrialExecutor();

  TrialExecutor(const TrialExecutor&) = delete;
  TrialExecutor& operator=(const TrialExecutor&) = delete;

  /// Enqueues one job. Jobs must not submit further jobs.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished. If any job threw, the
  /// first captured exception is rethrown here (remaining jobs still run
  /// to completion first — one bad trial never wedges the pool), and the
  /// executor stays usable for further submits.
  void wait();

  /// Number of worker threads (0 on the serial path).
  std::size_t workers() const noexcept { return threads_.size(); }

  /// Ordinal of the executor worker running the calling thread, or -1
  /// when called from outside a pool (the serial path, the campaign
  /// driver). Used to attribute errors and trace spans to
  /// their worker.
  static int current_worker() noexcept;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: queue non-empty or stop
  std::condition_variable idle_cv_;  // wait(): queue drained, nothing active
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> threads_;
};

}  // namespace fastfit::core
