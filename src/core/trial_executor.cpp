#include "core/trial_executor.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "telemetry/recorder.hpp"

namespace fastfit::core {

namespace {
thread_local int t_worker = -1;
}  // namespace

int TrialExecutor::current_worker() noexcept { return t_worker; }

std::size_t resolve_parallel_trials(std::size_t configured) {
  if (configured > 0) return configured;
  return std::max(1u, std::thread::hardware_concurrency());
}

TrialExecutor::TrialExecutor(std::size_t max_parallel) {
  if (max_parallel <= 1) return;  // serial path: submit() runs inline
  threads_.reserve(max_parallel);
  for (std::size_t i = 0; i < max_parallel; ++i) {
    threads_.emplace_back([this, i] {
      t_worker = static_cast<int>(i);
      if (telemetry::Recorder::instance().enabled()) {
        telemetry::Recorder::bind_thread(telemetry::Track::Executor,
                                         static_cast<int>(i),
                                         "executor-" + std::to_string(i));
      }
      worker_loop();
    });
  }
}

TrialExecutor::~TrialExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    queue_.clear();
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void TrialExecutor::submit(std::function<void()> job) {
  if (threads_.empty()) {
    // Serial path: same capture-first-error contract as the pool, so
    // callers observe identical behaviour at every parallelism level.
    try {
      job();
    } catch (...) {
      if (!first_error_) first_error_ = std::current_exception();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void TrialExecutor::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void TrialExecutor::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    auto job = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    std::exception_ptr error;
    try {
      job();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !first_error_) first_error_ = error;
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace fastfit::core
