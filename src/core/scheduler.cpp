#include "core/scheduler.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <limits>
#include <mutex>

#include "core/trial_executor.hpp"
#include "support/error.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::core {

namespace tel = fastfit::telemetry;

namespace {

// Outcome-slot sentinels for the (point, trial) matrix.
constexpr int kPending = -1;  ///< not yet executed
constexpr int kSkipped = -2;  ///< abandoned after the point quarantined

// "No trial of this point has failed" marker for the per-point CAS-min.
constexpr std::uint32_t kNoFailure =
    std::numeric_limits<std::uint32_t>::max();

}  // namespace

ResultAccumulator::ResultAccumulator(std::span<const InjectionPoint> points)
    : results_(points.size()) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    results_[i].point = points[i];
  }
}

void ResultAccumulator::on_trial(const TrialRecord& record) {
  auto& result = results_[record.point_index];
  result.record(record.outcome);
  if (!record.autopsy.empty()) result.exec.last_autopsy = record.autopsy;
}

void ResultAccumulator::on_point(const PointStatus& status) {
  auto& exec = results_[status.point_index].exec;
  exec.retries = status.retries;
  if (status.quarantined) {
    exec.quarantined = true;
    exec.last_error = status.error;
  }
}

void JournalSink::on_trial(const TrialRecord& record) {
  // Replayed trials are already durable; re-recording is a no-op anyway
  // (the journal is idempotent), so skip the append entirely.
  if (record.replayed) return;
  const auto& fault = points_[record.point_index].fault;
  journal_->record_trial(record.key, record.trial, record.outcome,
                         record.deterministic, record.autopsy,
                         fault.is_default() ? std::string{}
                                            : fault.canonical());
}

void JournalSink::on_point(const PointStatus& status) {
  if (!status.quarantined) return;
  journal_->record_quarantine(status.key, status.retries, status.error);
}

void JournalSink::on_batch_end() { journal_->flush(); }

void TelemetrySink::on_trial(const TrialRecord& record) {
  auto& rec = tel::Recorder::instance();
  if (!rec.enabled()) return;
  // Outcome counters increment for replayed *and* fresh trials, so a
  // journal-resumed campaign reports identical totals. Registration is
  // per-slot idempotent rather than once-for-all: a default campaign
  // registers only the six base outcomes (pre-v2 metrics snapshot,
  // byte-identical) and a later extended campaign in the same process
  // fills in the remaining slots. on_trial runs on the scheduler's
  // aggregation thread only, so the unguarded slot check is safe.
  static std::array<tel::Counter*, inject::kNumOutcomes> counters{};
  const std::size_t active = inject::active_outcomes(extended_outcomes_);
  for (std::size_t o = 0; o < active; ++o) {
    if (counters[o]) continue;
    const std::string labels =
        "outcome=\"" +
        std::string(inject::to_string(static_cast<inject::Outcome>(o))) +
        '"';
    counters[o] = &rec.counter(
        "fastfit_trials_total",
        "Trial outcomes recorded (incl. journal replays)", labels);
  }
  counters[static_cast<std::size_t>(record.outcome)]->add();
  if (record.replayed) {
    static auto& replays = rec.counter("fastfit_trials_replayed_total",
                                       "Trials served from the journal");
    replays.add();
  }
}

void TelemetrySink::on_point(const PointStatus& status) {
  if (!status.quarantined) return;
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& quarantines =
        rec.counter("fastfit_quarantined_points_total",
                    "Points the trial guard gave up on");
    quarantines.add();
  }
}

BatchStats TrialScheduler::run(std::span<const InjectionPoint> points,
                               std::uint32_t trials,
                               const TrialJournal* replay,
                               std::span<OutcomeSink* const> sinks) {
  BatchStats stats;

  // One outcome slot per (point, trial) job; aggregated afterwards in
  // trial order so the fan-out is byte-for-byte the serial one.
  std::vector<std::vector<int>> outcomes(points.size(),
                                         std::vector<int>(trials, kPending));
  std::vector<std::vector<std::uint8_t>> replayed(
      points.size(), std::vector<std::uint8_t>(trials, 0));
  // Forensics per (point, trial): whether an INF_LOOP was proven
  // deterministically (skips escalated re-confirmation) and the world
  // autopsy carried into the journal and point stats.
  std::vector<std::vector<std::uint8_t>> deterministic(
      points.size(), std::vector<std::uint8_t>(trials, 0));
  std::vector<std::vector<std::string>> autopsies(
      points.size(), std::vector<std::string>(trials));

  // Per-point supervision state. deque: stable addresses, no moves — the
  // elements hold atomics. `first_failed` is the *minimum* failed trial
  // ordinal (CAS-min): under pool > 1 the first trial to fail in
  // wall-clock time is not necessarily the first in trial order, and
  // every per-point aggregate (which trials count, whose error message
  // survives, how many retries) must be derived from the trial-order
  // minimum — never from arrival order — to stay bit-identical to the
  // serial run. Everything else is recorded per (point, trial) slot.
  struct PointState {
    std::atomic<std::uint32_t> first_failed{kNoFailure};
  };
  std::deque<PointState> state(points.size());
  std::vector<std::vector<std::uint32_t>> trial_retries(
      points.size(), std::vector<std::uint32_t>(trials, 0));
  std::vector<std::vector<std::string>> errors(
      points.size(), std::vector<std::string>(trials));
  std::vector<std::vector<std::uint8_t>> failed(
      points.size(), std::vector<std::uint8_t>(trials, 0));

  std::vector<std::string> keys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    keys[i] = point_key(points[i]);
  }

  // Phase 0: replay journaled outcomes; only the gaps execute.
  if (replay) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::uint32_t t = 0; t < trials; ++t) {
        if (const auto o = replay->lookup(keys[i], t)) {
          outcomes[i][t] = static_cast<int>(*o);
          replayed[i][t] = 1;
          ++stats.replayed;
        }
      }
    }
  }

  // One fresh guarded trial, writing only into slot (i, t). Shared by
  // the pool jobs and by the post-wait repair pass, so the two paths
  // cannot drift.
  const auto run_fresh = [this, &outcomes, &state, &points, &keys,
                          &deterministic, &autopsies, &trial_retries,
                          &errors, &failed](std::size_t i, std::uint32_t t,
                                            std::int64_t submit_us) {
    auto& rec = tel::Recorder::instance();
    if (submit_us >= 0 && rec.enabled()) {
      const auto info = tel::Recorder::thread_info();
      tel::Event wait;
      wait.name = "queue-wait";
      wait.start_us = submit_us;
      wait.dur_us = rec.now_us() - submit_us;
      wait.track = info.track;
      wait.index = info.index;
      rec.record(std::move(wait));
    }
    tel::ScopedSpan trial_span("trial");
    trial_span.arg("point", keys[i]);
    trial_span.arg("trial", std::to_string(t));
    const auto attempt =
        runner_->run_guarded(points[i], t, runner_->watchdog());
    trial_retries[i][t] = attempt.retries;
    if (!attempt.ok) {
      errors[i][t] = attempt.error;
      failed[i][t] = 1;
      // CAS-min: remember the lowest failed ordinal, not the first to
      // arrive.
      auto& first = state[i].first_failed;
      std::uint32_t seen = first.load(std::memory_order_relaxed);
      while (t < seen && !first.compare_exchange_weak(
                             seen, t, std::memory_order_acq_rel)) {
      }
      outcomes[i][t] = kSkipped;
      return;
    }
    trial_span.arg("outcome", inject::to_string(attempt.outcome));
    if (attempt.outcome == inject::Outcome::InfLoop &&
        attempt.deterministic_hang) {
      // Proven structural deadlock: load-independent, so it needs no
      // escalated re-confirmation.
      deterministic[i][t] = 1;
    }
    autopsies[i][t] = attempt.autopsy;
    outcomes[i][t] = static_cast<int>(attempt.outcome);
  };

  // Phase 1: concurrent guarded execution of the missing trials. Each
  // lane loop claims its next trial from a shared cursor (claim_next).
  const bool affine = runner_->lanes_hold_point_state();
  std::mutex claim_mutex;
  // Per point, the next ordinal to consider and how many pending
  // (neither claimed nor replayed) ordinals lie at or beyond it.
  std::vector<std::uint32_t> cursor(points.size(), 0);
  std::vector<std::uint32_t> unclaimed(points.size(), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::uint32_t t = 0; t < trials; ++t) {
      unclaimed[i] += outcomes[i][t] == kPending;
    }
  }
  // Affine: the first point no lane has taken yet. Point-major: the
  // lowest point that may still have an unclaimed trial.
  std::size_t next_point = 0;
  constexpr std::size_t kNoPoint = std::numeric_limits<std::size_t>::max();

  // Claims the next trial for the lane now on point `at` (kNoPoint before
  // its first claim); false once nothing is left. Point-major order hands
  // every lane the lowest unclaimed (point, trial). Affine order keeps a
  // lane on its point until the point has no unclaimed trial, then takes
  // the next untaken point, and once every point is taken joins the one
  // with the most unclaimed trials, so the tail stays balanced.
  const auto claim_next = [&](std::size_t& at, std::uint32_t& t) {
    std::lock_guard<std::mutex> lock(claim_mutex);
    for (;;) {
      if (!affine) {
        while (next_point < points.size() && unclaimed[next_point] == 0) {
          ++next_point;
        }
        at = next_point < points.size() ? next_point : kNoPoint;
      } else if (at == kNoPoint || unclaimed[at] == 0) {
        at = kNoPoint;
        if (next_point < points.size()) {
          at = next_point++;
        } else {
          std::uint32_t most = 0;
          for (std::size_t i = 0; i < points.size(); ++i) {
            if (unclaimed[i] > most) {
              most = unclaimed[i];
              at = i;
            }
          }
        }
      }
      if (at == kNoPoint) return false;
      if (unclaimed[at] == 0) continue;  // an untaken point with no gaps
      // Slots at or beyond the cursor are untouched but for replays.
      t = cursor[at];
      while (outcomes[at][t] != kPending) ++t;
      cursor[at] = t + 1;
      --unclaimed[at];
      // Skip only trials *beyond* a known failure: those are the ones
      // the serial run would never have executed. Trials below it must
      // still run — the serial stream includes them.
      if (state[at].first_failed.load(std::memory_order_acquire) < t) {
        outcomes[at][t] = kSkipped;
        continue;
      }
      return true;
    }
  };
  {
    // Lanes open together: the gap to a trial's start is its queue wait,
    // rendered as its own span on the executing worker's lane.
    auto& rec = tel::Recorder::instance();
    const std::int64_t open_us = rec.enabled() ? rec.now_us() : -1;
    TrialExecutor executor(config_.pool);
    for (std::size_t lane = 0; lane < std::max<std::size_t>(1, config_.pool);
         ++lane) {
      executor.submit([&run_fresh, &claim_next, open_us] {
        std::size_t at = kNoPoint;
        std::uint32_t t = 0;
        while (claim_next(at, t)) run_fresh(at, t, open_us);
      });
    }
    executor.wait();
  }

  // Truncation/repair pass: rebuild the serial stream per point. Serial
  // semantics are "trials execute in order until the first failure f;
  // f's slot and everything after it are skipped". Under pool > 1, slots
  // beyond f may have executed anyway (wasted work — discard them) and a
  // slot at or below f may have been skipped against a failure ordinal
  // that a later CAS-min then lowered — re-run those serially here.
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::uint32_t f = state[i].first_failed.load(std::memory_order_acquire);
    for (std::uint32_t t = 0; t < trials && t < f; ++t) {
      if (outcomes[i][t] == kSkipped && !failed[i][t] && !replayed[i][t]) {
        run_fresh(i, t, -1);
        f = state[i].first_failed.load(std::memory_order_acquire);
      }
    }
    for (std::uint32_t t = f; t < trials; ++t) {
      // Journal-replayed outcomes survive the truncation — the serial
      // run never re-executes (or un-records) them either.
      if (!replayed[i][t]) outcomes[i][t] = kSkipped;
    }
  }

  // Proven-deadlock census for the health stats, taken *after*
  // truncation so wasted beyond-failure executions do not count (the
  // serial run never ran them).
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::uint32_t t = 0; t < trials; ++t) {
      if (outcomes[i][t] == static_cast<int>(inject::Outcome::InfLoop) &&
          !replayed[i][t] && deterministic[i][t]) {
        ++stats.deterministic_deadlocks;
      }
    }
  }

  // Phase 2: the watchdog is the one outcome gate that feels CPU
  // contention: a slow-but-finishing faulted run can cross the wall-clock
  // deadline only because concurrent Worlds shared the cores. Re-run
  // every freshly timed-out trial serially — alone on the machine, with
  // an escalated budget — and keep the confirmed outcome. Genuinely hung
  // runs time out again (same INF_LOOP), so classification is identical
  // at every parallelism level. Journal-replayed INF_LOOPs were already
  // confirmed when first recorded.
  // Deterministic verdicts skip this entirely: the world *proved* the
  // deadlock structurally, so contention cannot have caused it.
  const auto escalated = runner_->watchdog() * kWatchdogEscalation;
  std::vector<std::uint32_t> confirm_retries(points.size(), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::uint32_t t = 0; t < trials; ++t) {
      if (outcomes[i][t] != static_cast<int>(inject::Outcome::InfLoop) ||
          replayed[i][t] || deterministic[i][t]) {
        continue;
      }
      tel::ScopedSpan confirm_span("watchdog-confirm");
      confirm_span.arg("point", keys[i]);
      confirm_span.arg("trial", std::to_string(t));
      const auto attempt = runner_->run_guarded(points[i], t, escalated);
      ++stats.confirmations;
      if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
        static auto& confirms =
            rec.counter("fastfit_watchdog_confirmations_total",
                        "Escalated uncontended INF_LOOP re-confirmations");
        confirms.add();
      }
      confirm_retries[i] += attempt.retries;
      // A confirmation that fails internally keeps the original outcome:
      // the trial did produce one, and quarantining here would discard it.
      if (attempt.ok) outcomes[i][t] = static_cast<int>(attempt.outcome);
    }
  }

  // Phase 3: fan out in deterministic (point, trial) order. Execution
  // order above was free; observation order is pinned here, which is what
  // keeps reports, journals, and counters bit-identical at every pool
  // size.
  const std::string no_error;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::uint32_t t = 0; t < trials; ++t) {
      const int o = outcomes[i][t];
      if (o < 0) continue;  // skipped after quarantine
      TrialRecord record{keys[i],
                         i,
                         t,
                         static_cast<inject::Outcome>(o),
                         replayed[i][t] != 0,
                         deterministic[i][t] != 0,
                         autopsies[i][t]};
      for (auto* sink : sinks) sink->on_trial(record);
    }
    // Point aggregates from the truncated stream: retries come from the
    // trials the serial run would have executed (ordinals <= the first
    // failure) plus the escalated confirmations; the surviving error is
    // the first failure's, never a later racer's.
    const std::uint32_t f =
        state[i].first_failed.load(std::memory_order_acquire);
    const bool quarantined = f != kNoFailure;
    std::uint32_t retry_total = confirm_retries[i];
    for (std::uint32_t t = 0; t < trials && t <= f; ++t) {
      retry_total += trial_retries[i][t];
    }
    PointStatus status{keys[i], i, retry_total, quarantined,
                       quarantined ? errors[i][f] : no_error};
    if (quarantined) ++stats.quarantined_points;
    for (auto* sink : sinks) sink->on_point(status);
  }
  for (auto* sink : sinks) sink->on_batch_end();
  return stats;
}

}  // namespace fastfit::core
