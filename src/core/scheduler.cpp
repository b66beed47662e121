#include "core/scheduler.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>

#include "support/error.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::core {

namespace tel = fastfit::telemetry;

namespace {

// Outcome-slot sentinels for the (point, trial) matrix.
constexpr int kPending = -1;  ///< not yet executed
constexpr int kSkipped = -2;  ///< abandoned after the point quarantined

// "No trial of this point has failed" marker for first_failed.
constexpr std::uint32_t kNoFailure =
    std::numeric_limits<std::uint32_t>::max();

/// Everything one (point, trial) job leaves behind.
struct Slot {
  int outcome = kPending;      ///< an inject::Outcome, or a sentinel
  bool replayed = false;       ///< served from the journal
  bool deterministic = false;  ///< INF_LOOP proven at quiescence
  bool failed = false;         ///< retries exhausted (quarantine)
  std::uint32_t retries = 0;   ///< internal-error retries consumed
  std::string autopsy;         ///< world autopsy carried into the journal
  std::string error;           ///< last internal error, if failed
};

thread_local int t_lane = -1;

/// Runs `loop` once per lane: inline on the calling thread at pool <= 1,
/// else on `pool` threads, each bound to its lane ordinal and telemetry
/// track. Every lane runs to completion before the first exception any
/// lane threw is rethrown, so one bad trial never strands the others.
void run_lanes(std::size_t pool, const std::function<void()>& loop) {
  if (pool <= 1) {
    loop();
    return;
  }
  std::mutex error_mutex;
  std::exception_ptr first_error;
  {
    std::vector<std::jthread> lanes;
    lanes.reserve(pool);
    for (std::size_t i = 0; i < pool; ++i) {
      lanes.emplace_back([&, i] {
        t_lane = static_cast<int>(i);
        if (tel::Recorder::instance().enabled()) {
          tel::Recorder::bind_thread(tel::Track::Executor,
                                     static_cast<int>(i),
                                     "executor-" + std::to_string(i));
        }
        try {
          loop();
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
  }  // joins every lane
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

int current_worker() noexcept { return t_lane; }

std::size_t resolve_parallel_trials(std::size_t configured) {
  if (configured > 0) return configured;
  return std::max(1u, std::thread::hardware_concurrency());
}

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

  // One slot per (point, trial) job; aggregated afterwards in trial
  // order so the fan-out is byte-for-byte the serial one. A slot is
  // written only by the lane that claimed it (or by claim_next under
  // claim_mutex, for slots no lane has claimed) and read after the lanes
  // join.
  std::vector<std::vector<Slot>> slots(points.size(),
                                       std::vector<Slot>(trials));
  // Per point, the *minimum* failed trial ordinal: under pool > 1 the
  // first trial to fail in wall-clock time is not necessarily the first
  // in trial order, and every per-point aggregate (which trials count,
  // whose error message survives, how many retries) must be derived from
  // the trial-order minimum — never from arrival order — to stay
  // bit-identical to the serial run. Lowered and read under claim_mutex
  // while the lanes run.
  std::vector<std::uint32_t> first_failed(points.size(), kNoFailure);
  std::mutex claim_mutex;

  std::vector<std::string> keys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    keys[i] = point_key(points[i]);
  }

  // Phase 0: replay journaled outcomes; only the gaps execute.
  if (replay) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::uint32_t t = 0; t < trials; ++t) {
        if (const auto o = replay->lookup(keys[i], t)) {
          slots[i][t].outcome = static_cast<int>(*o);
          slots[i][t].replayed = true;
          ++stats.replayed;
        }
      }
    }
  }

  // One fresh guarded trial, writing only into slot (i, t).
  const auto run_fresh = [this, &slots, &first_failed, &claim_mutex,
                          &points, &keys](std::size_t i, std::uint32_t t,
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
    Slot& slot = slots[i][t];
    slot.retries = attempt.retries;
    if (!attempt.ok) {
      slot.error = attempt.error;
      slot.failed = true;
      slot.outcome = kSkipped;
      std::lock_guard<std::mutex> lock(claim_mutex);
      first_failed[i] = std::min(first_failed[i], t);
      return;
    }
    const auto& forensics = attempt.forensics;
    trial_span.arg("outcome", inject::to_string(forensics.outcome));
    // A proven structural deadlock is load-independent, so it needs no
    // escalated re-confirmation.
    slot.deterministic = forensics.outcome == inject::Outcome::InfLoop &&
                         forensics.deterministic_hang;
    slot.autopsy = forensics.autopsy;
    slot.outcome = static_cast<int>(forensics.outcome);
  };

  // Phase 1: concurrent guarded execution of the missing trials. Each
  // lane loop claims its next trial from a shared cursor (claim_next).
  const bool affine = runner_->lanes_hold_point_state();
  // Per point, the next ordinal to consider and how many pending
  // (neither claimed nor replayed) ordinals lie at or beyond it.
  std::vector<std::uint32_t> cursor(points.size(), 0);
  std::vector<std::uint32_t> unclaimed(points.size(), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (const Slot& slot : slots[i]) unclaimed[i] += slot.outcome == kPending;
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
      while (slots[at][t].outcome != kPending) ++t;
      cursor[at] = t + 1;
      --unclaimed[at];
      // Skip only trials *beyond* a known failure: those are the ones
      // the serial run would never have executed. Trials below it must
      // still run — the serial stream includes them.
      if (first_failed[at] < t) {
        slots[at][t].outcome = kSkipped;
        continue;
      }
      return true;
    }
  };
  {
    // Lanes open together: the gap to a trial's start is its queue wait,
    // rendered as its own span on the executing lane.
    auto& rec = tel::Recorder::instance();
    const std::int64_t open_us = rec.enabled() ? rec.now_us() : -1;
    run_lanes(config_.pool, [&run_fresh, &claim_next, open_us] {
      std::size_t at = kNoPoint;
      std::uint32_t t = 0;
      while (claim_next(at, t)) run_fresh(at, t, open_us);
    });
  }

  // Truncation pass: rebuild the serial stream per point. Serial
  // semantics are "trials execute in order until the first failure f;
  // f's slot and everything after it are skipped". Under pool > 1, slots
  // beyond f may have executed anyway (wasted work — discard them). No
  // slot below f was skipped: claim_next skips a trial only above the
  // failure ordinal it sees, and that ordinal only falls, so every
  // skipped trial lies above the final f too.
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::uint32_t t = first_failed[i]; t < trials; ++t) {
      // Journal-replayed outcomes survive the truncation — the serial
      // run never re-executes (or un-records) them either.
      if (!slots[i][t].replayed) slots[i][t].outcome = kSkipped;
    }
  }

  // Proven-deadlock census for the health stats, taken *after*
  // truncation so wasted beyond-failure executions do not count (the
  // serial run never ran them).
  for (const auto& row : slots) {
    for (const Slot& slot : row) {
      if (slot.outcome == static_cast<int>(inject::Outcome::InfLoop) &&
          !slot.replayed && slot.deterministic) {
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
      Slot& slot = slots[i][t];
      if (slot.outcome != static_cast<int>(inject::Outcome::InfLoop) ||
          slot.replayed || slot.deterministic) {
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
      if (attempt.ok) {
        slot.outcome = static_cast<int>(attempt.forensics.outcome);
      }
    }
  }

  // Phase 3: fan out in deterministic (point, trial) order. Execution
  // order above was free; observation order is pinned here, which is what
  // keeps reports, journals, and counters bit-identical at every pool
  // size.
  const std::string no_error;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::uint32_t t = 0; t < trials; ++t) {
      const Slot& slot = slots[i][t];
      if (slot.outcome < 0) continue;  // skipped after quarantine
      TrialRecord record{keys[i],
                         i,
                         t,
                         static_cast<inject::Outcome>(slot.outcome),
                         slot.replayed,
                         slot.deterministic,
                         slot.autopsy};
      for (auto* sink : sinks) sink->on_trial(record);
    }
    // Point aggregates from the truncated stream: retries come from the
    // trials the serial run would have executed (ordinals <= the first
    // failure) plus the escalated confirmations; the surviving error is
    // the first failure's, never a later racer's.
    const std::uint32_t f = first_failed[i];
    const bool quarantined = f != kNoFailure;
    std::uint32_t retry_total = confirm_retries[i];
    for (std::uint32_t t = 0; t < trials && t <= f; ++t) {
      retry_total += slots[i][t].retries;
    }
    PointStatus status{keys[i], i, retry_total, quarantined,
                       quarantined ? slots[i][f].error : no_error};
    if (quarantined) ++stats.quarantined_points;
    for (auto* sink : sinks) sink->on_point(status);
  }
  for (auto* sink : sinks) sink->on_batch_end();
  return stats;
}

}  // namespace fastfit::core
