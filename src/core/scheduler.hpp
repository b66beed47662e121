#pragma once

// TrialScheduler: the ordering/batching stage of the study pipeline.
//
// The scheduler owns the (point, trial) job matrix of one batch: journal
// replay, concurrent guarded execution on its own lanes, escalated
// uncontended INF_LOOP re-confirmation, and the final deterministic
// aggregation in (point, trial) order. It is engine-agnostic — trials
// execute through the narrow TrialRunner interface (implemented by
// Campaign, which routes each run_guarded call either to an in-process
// world or to the fork-server worker pool, per the --isolation knob; the
// scheduler never knows which backend ran a trial) — and
// result-agnostic: every recorded outcome fans out to OutcomeSink
// observers (report accumulator, telemetry counters, journal
// write-through), so the scheduler itself never knows what a report is.
//
// Lanes. At pool 1 the one claim loop runs inline on the calling thread
// (lane ordinal -1); otherwise each lane is one thread running one claim
// loop, started and joined by the batch. A trial runs all of its rank
// fibers on the lane that claimed it, so the pool size is the whole
// concurrency knob.
//
// Claim order. Each lane loop claims its next trial from a cursor the
// lanes share, under one mutex, and a trial beyond its point's known
// first failure is skipped at claim time. By default the claim order is
// point-major: every lane takes the lowest unclaimed (point, trial),
// which at pool 1 is the serial order. When the runner's lanes hold
// per-point state (TrialRunner::lanes_hold_point_state: a
// process-isolated lane keeps a fork-at-cut template of the point it
// serves), the order is point-affine instead: a lane stays on its point
// until that point has no unclaimed trial, then takes the next point no
// lane has taken, and once every point is taken joins the point with the
// most unclaimed trials. Each point's template is then built about once,
// not once per lane, and the tail still spreads over every lane.
//
// Aggregating in (point, trial) order after execution is what makes the
// batch bit-identical to a serial run at every pool size and in either
// claim order: execution order is free (per-trial RNG identity is
// order-independent), observation order is not.

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/points.hpp"
#include "inject/outcome.hpp"

namespace fastfit::core {

/// Resolves CampaignOptions::max_parallel_trials: an explicit value
/// passes through; 0 ("auto") becomes hardware_concurrency() (at least
/// 1) — one lane per core, since a trial occupies exactly one thread.
std::size_t resolve_parallel_trials(std::size_t configured);

/// Ordinal of the scheduler lane running the calling thread, or -1 off
/// the lane threads (pool 1, the confirmations, the campaign driver). Used to attribute errors and trace spans to their
/// lane.
int current_worker() noexcept;

/// Execution engine behind the scheduler: runs one supervised trial.
/// Implemented by Campaign (fresh Injector + World per call).
class TrialRunner {
 public:
  /// Result of one supervised trial: outcome plus guard forensics.
  struct Attempt {
    bool ok = false;  ///< false = retries exhausted, quarantine the point
    inject::TrialForensics forensics;  ///< valid when ok
    std::uint32_t retries = 0;         ///< internal-error retries consumed
    std::string error;                ///< last internal error, attributed
  };

  virtual ~TrialRunner() = default;

  /// One guarded trial of `point` under `watchdog`. Deterministic in
  /// (engine seed, point, trial); must be safe to call concurrently.
  virtual Attempt run_guarded(const InjectionPoint& point,
                              std::uint64_t trial,
                              std::chrono::milliseconds watchdog) = 0;

  /// Per-trial watchdog budget, calibrated once from the golden run.
  virtual std::chrono::milliseconds watchdog() const = 0;

  /// True when a lane keeps state for the point it ran last that a
  /// switch of point throws away (a fork-at-cut template); the scheduler
  /// then claims trials point-affine. Lane i is current_worker() == i.
  virtual bool lanes_hold_point_state() const { return false; }
};

/// One recorded (point, trial) outcome, observed in deterministic
/// (point, trial) order during aggregation. References stay valid only
/// for the duration of the callback.
struct TrialRecord {
  const std::string& key;   ///< stable point identity (point_key)
  std::size_t point_index;  ///< index into the batch's point span
  std::uint32_t trial;
  inject::Outcome outcome{};
  bool replayed = false;       ///< served from the journal, not executed
  bool deterministic = false;  ///< INF_LOOP proven structurally
  const std::string& autopsy;  ///< world autopsy ("" if none)
};

/// Per-point supervision summary, observed right after the point's last
/// TrialRecord.
struct PointStatus {
  const std::string& key;
  std::size_t point_index;
  std::uint32_t retries = 0;
  bool quarantined = false;
  const std::string& error;  ///< last internal error ("" if none)
};

/// Observer of a batch's outcomes. Implementations: ResultAccumulator
/// (report), the campaign's telemetry sink, and the journal write-through
/// sink. Callbacks arrive on the scheduling thread, in deterministic
/// order: all trials of point 0, point 0's status, all trials of point 1,
/// ... then one on_batch_end.
class OutcomeSink {
 public:
  virtual ~OutcomeSink() = default;
  virtual void on_trial(const TrialRecord& record) = 0;
  virtual void on_point(const PointStatus& status) = 0;
  virtual void on_batch_end() {}
};

/// Builds the per-point response statistics (the report's raw material)
/// from the record stream.
class ResultAccumulator final : public OutcomeSink {
 public:
  explicit ResultAccumulator(std::span<const InjectionPoint> points);
  void on_trial(const TrialRecord& record) override;
  void on_point(const PointStatus& status) override;
  /// The accumulated results, in point order. Call once, after the batch.
  std::vector<PointResult> take() { return std::move(results_); }

 private:
  std::vector<PointResult> results_;
};

/// Journal write-through: appends fresh trials and quarantine records,
/// flushes at batch end. Replayed trials are skipped — they are already
/// durable.
class JournalSink final : public OutcomeSink {
 public:
  /// `points` is the batch's point span (outlives the sink): the sink
  /// resolves record.point_index to the point's fault-model spec so
  /// every appended trial names what was injected ("m" field; omitted
  /// for the default spec to keep pre-v2 journals byte-identical).
  JournalSink(TrialJournal& journal, std::span<const InjectionPoint> points)
      : journal_(&journal), points_(points) {}
  void on_trial(const TrialRecord& record) override;
  void on_point(const PointStatus& status) override;
  void on_batch_end() override;

 private:
  TrialJournal* journal_;
  std::span<const InjectionPoint> points_;
};

/// Campaign metrics: per-outcome trial counters (replays included, so a
/// resumed campaign reports identical totals), replay and quarantine
/// counters. No-op while the telemetry recorder is disabled.
class TelemetrySink final : public OutcomeSink {
 public:
  /// `extended_outcomes` widens the registered counter set with
  /// RANK_DEAD / REPAIRED (CampaignOptions::extended_outcomes); default
  /// campaigns register only the paper's six, so their metrics snapshot
  /// stays byte-identical to pre-v2 output.
  explicit TelemetrySink(bool extended_outcomes = false)
      : extended_outcomes_(extended_outcomes) {}
  void on_trial(const TrialRecord& record) override;
  void on_point(const PointStatus& status) override;

 private:
  bool extended_outcomes_;
};

/// What the scheduler's resilience machinery did during one batch; the
/// engine folds this into its campaign-wide health counters.
struct BatchStats {
  std::uint64_t replayed = 0;                ///< trials served from journal
  std::uint64_t deterministic_deadlocks = 0; ///< INF_LOOPs proven at quiescence
  std::uint64_t confirmations = 0;           ///< escalated re-confirmations
  std::uint64_t quarantined_points = 0;      ///< points given up on
};

/// Budget multiplier of the uncontended INF_LOOP re-confirmation.
inline constexpr std::uint32_t kWatchdogEscalation = 4;

struct SchedulerConfig {
  std::size_t pool = 1;  ///< lanes: concurrently running trials
};

class TrialScheduler {
 public:
  TrialScheduler(TrialRunner& runner, SchedulerConfig config)
      : runner_(&runner), config_(config) {}

  /// Runs `trials` per point, replaying from `replay` (may be null) and
  /// fanning every outcome out to `sinks` in deterministic order.
  BatchStats run(std::span<const InjectionPoint> points,
                 std::uint32_t trials, const TrialJournal* replay,
                 std::span<OutcomeSink* const> sinks);

 private:
  TrialRunner* runner_;
  SchedulerConfig config_;
};

}  // namespace fastfit::core
