#pragma once

// Campaign execution: one fault-free run, per-trial fault injection, and
// the per-point statistics the evaluation section reports.
//
// profile() runs the uninjected problem once. That one world carries the
// profiler hooks (the features and the point enumeration), yields the
// golden digest every trial is classified against, calibrates the
// watchdog from its wall time and, when snapshots are on and some fault
// model is replayable, records the op log that prefix replay cuts from.
//
// The campaign engine is crash-resilient in three coordinated layers:
//  (1) a durable trial journal (core/journal.hpp) that measure() /
//      measure_many() write through and resume from,
//  (2) a retrying trial guard that contains internal (non-fault)
//      exceptions: a trial that keeps failing quarantines its point
//      instead of tearing down the campaign, and
//  (3) watchdog escalation: INF_LOOP outcomes the wall-clock watchdog
//      declared (not proven deadlocks) are re-confirmed uncontended with
//      an escalated budget.

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "core/enumerate.hpp"
#include "core/journal.hpp"
#include "core/points.hpp"
#include "core/procpool.hpp"
#include "core/scheduler.hpp"
#include "core/shard.hpp"
#include "core/snapshot_cache.hpp"
#include "inject/fault_spec.hpp"
#include "inject/outcome.hpp"
#include "profile/profiler.hpp"

namespace fastfit::core {

struct CampaignOptions {
  int nranks = 16;
  std::uint64_t seed = 0x5eedfa57f17ULL;
  /// Fault injection tests per injection point (Table II: NUM_INJ). The
  /// paper uses 100; smaller values trade statistical resolution for
  /// wall-clock time.
  std::uint32_t trials_per_point = 30;
  /// Watchdog for injected runs; if unset, calibrated from the fault-free
  /// run in Campaign::profile() (a multiple of its wall time).
  std::optional<std::chrono::milliseconds> watchdog;
  /// Fault models (manifestation x trigger) the campaign injects
  /// (--fault-models, FASTFIT_FAULT_MODELS). profile() crosses the
  /// enumerated points with every spec; the default single entry — the
  /// paper's exact-point single bit flip — reproduces the pre-v2 point
  /// set and outcomes byte for byte. Must be non-empty and
  /// duplicate-free (parse_fault_models enforces both).
  std::vector<inject::FaultModelSpec> fault_models = {
      inject::FaultModelSpec{}};
  /// ULFM-style shrink-and-continue repair (--repair, FASTFIT_REPAIR):
  /// injected worlds run with WorldOptions::repair set, so a fail-stop
  /// rank death revokes the communicator instead of poisoning the world
  /// and repair-capable workloads resume on the survivors (outcome
  /// REPAIRED instead of RANK_DEAD).
  bool repair = false;
  /// True when this configuration opted into the extended fault-model
  /// library (any non-default spec, or repair mode) and serialized
  /// surfaces must carry the RANK_DEAD / REPAIRED outcome columns. The
  /// default configuration keeps the paper's six-way taxonomy so its
  /// output is byte-identical to pre-v2 builds.
  bool extended_outcomes() const noexcept {
    return repair || fault_models.size() != 1 ||
           !fault_models.front().is_default();
  }
  /// Collective algorithm selection for every run of this campaign.
  mpi::CollectiveAlgorithms algorithms;
  /// Upper bound on concurrently executing trials in measure_many. 0 means
  /// "auto": hardware_concurrency(), one lane per core (every trial runs
  /// all its rank fibers on its lane's thread). 1 forces the serial path.
  /// Results are identical at every setting; only wall-clock time
  /// changes.
  std::size_t max_parallel_trials = 0;
  /// Trial guard: how many times an internal (non-fault) trial failure is
  /// retried with exponential backoff before the point is quarantined.
  /// (FASTFIT_MAX_TRIAL_RETRIES; 0 disables retries.)
  std::uint32_t max_trial_retries = 2;
  /// Structural pruning chain applied at profile() time, in order
  /// (--passes / FASTFIT_PASSES). Names as understood by parse_pass_list;
  /// "ml" is rejected here — the ML stage runs trials and belongs to the
  /// study driver (StudyOptions::use_ml).
  std::vector<std::string> pruning_passes = {"semantic", "context"};
  /// Which deterministic shard of the post-pruning point set this
  /// campaign executes (FASTFIT_SHARD, "--shard i/N"). The campaign
  /// itself only pins the shard into the journal header; the study
  /// driver does the actual partitioning.
  ShardSpec shard;
  /// Prefix-replay world snapshots (--snapshots on|off, FASTFIT_SNAPSHOTS):
  /// trials clone a recorded fault-free prefix and execute only the
  /// post-injection suffix. Results are bit-identical either way; the
  /// first replay divergence runs that trial from scratch and turns
  /// replay off for the rest of the campaign, and `false` is the
  /// from-scratch path. Under process isolation `true` also forks at the
  /// cut: exact-trigger trials of the message, fail-stop and signal
  /// models, which cannot replay, are forked from a per-point fault-free
  /// template parked where the fault fires.
  bool snapshots = true;
  /// Trial execution backend (--isolation, FASTFIT_ISOLATION). `Thread`
  /// (default) runs trials in-process on the scheduler lane's thread.
  /// `Process` dispatches each trial to a fresh child of a per-lane
  /// point server (core/procpool.hpp): worker death by a real signal
  /// classifies SEG_FAULT instead of killing the campaign, and the lease
  /// kills rank code that never yields; results for non-signal fault
  /// models stay byte-identical to the in-process backend.
  IsolationMode isolation = IsolationMode::Thread;
};

/// Aggregate campaign health: what the resilience machinery had to do.
/// All zeros on a healthy machine.
struct CampaignHealth {
  std::uint64_t total_retries = 0;           ///< guarded-trial retries
  std::uint64_t quarantined_points = 0;      ///< points given up on
  std::uint64_t watchdog_confirmations = 0;  ///< escalated INF_LOOP re-runs
  std::uint64_t replayed_trials = 0;         ///< trials served from the journal
  std::uint64_t deterministic_deadlocks = 0; ///< structurally proven INF_LOOPs
  std::uint64_t worker_deaths = 0;           ///< workers killed by a real signal
  std::uint64_t worker_lease_kills = 0;      ///< workers SIGKILLed past the lease
  std::uint64_t isolation_fallbacks = 0;     ///< trials run in-process post-degradation

  /// True when no point was quarantined (retries, confirmations, and
  /// deterministic verdicts are routine; quarantine means lost coverage).
  /// Worker deaths are *data* (the classified SEG_FAULT outcomes), lease
  /// kills feed the retry ladder whose terminal state is quarantine, and
  /// degradation fallbacks still produce correct results — none of the
  /// worker counters flips a run unclean on its own, so exit codes stay
  /// 0/2/1-consistent with quarantine alone.
  bool clean() const noexcept { return quarantined_points == 0; }
};

/// Journal attachment mode (see Campaign::attach_journal).
enum class JournalMode {
  Create,  ///< fresh journal; refuses to clobber an existing file
  Resume,  ///< validate + replay an existing journal (create if missing)
};

/// One fault-injection campaign over one workload: owns the profiling
/// phase, the golden digest, and trial execution. The heavy lifting of
/// deciding *which* points to run lives above (the study driver and its
/// pruning passes); the ordering/batching machinery lives below
/// (TrialScheduler). Campaign is the *engine*: it implements TrialRunner
/// (privately — only its own measure calls may schedule on it) and
/// contributes the world execution, golden calibration, and trial guard.
class Campaign : private TrialRunner {
 public:
  Campaign(const apps::Workload& workload, CampaignOptions options);

  /// Phase 1 (paper Fig 5): one fault-free run gives the profile, the
  /// golden digest, the watchdog calibration and (snapshots on, some
  /// model replayable) the prefix recording; then the point enumeration.
  /// Throws InternalError if that run fails or leaks. Must be called
  /// before trials.
  void profile();

  /// The collective points profile() enumerated.
  const Enumeration& enumeration() const;
  const PruningStats& stats() const { return enumeration().stats; }

  /// Enumerates `family`'s points through the campaign's pruning chain and
  /// crosses them with its fault models, as profile() does for the
  /// collective sites. The point-to-point study measures what this gives
  /// for SiteFamily::P2p like any other points. Requires profile().
  Enumeration enumerate(mpi::SiteFamily family) const;
  const profile::Profiler& profiler() const;

  /// Attaches a durable trial journal at `path`. Requires profile():
  /// the journal header pins the campaign identity including the golden
  /// digest, and Resume refuses a journal whose identity differs from
  /// this campaign (changed seed, workload, fault model, algorithms,
  /// nranks, or golden digest). After attaching, measure()/measure_many()
  /// replay journaled trials instead of executing them and append every
  /// fresh outcome, so a killed campaign resumes bit-identically.
  void attach_journal(const std::string& path, JournalMode mode);

  /// Flushes and closes the journal (also done on destruction).
  void detach_journal();

  /// The attached journal, or nullptr.
  TrialJournal* journal() noexcept { return journal_.get(); }
  const TrialJournal* journal() const noexcept { return journal_.get(); }

  /// Runs `trials` injected executions of one point and aggregates the
  /// responses. Deterministic in (campaign seed, point, trial index): the
  /// per-trial RNG identity is derived from the point coordinates and the
  /// trial ordinal (FaultSpec::stream_index), so the result does not
  /// depend on what was measured before — or concurrently. Trials run
  /// serially; internal failures are retried and, on exhaustion, the
  /// point is quarantined (see PointResult::exec) rather than thrown.
  /// Throws ConfigError for a point-to-point point whose fault model its
  /// site cannot take (inject::check_p2p_fault_model).
  PointResult measure(const InjectionPoint& point, std::uint32_t trials);

  /// Convenience: measure with the configured trials_per_point.
  PointResult measure(const InjectionPoint& point);

  /// Measures a batch of points, running up to max_parallel_trials
  /// (point, trial) jobs concurrently on the scheduler's lanes. Returns
  /// results in input order, bit-identical to calling measure() on each
  /// point:
  /// per-trial RNG identity is execution-order-free, and any trial that
  /// hits the watchdog is confirmed by an uncontended re-run with an
  /// escalated (kWatchdogEscalation ×) budget before being classified
  /// INF_LOOP.
  std::vector<PointResult> measure_many(std::span<const InjectionPoint> points,
                                        std::uint32_t trials);

  /// Convenience: batch measure with the configured trials_per_point.
  std::vector<PointResult> measure_many(
      std::span<const InjectionPoint> points);

  /// Resolved trial concurrency (the "auto" default made concrete).
  std::size_t parallel_trials() const noexcept;

  /// Adjusts the trial concurrency of later measure_many calls; results
  /// are unaffected. Throws InternalError if a measure is in flight —
  /// the knob races with the running pool's sizing otherwise.
  void set_max_parallel_trials(std::size_t max_parallel);

  /// True while a measure()/measure_many() call is executing (any thread).
  bool measuring() const noexcept {
    return measuring_.load(std::memory_order_acquire) != 0;
  }

  /// Total injected executions so far (a statistic, not an RNG input).
  std::uint64_t trials_run() const noexcept {
    return trials_run_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the campaign's resilience counters.
  CampaignHealth health() const noexcept;

  /// Statistics of the prefix-replay snapshot subsystem (all zeros when
  /// snapshots are off or never engaged).
  SnapshotCache::Stats snapshot_stats() const;

  std::uint64_t golden_digest() const;
  std::chrono::milliseconds watchdog() const override { return watchdog_; }
  const CampaignOptions& options() const noexcept { return options_; }
  const apps::Workload& workload() const noexcept { return *workload_; }

 private:
  const apps::Workload* workload_;
  CampaignOptions options_;
  bool profiled_ = false;
  std::uint64_t golden_digest_ = 0;
  std::chrono::milliseconds watchdog_{0};
  // Built by profile(); the profiler keeps a reference to the contexts.
  std::unique_ptr<trace::ContextRegistry> contexts_;
  std::unique_ptr<profile::Profiler> profiler_;
  Enumeration enumeration_;
  std::unique_ptr<TrialJournal> journal_;
  /// Present when profile() recorded a replayable prefix; owns the
  /// recording and the derived cuts.
  std::unique_ptr<SnapshotCache> snapshot_cache_;
  std::atomic<std::uint64_t> trials_run_{0};
  std::atomic<std::uint64_t> total_retries_{0};
  std::atomic<std::uint64_t> quarantined_points_{0};
  std::atomic<std::uint64_t> confirmations_{0};
  std::atomic<std::uint64_t> replayed_trials_{0};
  std::atomic<std::uint64_t> deterministic_deadlocks_{0};
  std::atomic<std::uint64_t> worker_deaths_{0};
  std::atomic<std::uint64_t> worker_lease_kills_{0};
  std::atomic<std::uint64_t> isolation_fallbacks_{0};
  std::atomic<int> measuring_{0};
  /// Live only while a process-isolated measure is in flight; run_guarded
  /// dispatches through it instead of running the trial in-process.
  std::atomic<ProcPool*> active_pool_{nullptr};

  /// One injected execution: fresh Injector + World + ContextRegistry.
  /// Thread-safe after profile(): touches only immutable campaign state.
  /// Performs the post-trial audit: a fully torn-down world that left
  /// memory regions registered is a harness bug and throws InternalError
  /// so the guard retries it. Stray undelivered messages are a
  /// legitimate fault consequence (e.g. a corrupted root re-routes
  /// sends nobody awaits), so only the uninjected run in profile()
  /// asserts on them. Point-to-point faults always run from scratch: the
  /// prefix recording is cut at collective sites only.
  inject::TrialForensics run_trial(const inject::FaultSpec& spec,
                                   std::chrono::milliseconds watchdog);

  /// The world execution behind run_trial. With a snapshot, only the
  /// post-injection suffix executes (prefix replayed from the recording);
  /// may throw mpi::ReplayError, which run_trial converts into a
  /// from-scratch fallback. With `park` (a process-isolated point server)
  /// the world is a fault-free template that parks at the cut and
  /// returns only in each forked trial child (core/procpool.hpp).
  inject::TrialForensics execute_trial(
      const inject::FaultSpec& spec, std::chrono::milliseconds watchdog,
      std::shared_ptr<const mpi::WorldSnapshot> snapshot,
      const procpool::Park* park = nullptr);

  /// Routes one trial to the right backend: the live worker pool under
  /// process isolation (worker death → SEG_FAULT forensics, lease
  /// expiry/lane loss → InternalError for the retry guard), or the
  /// in-process run_trial otherwise — including the degraded-pool
  /// fallback, which is refused for signal models (a real signal must
  /// never fire inside the campaign process).
  inject::TrialForensics dispatch_trial(const inject::FaultSpec& spec,
                                        std::chrono::milliseconds watchdog);

  /// Pre-derives the snapshot cuts of every replayable collective point
  /// of the batch, so forked workers inherit them instead of each child deriving
  /// its own.
  void warm_snapshots(std::span<const InjectionPoint> points);

  /// TrialRunner: supervised execution of one trial — retries internal
  /// (non-fault) failures with exponential backoff up to
  /// max_trial_retries before reporting !ok (quarantine).
  Attempt run_guarded(const InjectionPoint& point, std::uint64_t trial,
                      std::chrono::milliseconds watchdog) override;

  /// TrialRunner: true under process isolation with snapshots on, where
  /// each lane keeps the fork-at-cut template of its current point.
  bool lanes_hold_point_state() const override;

  /// Watchdog for fault-free worlds that must not time out under load (a
  /// fork-at-cut template).
  std::chrono::milliseconds fault_free_budget() const;

  /// Shared implementation of measure / measure_many at a given pool size.
  std::vector<PointResult> measure_impl(
      std::span<const InjectionPoint> points, std::uint32_t trials,
      std::size_t pool);
};

}  // namespace fastfit::core
