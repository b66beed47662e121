#include "core/campaign.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "inject/injector.hpp"
#include "minimpi/mpi.hpp"
#include "support/error.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::core {

using namespace std::chrono_literals;

namespace tel = fastfit::telemetry;

namespace {

// Watchdog calibration: the fault-free path must fit comfortably, a hung
// job must be detected promptly.
constexpr std::chrono::milliseconds kWatchdogFloor = 150ms;
constexpr int kWatchdogMultiplier = 12;

std::string algorithms_id(const mpi::CollectiveAlgorithms& algorithms) {
  return std::to_string(static_cast<int>(algorithms.allreduce)) + '/' +
         std::to_string(static_cast<int>(algorithms.bcast));
}

/// Where a trial attempt ran, for error attribution and trace spans.
std::string execution_site() {
  const int worker = current_worker();
  return worker >= 0 ? "executor thread " + std::to_string(worker)
                     : "main thread";
}

/// Crosses the structurally-pruned point set with the campaign's fault
/// models (spec-major, so shard partitions stay contiguous per model).
/// The default single-spec configuration returns the input untouched —
/// the pre-v2 point set, byte for byte. Manifestations that ignore the
/// parameter axis (message faults, rank death) keep one point per
/// (site, rank, invocation) instead of one per parameter: the parameter
/// only says *which argument* to mutate, which those models never do.
std::vector<InjectionPoint> cross_with_fault_models(
    std::vector<InjectionPoint> points,
    const std::vector<inject::FaultModelSpec>& specs) {
  if (specs.size() == 1 && specs.front().is_default()) return points;
  std::vector<InjectionPoint> crossed;
  for (const auto& spec : specs) {
    if (inject::is_parameter_model(spec.model)) {
      for (const auto& point : points) {
        crossed.push_back(point);
        crossed.back().fault = spec;
      }
      continue;
    }
    std::set<std::tuple<std::uint32_t, int, std::uint64_t>> seen;
    for (const auto& point : points) {
      if (!seen.insert({point.site_id, point.rank, point.invocation}).second) {
        continue;
      }
      crossed.push_back(point);
      crossed.back().fault = spec;
    }
  }
  return crossed;
}

std::chrono::milliseconds watchdog_of(const procpool::WorkItem& item) {
  return std::chrono::milliseconds(static_cast<std::int64_t>(item.watchdog_ms));
}

/// Runs one trial inside a worker process. Never throws: a contained
/// failure travels back as TrialReply::error and re-enters the
/// supervisor-side retry guard.
template <typename Body>
procpool::TrialReply worker_reply(const Body& body) {
  procpool::TrialReply reply;
  try {
    reply.forensics = body();
    reply.ok = true;
  } catch (const std::exception& e) {
    reply.ok = false;
    reply.error = e.what();
  } catch (...) {
    reply.ok = false;
    reply.error = "unknown worker error";
  }
  return reply;
}

}  // namespace

Campaign::Campaign(const apps::Workload& workload, CampaignOptions options)
    : workload_(&workload), options_(options) {
  if (options_.nranks < 1) throw ConfigError("Campaign: nranks must be >= 1");
  if (options_.trials_per_point == 0) {
    throw ConfigError("Campaign: trials_per_point must be positive");
  }
  if (options_.fault_models.empty()) {
    throw ConfigError("Campaign: fault_models must be non-empty");
  }
  for (std::size_t i = 0; i < options_.fault_models.size(); ++i) {
    for (std::size_t j = i + 1; j < options_.fault_models.size(); ++j) {
      if (options_.fault_models[i] == options_.fault_models[j]) {
        throw ConfigError("Campaign: duplicate fault model '" +
                          options_.fault_models[i].canonical() + "'");
      }
    }
  }
  // Real-signal manifestations kill the entire trial process; without
  // the fork-server backend that process is the campaign itself.
  for (const auto& spec : options_.fault_models) {
    if (inject::is_signal_model(spec.model) &&
        options_.isolation != IsolationMode::Process) {
      throw ConfigError("Campaign: fault model '" + spec.canonical() +
                        "' raises a genuine signal and requires "
                        "--isolation process");
    }
  }
  // Validate the structural pruning chain up front: unknown names and
  // the trial-running "ml" stage should fail at construction, not at
  // profile() time deep into a study.
  if (parse_pass_list(options_.pruning_passes).ml) {
    throw ConfigError(
        "Campaign: pruning pass 'ml' runs trials; select the ML stage "
        "through StudyOptions::use_ml, not CampaignOptions");
  }
  if (options_.shard.count < 1 || options_.shard.index < 1 ||
      options_.shard.index > options_.shard.count) {
    throw ConfigError("Campaign: shard must satisfy 1 <= index <= count");
  }
}

void Campaign::profile() {
  if (profiled_) throw InternalError("Campaign::profile: already profiled");

  // Phase 1 (paper Fig 5): one fault-free run of the same problem as the
  // injection runs, so the features transfer. It also gives the golden
  // digest, the watchdog calibration and, when a replayable model will
  // clone a prefix, the op log every replayed trial is cut from.
  contexts_ = std::make_unique<trace::ContextRegistry>(options_.nranks);
  profiler_ = std::make_unique<profile::Profiler>(*contexts_);
  mpi::WorldOptions opts;
  opts.nranks = options_.nranks;
  opts.seed = options_.seed;
  opts.algorithms = options_.algorithms;
  opts.watchdog = options_.watchdog.value_or(30'000ms);
  if (options_.snapshots &&
      std::any_of(options_.fault_models.begin(), options_.fault_models.end(),
                  inject::is_replayable)) {
    opts.recorder = std::make_shared<mpi::PrefixRecorder>(options_.nranks);
  }
  tel::ScopedSpan run_span("profiling-run");
  const auto t0 = std::chrono::steady_clock::now();
  const auto job = apps::run_job(*workload_, opts, profiler_.get(), *contexts_);
  const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  if (!job.world.clean()) {
    throw InternalError("Campaign: golden run failed: " +
                        job.world.event->message);
  }
  // The uninjected run gets the strict leak audit: with no fault to
  // explain them, a still-registered region or a queued message is a
  // harness bug, full stop.
  if (job.world.leaked_regions > 0 || job.world.undelivered_messages > 0) {
    throw InternalError(
        "Campaign: golden run leaked (" +
        std::to_string(job.world.leaked_regions) + " region(s), " +
        std::to_string(job.world.undelivered_messages) +
        " undelivered message(s))");
  }
  golden_digest_ = job.digest;
  watchdog_ = options_.watchdog.value_or(
      std::max(kWatchdogFloor, wall * kWatchdogMultiplier));
  if (opts.recorder) {
    auto recording = opts.recorder->finish();
    run_span.arg("ops", std::to_string(recording->total_ops));
    run_span.arg("payload_bytes", std::to_string(recording->payload_bytes));
    // Unreplayable, or too large to hold: every trial runs live.
    if (recording->replayable &&
        recording->payload_bytes <= kMaxRecordingBytes) {
      snapshot_cache_ = std::make_unique<SnapshotCache>(std::move(recording));
      if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
        static auto& builds = rec.counter(
            "fastfit_snapshot_recordings_total",
            "Fault-free runs recorded for prefix replay");
        builds.add();
      }
    }
  }
  run_span.finish();

  profiled_ = true;
  tel::ScopedSpan span("enumerate-points");
  enumeration_ = enumerate(mpi::SiteFamily::Collective);
}

const Enumeration& Campaign::enumeration() const {
  if (!profiled_) throw InternalError("Campaign: profile() not run");
  return enumeration_;
}

Enumeration Campaign::enumerate(mpi::SiteFamily family) const {
  Enumeration out =
      enumerate_with_passes(profiler(), options_.pruning_passes, family);
  out.points =
      cross_with_fault_models(std::move(out.points), options_.fault_models);
  // A non-identity cross changes the measured point set: after_context
  // is what sharding partitions and merge validates coverage against,
  // so it must track the crossed size (monotonicity of the earlier
  // stages is preserved by maxing them up). The default single-spec
  // cross is the identity and leaves every stat byte-identical.
  auto& stats = out.stats;
  stats.after_context = out.points.size();
  stats.after_semantic = std::max(stats.after_semantic, stats.after_context);
  stats.total_points = std::max(stats.total_points, stats.after_semantic);
  return out;
}

const profile::Profiler& Campaign::profiler() const {
  if (!profiled_) throw InternalError("Campaign: profile() not run");
  return *profiler_;
}

std::uint64_t Campaign::golden_digest() const {
  if (!profiled_) throw InternalError("Campaign: profile() not run");
  return golden_digest_;
}

void Campaign::attach_journal(const std::string& path, JournalMode mode) {
  if (!profiled_) {
    throw InternalError("Campaign::attach_journal: profile() not run");
  }
  if (measuring()) {
    throw InternalError("Campaign::attach_journal: a measure is running");
  }
  JournalHeader header;
  header.workload = workload_->name();
  header.seed = options_.seed;
  header.nranks = options_.nranks;
  header.trials_per_point = options_.trials_per_point;
  header.fault_model = inject::canonical_fault_models(options_.fault_models);
  header.algorithms = algorithms_id(options_.algorithms);
  header.golden_digest = golden_digest_;
  header.shard_index = options_.shard.index;
  header.shard_count = options_.shard.count;
  journal_ = mode == JournalMode::Resume ? TrialJournal::resume(path, header)
                                         : TrialJournal::create(path, header);
}

void Campaign::detach_journal() {
  if (!journal_) return;
  journal_->flush();
  journal_.reset();
}

void Campaign::set_max_parallel_trials(std::size_t max_parallel) {
  if (measuring()) {
    throw InternalError(
        "Campaign::set_max_parallel_trials: a measure is running");
  }
  options_.max_parallel_trials = max_parallel;
}

SnapshotCache::Stats Campaign::snapshot_stats() const {
  return snapshot_cache_ ? snapshot_cache_->stats() : SnapshotCache::Stats{};
}

CampaignHealth Campaign::health() const noexcept {
  CampaignHealth h;
  h.total_retries = total_retries_.load(std::memory_order_relaxed);
  h.quarantined_points = quarantined_points_.load(std::memory_order_relaxed);
  h.watchdog_confirmations = confirmations_.load(std::memory_order_relaxed);
  h.replayed_trials = replayed_trials_.load(std::memory_order_relaxed);
  h.deterministic_deadlocks =
      deterministic_deadlocks_.load(std::memory_order_relaxed);
  h.worker_deaths = worker_deaths_.load(std::memory_order_relaxed);
  h.worker_lease_kills =
      worker_lease_kills_.load(std::memory_order_relaxed);
  h.isolation_fallbacks =
      isolation_fallbacks_.load(std::memory_order_relaxed);
  return h;
}

inject::TrialForensics Campaign::run_trial(
    const inject::FaultSpec& spec, std::chrono::milliseconds watchdog) {
  // Snapshot fast path only for replayable specs: a fault that perturbs
  // prefix-visible state (message delay/drop, probabilistic or windowed
  // triggers that may fire inside the prefix) must execute from scratch —
  // the recorded fault-free prefix would silently mask the perturbation.
  // The recording is cut at collective sites only, so a point-to-point
  // fault runs from scratch too.
  if (spec.family == mpi::SiteFamily::Collective &&
      inject::is_replayable(spec.fault) && snapshot_cache_ &&
      !snapshot_cache_->disabled()) {
    std::shared_ptr<const mpi::WorldSnapshot> snapshot;
    {
      tel::ScopedSpan clone_span("snapshot-clone");
      snapshot = snapshot_cache_->lookup(spec.site_id, spec.invocation);
    }
    if (snapshot) {
      try {
        return execute_trial(spec, watchdog, std::move(snapshot));
      } catch (const mpi::ReplayError&) {
        // Divergence is a harness condition, never a trial outcome: fall
        // back to the from-scratch path below, and retire the subsystem
        // for the rest of the campaign.
        snapshot_cache_->note_fallback();
        snapshot_cache_->disable();
      }
    }
  }
  return execute_trial(spec, watchdog, nullptr);
}

inject::TrialForensics Campaign::execute_trial(
    const inject::FaultSpec& spec, std::chrono::milliseconds watchdog,
    std::shared_ptr<const mpi::WorldSnapshot> snapshot,
    const procpool::Park* park) {
  inject::Injector injector(spec, options_.seed);
  mpi::WorldOptions opts;
  opts.nranks = options_.nranks;
  opts.seed = options_.seed;
  opts.watchdog = watchdog;
  opts.algorithms = options_.algorithms;
  opts.repair = options_.repair;
  opts.replay = snapshot;
  opts.trial_arena = true;
  if (park != nullptr) {
    // Fork at the cut: the template world runs fault-free under the
    // relaxed budget and parks at the cut. Each trial child resumes there,
    // binds its own trial and gets the budget its trial had left at the
    // cut.
    opts.watchdog = fault_free_budget();
    injector.set_cut_hook([&injector, park](mpi::Mpi& mpi) {
      const auto cut = std::chrono::steady_clock::now();
      const procpool::WorkItem& item = (*park)();
      injector.bind_trial(item.spec.trial);
      mpi.world().rebase_deadline(watchdog_of(item), cut);
    });
  }
  trace::ContextRegistry contexts(options_.nranks, trace::CallGraphs::Skip);
  auto& rec = tel::Recorder::instance();
  if (snapshot && rec.enabled()) {
    static auto& clones = rec.counter(
        "fastfit_snapshot_clones_total",
        "Trials that executed only the post-injection suffix via replay");
    clones.add();
  }
  tel::ScopedSpan world_span("world-run");
  const auto t0 = std::chrono::steady_clock::now();
  const auto job = apps::run_job(*workload_, opts, &injector, contexts);
  world_span.finish();
  if (rec.enabled()) {
    static auto& executed = rec.counter(
        "fastfit_trials_executed_total",
        "Injected world executions (fresh runs; excludes journal replays)");
    executed.add();
    static auto& latency = rec.latency(
        "fastfit_trial_seconds", "Wall time of one injected world execution");
    latency.observe_us(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    if (job.world.reconverged) {
      static auto& reconverged = rec.counter(
          "fastfit_trials_reconverged_total",
          "Replayed trials classified SUCCESS at the cut");
      reconverged.add();
    }
  }
  trials_run_.fetch_add(1, std::memory_order_relaxed);

  // Post-trial audit. Every rank the world did not drop has unwound, so
  // all its RegisteredBuffer destructors have run; a region still
  // registered is a harness bug, not a fault consequence. Throw so the
  // guard retries (and eventually quarantines the point) rather than keep
  // a result from a corrupted registry.
  if (job.world.leaked_regions > 0) {
    throw InternalError("post-trial audit: " +
                        std::to_string(job.world.leaked_regions) +
                        " memory region(s) still registered after teardown");
  }
  // Undelivered transport messages are deliberately NOT audited here: an
  // injected run can legitimately succeed with strays queued (a corrupted
  // root re-routes sends nobody awaits while the digest never sees the
  // difference). The uninjected fault-free run in profile() asserts zero.
  tel::ScopedSpan classify_span("classify");
  return inject::classify_with_forensics(job.world, job.digest,
                                         golden_digest_);
}

void Campaign::warm_snapshots(std::span<const InjectionPoint> points) {
  if (!snapshot_cache_ || snapshot_cache_->disabled()) return;
  std::set<std::pair<std::uint32_t, std::uint64_t>> warmed;
  for (const auto& point : points) {
    if (point.family != mpi::SiteFamily::Collective ||
        !inject::is_replayable(point.fault)) {
      continue;
    }
    if (!warmed.insert({point.site_id, point.invocation}).second) continue;
    (void)snapshot_cache_->lookup(point.site_id, point.invocation);
    if (snapshot_cache_->disabled()) return;
  }
}

inject::TrialForensics Campaign::dispatch_trial(
    const inject::FaultSpec& spec, std::chrono::milliseconds watchdog) {
  ProcPool* pool = active_pool_.load(std::memory_order_acquire);
  if (pool != nullptr && !pool->degraded()) {
    procpool::WorkItem item;
    item.spec = spec;
    item.watchdog_ms = static_cast<std::uint64_t>(watchdog.count());
    // The in-world watchdog is the real trial timeout; the lease is a
    // generous backstop that only catches a wedged worker *process*
    // (e.g. one that inherited a locked mutex across fork). Past it the
    // lane's process group is SIGKILLed and the trial re-enters the
    // retry-with-quarantine guard.
    const auto lease = std::max<std::chrono::milliseconds>(
        60'000ms, watchdog * 4 + std::chrono::milliseconds(10'000));
    // Lane i is scheduler lane i; the serial path and the confirmations
    // run on the scheduling thread, with the lanes idle, and take lane 0.
    const int worker = current_worker();
    const std::size_t lane = worker < 0 ? 0 : static_cast<std::size_t>(worker);
    const auto result = pool->run(item, lease, lane);
    switch (result.kind) {
      case ProcPool::Result::Kind::Completed: {
        if (!result.reply.ok) {
          // A contained worker-side failure re-enters the guard exactly
          // like an in-process internal error would.
          throw InternalError("worker: " + result.reply.error);
        }
        trials_run_.fetch_add(1, std::memory_order_relaxed);
        return result.reply.forensics;
      }
      case ProcPool::Result::Kind::SignalDeath: {
        trials_run_.fetch_add(1, std::memory_order_relaxed);
        worker_deaths_.fetch_add(1, std::memory_order_relaxed);
        inject::TrialForensics forensics;
        forensics.outcome = inject::Outcome::SegFault;
        forensics.autopsy =
            describe_worker_death(result.signal, result.user_us,
                                  result.sys_us, result.maxrss_kb);
        return forensics;
      }
      case ProcPool::Result::Kind::LeaseExpired:
        worker_lease_kills_.fetch_add(1, std::memory_order_relaxed);
        throw InternalError(result.error);
      case ProcPool::Result::Kind::LaneFailure:
        throw InternalError(result.error);
    }
    throw InternalError("dispatch_trial: unknown worker result");
  }
  if (inject::is_signal_model(spec.fault.model)) {
    // Never raise a real signal inside the campaign process: with the
    // pool gone this trial cannot run, so it takes the retry → quarantine
    // ladder instead of the in-process fallback.
    throw InternalError(
        "fault model '" + spec.fault.canonical() +
        "' needs a live worker pool (process isolation degraded)");
  }
  if (pool != nullptr) {
    // Degraded pool, non-signal model: graceful in-process fallback,
    // recorded in CampaignHealth (results are identical either way).
    isolation_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  return run_trial(spec, watchdog);
}

TrialRunner::Attempt Campaign::run_guarded(
    const InjectionPoint& point, std::uint64_t trial,
    std::chrono::milliseconds watchdog) {
  const inject::FaultSpec spec = point.fault_spec(trial);
  Attempt attempt;
  for (std::uint32_t tries = 0;; ++tries) {
    // Attribution prefix for the error: which attempt failed, on which
    // lane (quarantine messages must be traceable to a lane).
    const std::string site = "attempt " + std::to_string(tries + 1) + " on " +
                             execution_site() + ": ";
    try {
      attempt.forensics = dispatch_trial(spec, watchdog);
      attempt.ok = true;
      return attempt;
    } catch (const std::exception& e) {
      attempt.error = site + e.what();
    } catch (...) {
      attempt.error = site + "unknown internal error";
    }
    if (tries >= options_.max_trial_retries) {
      attempt.ok = false;
      return attempt;
    }
    ++attempt.retries;
    total_retries_.fetch_add(1, std::memory_order_relaxed);
    if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
      static auto& retries = rec.counter("fastfit_trial_retries_total",
                                         "Guarded-trial internal retries");
      retries.add();
    }
    // Exponential backoff: transient failures (OOM pressure, fd
    // exhaustion) need breathing room, not an immediate identical retry.
    const auto backoff = std::min<std::chrono::milliseconds>(
        250ms, std::chrono::milliseconds(5) * (1u << std::min(tries, 6u)));
    std::this_thread::sleep_for(backoff);
  }
}

bool Campaign::lanes_hold_point_state() const {
  return options_.isolation == IsolationMode::Process && options_.snapshots;
}

std::size_t Campaign::parallel_trials() const noexcept {
  return resolve_parallel_trials(options_.max_parallel_trials);
}

std::chrono::milliseconds Campaign::fault_free_budget() const {
  return std::max<std::chrono::milliseconds>(
      30'000ms, watchdog_ * kWatchdogEscalation);
}

std::vector<PointResult> Campaign::measure_impl(
    std::span<const InjectionPoint> points, std::uint32_t trials,
    std::size_t pool) {
  if (!profiled_) throw InternalError("Campaign: profile() not run");
  for (const auto& point : points) {
    if (point.family == mpi::SiteFamily::P2p) {
      inject::check_p2p_fault_model(point.fault);
    }
  }
  measuring_.fetch_add(1, std::memory_order_acq_rel);
  struct MeasuringGuard {
    std::atomic<int>& flag;
    ~MeasuringGuard() { flag.fetch_sub(1, std::memory_order_acq_rel); }
  } measuring_guard{measuring_};

  tel::ScopedSpan batch_span("measure-batch");
  batch_span.arg("points", std::to_string(points.size()));
  batch_span.arg("trials", std::to_string(trials));
  batch_span.arg("pool", std::to_string(pool));
  batch_span.arg("isolation", to_string(options_.isolation));

  // Process isolation: fork the lane servers now, from the quietest
  // moment this measure has — before the trial pool spawns threads, and
  // after deriving the snapshot cuts so every worker inherits them
  // instead of deriving them per child.
  std::unique_ptr<ProcPool> proc_pool;
  if (options_.isolation == IsolationMode::Process) {
    warm_snapshots(points);
    ProcPool::Options pool_options;
    pool_options.lanes = std::max<std::size_t>(1, pool);
    pool_options.respawn_budget = pool_options.lanes * 2 + 2;
    // Forked servers may have inherited a recorder mutex mid-lock from
    // some other supervisor thread; worker-side telemetry is lost either
    // way (parent-side sinks carry the counters that matter), so turn
    // the recorder off outright in the worker tree.
    pool_options.child_init = [] { tel::Recorder::instance().disable(); };
    // With snapshots on, exact-trigger trials that cannot replay an op
    // log fork at the cut; replayable ones replay in their fresh child
    // (docs/snapshot.md).
    if (options_.snapshots) {
      pool_options.cut_template = [this](const procpool::WorkItem& item,
                                         const procpool::Park& park) {
        return worker_reply([&] {
          return execute_trial(item.spec, watchdog_of(item), nullptr,
                               &park);
        });
      };
    }
    proc_pool = std::make_unique<ProcPool>(
        pool_options, [this](const procpool::WorkItem& item) {
          return worker_reply([&] {
            return run_trial(item.spec, watchdog_of(item));
          });
        });
    active_pool_.store(proc_pool.get(), std::memory_order_release);
  }
  struct PoolGuard {
    std::atomic<ProcPool*>& slot;
    ~PoolGuard() { slot.store(nullptr, std::memory_order_release); }
  } pool_guard{active_pool_};

  // The scheduler owns the (point, trial) job matrix — replay, concurrent
  // execution, escalated re-confirmation, deterministic aggregation.
  // Campaign contributes the engine (TrialRunner) and the observers: the
  // report accumulator, the metrics sink, and (when attached) the journal
  // write-through.
  SchedulerConfig scheduler_config;
  scheduler_config.pool = pool;
  TrialScheduler scheduler(*this, scheduler_config);

  ResultAccumulator accumulator(points);
  TelemetrySink telemetry_sink(options_.extended_outcomes());
  std::optional<JournalSink> journal_sink;
  std::vector<OutcomeSink*> sinks{&accumulator, &telemetry_sink};
  if (journal_) {
    journal_sink.emplace(*journal_, points);
    sinks.push_back(&*journal_sink);
  }
  const auto batch = scheduler.run(points, trials, journal_.get(), sinks);

  // Fold the batch's resilience activity into the campaign-wide health
  // counters.
  replayed_trials_.fetch_add(batch.replayed, std::memory_order_relaxed);
  deterministic_deadlocks_.fetch_add(batch.deterministic_deadlocks,
                                     std::memory_order_relaxed);
  confirmations_.fetch_add(batch.confirmations, std::memory_order_relaxed);
  quarantined_points_.fetch_add(batch.quarantined_points,
                                std::memory_order_relaxed);

  return accumulator.take();
}

PointResult Campaign::measure(const InjectionPoint& point,
                              std::uint32_t trials) {
  const InjectionPoint points[1] = {point};
  auto results = measure_impl(
      std::span<const InjectionPoint>(points, 1), trials, /*pool=*/1);
  return std::move(results.front());
}

PointResult Campaign::measure(const InjectionPoint& point) {
  return measure(point, options_.trials_per_point);
}

std::vector<PointResult> Campaign::measure_many(
    std::span<const InjectionPoint> points, std::uint32_t trials) {
  return measure_impl(points, trials, parallel_trials());
}

std::vector<PointResult> Campaign::measure_many(
    std::span<const InjectionPoint> points) {
  return measure_many(points, options_.trials_per_point);
}

}  // namespace fastfit::core
