// Crash-resilient campaign execution: the retrying trial guard with
// quarantine, kill-and-resume through the trial journal, and the
// escalated INF_LOOP re-confirmation (docs/resilience.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "core/campaign.hpp"
#include "core/scheduler.hpp"
#include "support/error.hpp"

namespace fastfit::core {
namespace {

using namespace std::chrono_literals;

// A small SPMD kernel (bcast + allreduce) whose failure behaviour the
// test controls from outside:
//  - `fail_budget` > 0: rank 0 throws a std::runtime_error at job start —
//    an *internal* error (not a simulated fault), the kind the trial
//    guard must retry and quarantine.
//  - `hang_from`/`hang_until`: rank 0 skips the collectives for jobs
//    whose ordinal falls in [hang_from, hang_until], so its peers block
//    on an exited rank — a deadlock the world proves at quiescence. With
//    `spin` set, rank 0 instead loops on check_deadline() until the
//    watchdog fires — livelock, which only the wall clock can end.
// Job ordinals count every World execution (the fault-free run in
// profile() = 1, trials from 2), assigned by rank 0 at entry.
class SupervisedWorkload final : public apps::Workload {
 public:
  std::string name() const override { return "supervised"; }

  std::uint64_t run_rank(apps::AppContext& ctx) const override {
    auto& mpi = ctx.mpi;
    auto& tr = ctx.trace;
    bool hang = false;
    if (mpi.rank() == 0) {
      const auto job = jobs.fetch_add(1, std::memory_order_relaxed) + 1;
      int budget = fail_budget.load(std::memory_order_relaxed);
      while (budget > 0 &&
             !fail_budget.compare_exchange_weak(budget, budget - 1)) {
      }
      if (budget > 0) throw std::runtime_error("synthetic internal flake");
      hang = job >= hang_from.load(std::memory_order_relaxed) &&
             job <= hang_until.load(std::memory_order_relaxed);
    }

    tr.set_phase(trace::ExecPhase::Compute);
    trace::FunctionScope scope(tr, "kernel");
    if (hang && spin.load(std::memory_order_relaxed)) {
      for (;;) mpi.check_deadline();
    }
    if (hang) return 0;  // silent early exit: peers block on an exited rank
    const double seeded = mpi.bcast_value(
        mpi.rank() == 0 ? static_cast<double>(ctx.input_seed % 97) : 0.0, 0);
    const double total =
        mpi.allreduce_value(seeded + mpi.rank(), mpi::kSum);
    const double values[2] = {seeded, total};
    return apps::digest_doubles(values, 9);
  }

  mutable std::atomic<int> jobs{0};
  mutable std::atomic<int> fail_budget{0};
  mutable std::atomic<int> hang_from{0};
  mutable std::atomic<int> hang_until{-1};
  mutable std::atomic<bool> spin{false};
};

CampaignOptions supervised_options() {
  CampaignOptions opts;
  opts.nranks = 4;
  opts.trials_per_point = 4;
  opts.seed = 101;
  opts.max_parallel_trials = 1;
  // These tests script failures by *job ordinal* (the fault-free run in
  // profile() = 1, trials from 2); a scripted trial whose rank 0 skips
  // its collectives would diverge from the prefix recording, so pin
  // replay off here. Snapshot parity has its own suite
  // (test_snapshot_parity.cpp).
  opts.snapshots = false;
  return opts;
}

std::string temp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "fastfit_resilience_" + name;
  std::remove(path.c_str());
  return path;
}

// A send-buffer bit flip corrupts data but can never hang a collective,
// so the escalated re-run of a hang-window trial classifies as
// SUCCESS/WRONG_ANS — never a genuine INF_LOOP.
InjectionPoint sendbuf_point(const Campaign& campaign) {
  const auto& points = campaign.enumeration().points;
  const auto it =
      std::find_if(points.begin(), points.end(), [](const InjectionPoint& p) {
        return p.param == mpi::Param::SendBuf;
      });
  EXPECT_NE(it, points.end());
  return *it;
}

TEST(Resilience, InternalErrorIsRetriedNotFatal) {
  SupervisedWorkload workload;
  auto opts = supervised_options();
  opts.max_trial_retries = 2;
  Campaign campaign(workload, opts);
  campaign.profile();
  ASSERT_FALSE(campaign.enumeration().points.empty());

  // One synthetic flake: the first attempt of the first trial fails, its
  // retry succeeds, and the point's statistics are complete.
  workload.fail_budget.store(1);
  const auto result = campaign.measure(campaign.enumeration().points[0], 3);
  EXPECT_EQ(result.trials, 3u);
  EXPECT_FALSE(result.exec.quarantined);
  EXPECT_EQ(result.exec.retries, 1u);
  EXPECT_EQ(campaign.health().total_retries, 1u);
  EXPECT_EQ(campaign.health().quarantined_points, 0u);
  EXPECT_TRUE(campaign.health().clean());
}

TEST(Resilience, ExhaustedRetriesQuarantineThePointOnly) {
  SupervisedWorkload workload;
  auto opts = supervised_options();
  opts.max_trial_retries = 0;  // quarantine on the first internal error
  Campaign campaign(workload, opts);
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  ASSERT_GE(points.size(), 2u);

  // Exactly one job fails: with serial execution that is point 0's first
  // trial. Point 0 must be quarantined, point 1 measured in full, and the
  // campaign must not abort.
  workload.fail_budget.store(1);
  const InjectionPoint batch[2] = {points[0], points[1]};
  const auto results = campaign.measure_many(
      std::span<const InjectionPoint>(batch, 2), 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].exec.quarantined);
  EXPECT_EQ(results[0].trials, 0u);  // remaining trials were skipped
  // Quarantine errors carry attribution: which attempt, on which lane
  // (the serial path runs inline on the submitting thread).
  EXPECT_EQ(results[0].exec.last_error,
            "attempt 1 on main thread: synthetic internal flake");
  EXPECT_FALSE(results[1].exec.quarantined);
  EXPECT_EQ(results[1].trials, 2u);
  EXPECT_EQ(campaign.health().quarantined_points, 1u);
  EXPECT_FALSE(campaign.health().clean());
}

TEST(Resilience, QuarantineIsRecordedInTheJournal) {
  SupervisedWorkload workload;
  auto opts = supervised_options();
  opts.max_trial_retries = 0;
  Campaign campaign(workload, opts);
  campaign.profile();
  const auto path = temp_journal("quarantine");
  campaign.attach_journal(path, JournalMode::Create);
  workload.fail_budget.store(1);
  const auto result = campaign.measure(campaign.enumeration().points[0], 2);
  ASSERT_TRUE(result.exec.quarantined);
  const auto record =
      campaign.journal()->quarantine(point_key(result.point));
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->error,
            "attempt 1 on main thread: synthetic internal flake");
}

TEST(Resilience, KillAndResumeIsBitIdentical) {
  // The tentpole contract: a campaign killed at an arbitrary trial —
  // including mid-write, leaving a torn final journal line — and resumed
  // from its journal produces per-point outcome counts identical to an
  // uninterrupted campaign.
  const auto workload = apps::make_workload("LU");
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 5;
  opts.seed = 77;

  Campaign baseline(*workload, opts);
  baseline.profile();
  const auto& points = baseline.enumeration().points;
  ASSERT_GE(points.size(), 4u);
  const std::span<const InjectionPoint> batch(points.data(), 4);
  const auto expected = baseline.measure_many(batch, 5);

  const auto path = temp_journal("kill_resume");
  {
    // "Killed" campaign: measures only half the batch before dying.
    Campaign partial(*workload, opts);
    partial.profile();
    partial.attach_journal(path, JournalMode::Create);
    partial.measure_many(batch.subspan(0, 2), 5);
    partial.detach_journal();
  }
  {
    // Simulate SIGKILL mid-write: chop bytes off the journal tail.
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    ASSERT_GT(size, 16L);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), size - 9), 0);
  }

  Campaign resumed(*workload, opts);
  resumed.profile();
  resumed.attach_journal(path, JournalMode::Resume);
  EXPECT_GT(resumed.journal()->loaded_trials(), 0u);
  const auto results = resumed.measure_many(batch, 5);
  EXPECT_GT(resumed.health().replayed_trials, 0u);

  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].counts, expected[i].counts) << "point " << i;
    EXPECT_EQ(results[i].trials, expected[i].trials) << "point " << i;
  }
}

TEST(Resilience, ResumeRefusesChangedSeed) {
  const auto workload = apps::make_workload("LU");
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 4;
  opts.seed = 77;
  const auto path = temp_journal("changed_seed");
  {
    Campaign campaign(*workload, opts);
    campaign.profile();
    campaign.attach_journal(path, JournalMode::Create);
  }
  opts.seed = 78;
  Campaign other(*workload, opts);
  other.profile();
  EXPECT_THROW(other.attach_journal(path, JournalMode::Resume), ConfigError);
  // Create also refuses to clobber the existing journal.
  EXPECT_THROW(other.attach_journal(path, JournalMode::Create), ConfigError);
}

TEST(Resilience, SerialInfLoopIsConfirmedWithEscalatedBudget) {
  SupervisedWorkload workload;
  workload.spin.store(true);  // livelock: only the watchdog can end it
  Campaign campaign(workload, supervised_options());  // serial: pool = 1
  campaign.profile();

  // Job 2 (the only first-pass trial) spins until the watchdog; the
  // escalated re-run (job 3) does not. Serial and parallel campaigns
  // must classify identically, so the confirmation pass runs at every
  // pool size.
  workload.hang_from.store(2);
  workload.hang_until.store(2);
  const auto result = campaign.measure(sendbuf_point(campaign), 1);
  EXPECT_EQ(result.trials, 1u);
  EXPECT_EQ(result.counts[static_cast<std::size_t>(inject::Outcome::InfLoop)],
            0u);
  const auto health = campaign.health();
  EXPECT_EQ(health.watchdog_confirmations, 1u);
  EXPECT_EQ(health.deterministic_deadlocks, 0u);
}

TEST(Resilience, DeterministicDeadlockBypassesWatchdogMachinery) {
  // Same hang window as above, but rank 0 exits early instead of
  // spinning: the early exit is proven a deadlock structurally, so the
  // trial is classified INF_LOOP without an escalated re-run and with a
  // world autopsy attached to the point.
  SupervisedWorkload workload;
  Campaign campaign(workload, supervised_options());
  campaign.profile();

  workload.hang_from.store(2);
  workload.hang_until.store(2);
  const auto result = campaign.measure(sendbuf_point(campaign), 1);
  EXPECT_EQ(result.trials, 1u);
  EXPECT_EQ(result.counts[static_cast<std::size_t>(inject::Outcome::InfLoop)],
            1u);
  EXPECT_NE(result.exec.last_autopsy.find("deterministic deadlock"),
            std::string::npos)
      << result.exec.last_autopsy;
  const auto health = campaign.health();
  EXPECT_EQ(health.deterministic_deadlocks, 1u);
  EXPECT_EQ(health.watchdog_confirmations, 0u);
  EXPECT_TRUE(health.clean());
}

TEST(Resilience, DeterministicFlagAndAutopsyAreJournaled) {
  SupervisedWorkload workload;
  Campaign campaign(workload, supervised_options());
  campaign.profile();
  const auto path = temp_journal("autopsy");
  campaign.attach_journal(path, JournalMode::Create);
  workload.hang_from.store(2);
  workload.hang_until.store(2);
  (void)campaign.measure(sendbuf_point(campaign), 1);
  campaign.detach_journal();

  // The journal line for the hung trial must carry the forensic fields;
  // replay ignores them, so resume stays bit-identical (covered by
  // KillAndResumeIsBitIdentical).
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_NE(contents.find("\"d\":1"), std::string::npos);
  EXPECT_NE(contents.find("deterministic deadlock"), std::string::npos);
}

// Deterministic scripted engine for exercising the scheduler in
// isolation: every outcome is a pure function of (site, trial), every
// successful attempt reports `trial % 2` retries, and exactly one chosen
// (point, trial) fails permanently. A per-call jitter makes pool > 1
// genuinely interleave so the failure races ahead of (and behind) its
// siblings.
class ScriptedRunner final : public TrialRunner {
 public:
  ScriptedRunner(std::uint32_t fail_site, std::uint32_t fail_trial)
      : fail_site_(fail_site), fail_trial_(fail_trial) {}

  Attempt run_guarded(const InjectionPoint& point, std::uint64_t trial,
                      std::chrono::milliseconds) override {
    std::this_thread::sleep_for(
        std::chrono::microseconds((point.site_id * 131 + trial * 37) % 400));
    Attempt attempt;
    if (point.site_id == fail_site_ && trial == fail_trial_) {
      attempt.ok = false;
      attempt.retries = 2;
      attempt.error = "scripted failure";
      return attempt;
    }
    attempt.ok = true;
    attempt.retries = static_cast<std::uint32_t>(trial % 2);
    // % 7: every outcome but REPAIRED. INF_LOOP is among them, so the
    // escalated-confirmation pass runs too (its retries join the point's
    // total).
    attempt.forensics.outcome = static_cast<inject::Outcome>(
        (point.site_id + trial) % (inject::kNumOutcomes - 1));
    return attempt;
  }

  std::chrono::milliseconds watchdog() const override { return 1000ms; }

 private:
  std::uint32_t fail_site_;
  std::uint32_t fail_trial_;
};

// Serializes the full observation stream — every TrialRecord and
// PointStatus field the downstream sinks can see — so two runs compare
// as one string.
struct CaptureSink final : OutcomeSink {
  std::string stream;
  void on_trial(const TrialRecord& record) override {
    stream += "T " + record.key + " #" + std::to_string(record.trial) +
              " o" + std::to_string(static_cast<int>(record.outcome)) +
              (record.replayed ? " R" : "") +
              (record.deterministic ? " D" : "") + "\n";
  }
  void on_point(const PointStatus& status) override {
    stream += "P " + status.key +
              " retries=" + std::to_string(status.retries);
    if (status.quarantined) stream += " quarantined err=" + status.error;
    stream += "\n";
  }
};

TEST(Resilience, SchedulerQuarantineIsPoolOrderIndependent) {
  // Regression: the per-point quarantine state used to be accumulated in
  // arrival order (last-writer-wins error, retries from whichever jobs
  // happened to start before the failure landed), so a pool > 1 batch
  // could report different skipped sets, retries, and error text than
  // the serial run — the intermittent results_identical_to_serial: false
  // in the throughput bench. The scheduler now reconstructs the serial
  // stream from per-slot records keyed by the minimum failed ordinal.
  std::vector<InjectionPoint> points(6);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].site_id = static_cast<std::uint32_t>(i);
    points[i].kind = mpi::CollectiveKind::Bcast;
    points[i].site_location = "synthetic:" + std::to_string(i);
    points[i].rank = 0;
    points[i].invocation = 1;
    points[i].param = mpi::Param::SendBuf;
  }
  const std::uint32_t trials = 8;

  const auto run = [&](std::size_t pool) {
    ScriptedRunner runner(/*fail_site=*/3, /*fail_trial=*/2);
    SchedulerConfig config;
    config.pool = pool;
    TrialScheduler scheduler(runner, config);
    CaptureSink sink;
    OutcomeSink* sinks[] = {&sink};
    const auto stats = scheduler.run(points, trials, nullptr, sinks);
    EXPECT_EQ(stats.quarantined_points, 1u);
    EXPECT_GT(stats.confirmations, 0u);
    return sink.stream;
  };

  const auto serial = run(1);
  // The serial stream itself: point 3 executed trials 0 and 1 (retries
  // 0 + 1), failed at trial 2 (2 retries), skipped the rest.
  const std::string quarantined_line =
      "P " + point_key(points[3]) +
      " retries=3 quarantined err=scripted failure";
  EXPECT_NE(serial.find(quarantined_line), std::string::npos) << serial;
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(run(8), serial) << "pool-8 repeat " << repeat;
  }
}

}  // namespace
}  // namespace fastfit::core
