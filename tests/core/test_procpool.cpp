// Process-isolated trial execution: the fork-server pool (core/procpool)
// and its campaign integration behind --isolation process.
//
// Unit tests drive ProcPool directly with synthetic trial functions
// (echo, contained error, raise(signo), sleep) to pin the wire protocol,
// the death taxonomy (SignalDeath / LeaseExpired / LaneFailure), lane
// respawn, and the degradation ladder. Campaign-level tests require the
// process backend to be byte-identical to the thread backend for
// non-signal fault models (serial, pooled, and journal resume) and to
// classify genuine worker signal deaths as SEG_FAULT — with the signal
// number and rusage in the journal's forensic field — without losing the
// campaign.
//
// Fixture names deliberately avoid the CI sanitizer-job regexes: these
// suites fork, which is the address-sanitizer job's surface (ProcPool|
// ProcessIsolation there), not the thread-sanitizer job's.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "apps/registry.hpp"
#include "core/campaign.hpp"
#include "core/procpool.hpp"
#include "inject/fault_model.hpp"
#include "inject/outcome.hpp"

namespace fastfit::core {
namespace {

using procpool::TrialReply;
using procpool::WorkItem;

constexpr auto kSegFault = static_cast<std::size_t>(inject::Outcome::SegFault);

WorkItem sample_item() {
  WorkItem item;
  item.site_id = 42;
  item.rank = -3;  // negative ranks must survive the wire encoding
  item.invocation = 7;
  item.param = 2;
  item.fault = inject::FaultModelSpec::parse("single-bit-flip@prob=0.25");
  item.trial = 11;
  item.watchdog_ms = 1234;
  return item;
}

// ---------------------------------------------------------------------------
// ProcPool unit tests: synthetic trial functions, no campaign involved.
// ---------------------------------------------------------------------------

TEST(ProcPool, CompletedReplyRoundTripsEveryField) {
  ProcPool::Options opts;
  opts.lanes = 1;
  // The child echoes the decoded work item back through the autopsy, so
  // this also pins the WorkItem wire encoding end to end.
  ProcPool pool(opts, [](const WorkItem& item) {
    TrialReply reply;
    reply.ok = true;
    reply.outcome = inject::Outcome::WrongAns;
    reply.deterministic_hang = true;
    std::ostringstream echo;
    echo << item.site_id << '/' << item.rank << '/' << item.invocation << '/'
         << static_cast<int>(item.param) << '/' << item.fault.canonical()
         << '/' << item.trial << '/' << item.watchdog_ms;
    reply.autopsy = echo.str();
    return reply;
  });

  const auto result = pool.run(sample_item(), std::chrono::seconds(30));
  ASSERT_EQ(result.kind, ProcPool::Result::Kind::Completed);
  EXPECT_TRUE(result.reply.ok);
  EXPECT_EQ(result.reply.outcome, inject::Outcome::WrongAns);
  EXPECT_TRUE(result.reply.deterministic_hang);
  EXPECT_EQ(result.reply.autopsy, "42/-3/7/2/single-bit-flip@prob=0.25/11/1234");
  EXPECT_EQ(pool.stats().trials_dispatched, 1u);
  EXPECT_EQ(pool.stats().signal_deaths, 0u);
}

TEST(ProcPool, ContainedErrorTravelsThroughReply) {
  ProcPool::Options opts;
  opts.lanes = 1;
  ProcPool pool(opts, [](const WorkItem&) {
    TrialReply reply;
    reply.ok = false;
    reply.error = "synthetic contained failure";
    return reply;
  });
  const auto result = pool.run(sample_item(), std::chrono::seconds(30));
  ASSERT_EQ(result.kind, ProcPool::Result::Kind::Completed);
  EXPECT_FALSE(result.reply.ok);
  EXPECT_EQ(result.reply.error, "synthetic contained failure");
}

TEST(ProcPool, SignalMatrixReportsSignalDeathWithRusage) {
  // One pool, four trials, each raising a different genuine signal in the
  // trial child; the supervisor must survive all of them and report the
  // exact signal number.
  ProcPool::Options opts;
  opts.lanes = 1;
  ProcPool pool(opts, [](const WorkItem& item) {
    // Default disposition, as the injector's signal models use: a handler
    // inherited from the test process (a sanitizer's) must not catch it.
    std::signal(static_cast<int>(item.site_id), SIG_DFL);
    std::raise(static_cast<int>(item.site_id));
    TrialReply reply;  // unreachable: the raise kills this child
    reply.ok = false;
    reply.error = "survived raise";
    return reply;
  });

  for (const int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
    WorkItem item = sample_item();
    item.site_id = static_cast<std::uint32_t>(signo);
    const auto result = pool.run(item, std::chrono::seconds(30));
    ASSERT_EQ(result.kind, ProcPool::Result::Kind::SignalDeath)
        << "signal " << signo;
    EXPECT_EQ(result.signal, signo);
  }
  EXPECT_EQ(pool.stats().signal_deaths, 4u);
  // A signal death is a datum, not a lane loss: the server survives, so
  // no respawns were needed.
  EXPECT_EQ(pool.stats().respawns, 0u);
  EXPECT_FALSE(pool.degraded());
}

TEST(ProcPool, LeaseExpiryKillsLaneAndRespawns) {
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 2;
  ProcPool pool(opts, [](const WorkItem& item) {
    if (item.trial == 999) {  // the wedged trial: sleep past any lease
      std::this_thread::sleep_for(std::chrono::seconds(60));
    }
    TrialReply reply;
    reply.ok = true;
    reply.outcome = inject::Outcome::Success;
    return reply;
  });

  WorkItem wedged = sample_item();
  wedged.trial = 999;
  const auto expired = pool.run(wedged, std::chrono::milliseconds(200));
  ASSERT_EQ(expired.kind, ProcPool::Result::Kind::LeaseExpired);
  EXPECT_NE(expired.error.find("lease"), std::string::npos);
  EXPECT_EQ(pool.stats().lease_kills, 1u);

  // The lane respawns on next use and serves normally.
  const auto after = pool.run(sample_item(), std::chrono::seconds(30));
  ASSERT_EQ(after.kind, ProcPool::Result::Kind::Completed);
  EXPECT_TRUE(after.reply.ok);
  EXPECT_EQ(pool.stats().respawns, 1u);
  EXPECT_FALSE(pool.degraded());
}

TEST(ProcPool, ServerKilledMidTrialIsLaneFailureThenRecovers) {
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 2;
  ProcPool pool(opts, [](const WorkItem& item) {
    if (item.trial == 999) {
      std::this_thread::sleep_for(std::chrono::seconds(60));
    }
    TrialReply reply;
    reply.ok = true;
    reply.outcome = inject::Outcome::Success;
    return reply;
  });

  const auto pids = pool.server_pids();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_GT(pids[0], 0);

  // Kill the fork-server while its trial child is mid-trial (sleeping).
  std::thread killer([pid = pids[0]] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ::kill(pid, SIGKILL);
  });
  WorkItem wedged = sample_item();
  wedged.trial = 999;
  const auto lost = pool.run(wedged, std::chrono::seconds(30));
  killer.join();
  ASSERT_EQ(lost.kind, ProcPool::Result::Kind::LaneFailure);
  EXPECT_EQ(pool.stats().lane_failures, 1u);

  const auto after = pool.run(sample_item(), std::chrono::seconds(30));
  ASSERT_EQ(after.kind, ProcPool::Result::Kind::Completed);
  EXPECT_TRUE(after.reply.ok);
  EXPECT_EQ(pool.stats().respawns, 1u);
}

TEST(ProcPool, RespawnBudgetExhaustionDegradesPool) {
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 0;  // the first lane loss is terminal
  ProcPool pool(opts, [](const WorkItem&) {
    TrialReply reply;
    reply.ok = true;
    reply.outcome = inject::Outcome::Success;
    return reply;
  });
  const auto pids = pool.server_pids();
  ASSERT_EQ(pids.size(), 1u);
  ::kill(pids[0], SIGKILL);

  // First run discovers the dead server (LaneFailure), second finds the
  // lane down with no respawn budget left: the pool declares degraded.
  const auto first = pool.run(sample_item(), std::chrono::seconds(30));
  EXPECT_EQ(first.kind, ProcPool::Result::Kind::LaneFailure);
  const auto second = pool.run(sample_item(), std::chrono::seconds(30));
  ASSERT_EQ(second.kind, ProcPool::Result::Kind::LaneFailure);
  EXPECT_NE(second.error.find("degraded"), std::string::npos);
  EXPECT_TRUE(pool.degraded());
}

TEST(ProcPool, IsolationModeParsesAndRejects) {
  EXPECT_EQ(parse_isolation_mode("thread"), IsolationMode::Thread);
  EXPECT_EQ(parse_isolation_mode("process"), IsolationMode::Process);
  EXPECT_STREQ(to_string(IsolationMode::Thread), "thread");
  EXPECT_STREQ(to_string(IsolationMode::Process), "process");
  EXPECT_THROW(parse_isolation_mode("fork"), ConfigError);
  EXPECT_THROW(parse_isolation_mode(""), ConfigError);
}

TEST(ProcPool, DescribeWorkerDeathNamesSignalAndRusage) {
  const auto text = describe_worker_death(SIGSEGV, 3'000, 1'000, 2048);
  EXPECT_EQ(text,
            "worker killed by SIGSEGV (signal 11); rusage: user=3ms sys=1ms "
            "maxrss=2048KiB");
  EXPECT_NE(describe_worker_death(SIGBUS, 0, 0, 0).find("SIGBUS"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Campaign integration: --isolation process end to end.
// ---------------------------------------------------------------------------

CampaignOptions isolation_options(IsolationMode mode) {
  CampaignOptions opts;
  opts.nranks = 4;
  opts.trials_per_point = 2;
  opts.seed = 20260808;
  opts.max_parallel_trials = 1;
  opts.isolation = mode;
  return opts;
}

std::vector<PointResult> run_points(const apps::Workload& workload,
                                    const CampaignOptions& opts,
                                    std::size_t npoints,
                                    CampaignHealth* health_out = nullptr) {
  Campaign campaign(workload, opts);
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  const auto n = std::min(npoints, points.size());
  auto results = campaign.measure_many(
      std::span<const InjectionPoint>(points.data(), n),
      opts.trials_per_point);
  if (health_out != nullptr) *health_out = campaign.health();
  EXPECT_TRUE(campaign.health().clean());
  return results;
}

void expect_same_counts(const std::vector<PointResult>& a,
                        const std::vector<PointResult>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].counts, b[i].counts) << label << " point " << i;
    EXPECT_EQ(a[i].trials, b[i].trials) << label << " point " << i;
  }
}

TEST(ProcessIsolation, MatchesThreadBackendSerially) {
  const auto workload = apps::make_workload("LU");
  const auto expected =
      run_points(*workload, isolation_options(IsolationMode::Thread), 4);
  CampaignHealth health;
  const auto actual = run_points(
      *workload, isolation_options(IsolationMode::Process), 4, &health);
  expect_same_counts(expected, actual, "process serial");
  // Non-signal models must not lose a single worker.
  EXPECT_EQ(health.worker_deaths, 0u);
  EXPECT_EQ(health.isolation_fallbacks, 0u);
}

TEST(ProcessIsolation, MatchesThreadBackendPooled) {
  const auto workload = apps::make_workload("LU");
  const auto expected =
      run_points(*workload, isolation_options(IsolationMode::Thread), 4);
  auto pooled = isolation_options(IsolationMode::Process);
  pooled.max_parallel_trials = 4;
  expect_same_counts(expected, run_points(*workload, pooled, 4),
                     "process pool-4");
}

TEST(ProcessIsolation, NonParameterModelMatchesAcrossBackends) {
  // Rank death exercises the non-replayable (snapshot-bypassing) trial
  // path inside the worker children.
  const auto workload = apps::make_workload("LU");
  auto thread_opts = isolation_options(IsolationMode::Thread);
  thread_opts.fault_models = {inject::FaultModelSpec::parse("rank-death")};
  const auto expected = run_points(*workload, thread_opts, 3);

  auto process_opts = thread_opts;
  process_opts.isolation = IsolationMode::Process;
  expect_same_counts(expected, run_points(*workload, process_opts, 3),
                     "rank-death process");
}

TEST(CrashResume, ProcessBackendResumesBitIdentical) {
  const auto workload = apps::make_workload("LU");
  const auto opts = isolation_options(IsolationMode::Process);
  // Baseline from the thread backend: resume parity must hold not just
  // run-to-run but across isolation modes.
  const auto expected =
      run_points(*workload, isolation_options(IsolationMode::Thread), 4);

  const std::string path = ::testing::TempDir() + "fastfit_procpool_resume.jsonl";
  std::remove(path.c_str());
  {
    Campaign partial(*workload, opts);
    partial.profile();
    partial.attach_journal(path, JournalMode::Create);
    const auto& points = partial.enumeration().points;
    ASSERT_GE(points.size(), 4u);
    partial.measure_many(std::span<const InjectionPoint>(points.data(), 2),
                         opts.trials_per_point);
    partial.detach_journal();
  }

  Campaign resumed(*workload, opts);
  resumed.profile();
  resumed.attach_journal(path, JournalMode::Resume);
  const auto& points = resumed.enumeration().points;
  const auto results = resumed.measure_many(
      std::span<const InjectionPoint>(points.data(), 4),
      opts.trials_per_point);
  EXPECT_GT(resumed.health().replayed_trials, 0u);
  expect_same_counts(expected, results, "process resume");
  std::remove(path.c_str());
}

TEST(SignalMatrix, GenuineSignalsClassifySegFault) {
  // The real-crash acceptance test: every signal-family fault model kills
  // its worker child with a genuine signal, and every such death must be
  // classified SEG_FAULT without losing the campaign.
  const auto workload = apps::make_workload("EP");
  for (const char* model : {"sigsegv", "sigbus", "sigfpe", "sigabrt"}) {
    auto opts = isolation_options(IsolationMode::Process);
    opts.fault_models = {inject::FaultModelSpec::parse(model)};
    CampaignHealth health;
    const auto results = run_points(*workload, opts, 2, &health);
    ASSERT_FALSE(results.empty()) << model;
    std::uint64_t total = 0;
    for (const auto& r : results) {
      EXPECT_EQ(r.counts[kSegFault], r.trials) << model;
      total += r.trials;
    }
    EXPECT_EQ(health.worker_deaths, total) << model;
    EXPECT_EQ(health.quarantined_points, 0u) << model;
  }
}

TEST(SignalMatrix, JournalCarriesSignalForensics) {
  // The journal's forensic field must name the signal and the child's
  // rusage — that is what makes a real crash diagnosable after the fact.
  const auto workload = apps::make_workload("EP");
  auto opts = isolation_options(IsolationMode::Process);
  opts.fault_models = {inject::FaultModelSpec::parse("sigsegv")};

  const std::string path =
      ::testing::TempDir() + "fastfit_signal_forensics.jsonl";
  std::remove(path.c_str());
  {
    Campaign campaign(*workload, opts);
    campaign.profile();
    campaign.attach_journal(path, JournalMode::Create);
    const auto& points = campaign.enumeration().points;
    ASSERT_FALSE(points.empty());
    campaign.measure_many(std::span<const InjectionPoint>(points.data(), 1),
                          opts.trials_per_point);
    EXPECT_TRUE(campaign.health().clean());
    campaign.detach_journal();
  }
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("worker killed by SIGSEGV (signal 11)"),
            std::string::npos);
  EXPECT_NE(contents.str().find("rusage:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SignalMatrix, SignalModelsRequireProcessIsolation) {
  // In-process, a genuine SIGSEGV would kill the campaign: the engine
  // must refuse the configuration up front, at construction.
  const auto workload = apps::make_workload("EP");
  auto opts = isolation_options(IsolationMode::Thread);
  opts.fault_models = {inject::FaultModelSpec::parse("sigsegv")};
  EXPECT_THROW(Campaign c(*workload, opts), ConfigError);
}

}  // namespace
}  // namespace fastfit::core
