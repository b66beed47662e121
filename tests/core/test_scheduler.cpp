// TrialScheduler lanes and claim order: which lane runs which (point,
// trial), on which thread, in what order, and the parallel == serial
// contract of Campaign::measure_many. A fake TrialRunner records every
// call; the report-level parity of the two orders lives in
// test_resilience.cpp and test_procpool.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "core/scheduler.hpp"

namespace fastfit::core {
namespace {

using namespace std::chrono_literals;

/// One run_guarded call: the lane (-1 off the lane threads) and the
/// (point, trial) it ran.
struct Call {
  int worker;
  std::uint32_t point;
  std::uint64_t trial;
  bool operator==(const Call&) const = default;
};

/// Holds a call until it returns true for the calls recorded so far
/// (the held call included); re-checked after every call.
using Gate = std::function<bool(const std::vector<Call>& calls,
                                const Call& self)>;

/// Records every call. Outcomes are a pure function of (point, trial);
/// one chosen (point, trial) fails permanently. An optional gate holds
/// calls back (for at most 10 s) to pin which lane holds which point.
class RecordingRunner final : public TrialRunner {
 public:
  RecordingRunner(bool affine, std::uint32_t fail_point,
                  std::uint64_t fail_trial, Gate gate = {})
      : affine_(affine),
        fail_point_(fail_point),
        fail_trial_(fail_trial),
        gate_(std::move(gate)) {}

  Attempt run_guarded(const InjectionPoint& point, std::uint64_t trial,
                      std::chrono::milliseconds) override {
    const Call self{current_worker(), point.site_id, trial};
    {
      std::unique_lock<std::mutex> lock(mutex_);
      calls_.push_back(self);
      called_.notify_all();
      if (gate_) {
        called_.wait_for(lock, 10s, [&] { return gate_(calls_, self); });
      }
    }
    Attempt attempt;
    if (point.site_id == fail_point_ && trial == fail_trial_) {
      attempt.error = "scripted failure";
      return attempt;
    }
    attempt.ok = true;
    // Below INF_LOOP, so no escalated confirmation joins the calls.
    attempt.forensics.outcome = static_cast<inject::Outcome>(
        (point.site_id + trial) %
        static_cast<std::uint64_t>(inject::Outcome::InfLoop));
    return attempt;
  }

  std::chrono::milliseconds watchdog() const override { return 1000ms; }
  bool lanes_hold_point_state() const override { return affine_; }

  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }

 private:
  bool affine_;
  std::uint32_t fail_point_;
  std::uint64_t fail_trial_;
  Gate gate_;
  mutable std::mutex mutex_;
  std::condition_variable called_;
  std::vector<Call> calls_;
};

/// The observation stream, one line per record.
struct StreamSink final : OutcomeSink {
  std::string stream;
  void on_trial(const TrialRecord& r) override {
    stream += "T " + r.key + " #" + std::to_string(r.trial) + " o" +
              std::to_string(static_cast<int>(r.outcome)) +
              (r.replayed ? " R" : "") + "\n";
  }
  void on_point(const PointStatus& s) override {
    stream += "P " + s.key + (s.quarantined ? " Q " + s.error : "") + "\n";
  }
};

std::vector<InjectionPoint> make_points(std::size_t n) {
  std::vector<InjectionPoint> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    points[i].site_id = static_cast<std::uint32_t>(i);
    points[i].kind = mpi::CollectiveKind::Bcast;
    points[i].site_location = "synthetic:" + std::to_string(i);
    points[i].invocation = 1;
    points[i].param = mpi::Param::SendBuf;
  }
  return points;
}

/// A fresh journal that already holds `replayed` (point, trial) outcomes.
std::unique_ptr<TrialJournal> journal_with(
    const std::string& name, const std::vector<InjectionPoint>& points,
    const std::vector<std::pair<std::size_t, std::uint32_t>>& replayed) {
  const std::string path = ::testing::TempDir() + "fastfit_sched_" + name;
  std::remove(path.c_str());
  JournalHeader header;
  header.workload = "synthetic";
  auto journal = TrialJournal::create(path, header);
  for (const auto& [i, t] : replayed) {
    journal->record_trial(point_key(points[i]), t, inject::Outcome::Success);
  }
  return journal;
}

std::string run(RecordingRunner& runner, std::size_t pool,
                const std::vector<InjectionPoint>& points,
                std::uint32_t trials, const TrialJournal* replay = nullptr) {
  SchedulerConfig config;
  config.pool = pool;
  TrialScheduler scheduler(runner, config);
  StreamSink sink;
  OutcomeSink* sinks[] = {&sink};
  scheduler.run(points, trials, replay, sinks);
  return sink.stream;
}

TEST(TrialScheduler, PoolOneRunsInPointMajorOrderInBothModes) {
  const auto points = make_points(3);
  const auto journal = journal_with("pool1", points, {{2, 1}});
  // Point 1 fails at trial 3 (4 and 5 lie beyond it); point 2's trial 1
  // is replayed from the journal.
  std::vector<Call> want;
  for (std::uint32_t t = 0; t < 6; ++t) want.push_back({-1, 0, t});
  for (std::uint32_t t = 0; t <= 3; ++t) want.push_back({-1, 1, t});
  for (std::uint32_t t : {0, 2, 3, 4, 5}) want.push_back({-1, 2, t});
  for (const bool affine : {false, true}) {
    RecordingRunner runner(affine, /*fail_point=*/1, /*fail_trial=*/3);
    run(runner, 1, points, 6, journal.get());
    EXPECT_EQ(runner.calls(), want) << "affine=" << affine;
  }
}

TEST(TrialScheduler, AffineLanesStayOnTheirPointUntilTheTailJoins) {
  constexpr std::size_t kPool = 4;
  constexpr std::uint32_t kTrials = 6;
  const auto points = make_points(12);
  RecordingRunner serial(true, /*fail_point=*/99, 0);
  const auto want = run(serial, 1, points, kTrials);

  for (int repeat = 0; repeat < 3; ++repeat) {
    RecordingRunner runner(true, /*fail_point=*/99, 0);
    EXPECT_EQ(run(runner, kPool, points, kTrials), want);
    const auto calls = runner.calls();
    ASSERT_EQ(calls.size(), points.size() * kTrials);

    // Per worker, the points it visits form contiguous blocks (a lane
    // never comes back to a point it left) and each block's trials
    // increase.
    std::map<int, std::vector<Call>> by_worker;
    for (const auto& call : calls) by_worker[call.worker].push_back(call);
    std::set<std::pair<int, std::uint32_t>> blocks;
    std::map<std::uint32_t, std::set<int>> workers_on;
    std::set<std::pair<std::uint32_t, std::uint64_t>> ran;
    for (const auto& call : calls) {
      EXPECT_GE(call.worker, 0);
      EXPECT_TRUE(ran.insert({call.point, call.trial}).second)
          << "point " << call.point << " trial " << call.trial << " twice";
      workers_on[call.point].insert(call.worker);
    }
    for (const auto& [worker, seq] : by_worker) {
      for (std::size_t k = 0; k < seq.size(); ++k) {
        const bool same = k > 0 && seq[k].point == seq[k - 1].point;
        if (same) {
          EXPECT_GT(seq[k].trial, seq[k - 1].trial) << "worker " << worker;
        } else {
          EXPECT_TRUE(blocks.insert({worker, seq[k].point}).second)
              << "worker " << worker << " came back to point "
              << seq[k].point;
        }
      }
    }
    // Only points some lane held when the last point was taken can be
    // joined, so at most one per lane; every join is one more block.
    std::size_t shared = 0;
    for (const auto& [point, workers] : workers_on) {
      shared += workers.size() > 1;
    }
    EXPECT_LE(shared, kPool);
    EXPECT_LE(blocks.size(), points.size() + kPool * kPool);
  }
}

TEST(TrialScheduler, ReplayedAndBeyondFailureTrialsNeverRun) {
  const auto points = make_points(4);
  const auto journal =
      journal_with("never_run", points, {{1, 0}, {1, 4}, {3, 5}});
  RecordingRunner serial(true, /*fail_point=*/0, /*fail_trial=*/2);
  const auto want = run(serial, 1, points, 6, journal.get());
  // Trials of other points wait until the lane that ran point 0 has
  // moved on, so no lane can join point 0 ahead of its failure.
  const Gate point_0_done = [](const std::vector<Call>& calls,
                               const Call& self) {
    if (self.point == 0) return true;
    std::optional<int> owner;
    for (const auto& call : calls) {
      if (call.point == 0) owner = call.worker;
      if (call.point != 0 && owner && call.worker == *owner) return true;
    }
    return false;
  };
  for (int repeat = 0; repeat < 3; ++repeat) {
    RecordingRunner runner(true, /*fail_point=*/0, /*fail_trial=*/2,
                           point_0_done);
    EXPECT_EQ(run(runner, 2, points, 6, journal.get()), want);
    std::set<std::pair<std::uint32_t, std::uint64_t>> ran;
    for (const auto& call : runner.calls()) ran.insert({call.point, call.trial});
    for (std::uint64_t t = 3; t < 6; ++t) EXPECT_FALSE(ran.count({0, t}));
    EXPECT_FALSE(ran.count({1, 0}));
    EXPECT_FALSE(ran.count({1, 4}));
    EXPECT_FALSE(ran.count({3, 5}));
    EXPECT_EQ(ran.size(), 3u + 4u + 6u + 5u);
  }
}

TEST(TrialScheduler, TailLaneJoinsThePointWithTheMostTrialsLeft) {
  // Point 1 has only trials 0 and 1 to run (2-5 are replayed). Every call
  // waits until three lanes have called, so the first two claims take
  // the two points and the third lane's first claim is the join: point
  // 0, with 5 trials left against point 1's 1.
  const auto points = make_points(2);
  const auto journal =
      journal_with("join", points, {{1, 2}, {1, 3}, {1, 4}, {1, 5}});
  RecordingRunner serial(true, /*fail_point=*/99, 0);
  const auto want = run(serial, 1, points, 6, journal.get());
  const Gate three_lanes = [](const std::vector<Call>& calls, const Call&) {
    std::set<int> workers;
    for (const auto& call : calls) workers.insert(call.worker);
    return workers.size() >= 3;
  };
  for (int repeat = 0; repeat < 3; ++repeat) {
    RecordingRunner runner(true, /*fail_point=*/99, 0, three_lanes);
    EXPECT_EQ(run(runner, 3, points, 6, journal.get()), want);
    const auto calls = runner.calls();
    ASSERT_GE(calls.size(), 3u);
    std::set<std::pair<std::uint32_t, std::uint64_t>> first_three;
    std::set<int> workers;
    for (std::size_t k = 0; k < 3; ++k) {
      first_three.insert({calls[k].point, calls[k].trial});
      workers.insert(calls[k].worker);
    }
    const std::set<std::pair<std::uint32_t, std::uint64_t>> claims = {
        {0, 0}, {1, 0}, {0, 1}};
    EXPECT_EQ(first_three, claims);
    EXPECT_EQ(workers.size(), 3u);
  }
}

/// Records the lane and OS thread of every call; one (point, trial)
/// throws instead of returning an attempt.
class LaneRunner final : public TrialRunner {
 public:
  explicit LaneRunner(std::uint32_t throw_point = 99)
      : throw_point_(throw_point) {}

  Attempt run_guarded(const InjectionPoint& point, std::uint64_t trial,
                      std::chrono::milliseconds) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      calls_.push_back({current_worker(), point.site_id, trial});
      threads_[current_worker()].insert(std::this_thread::get_id());
    }
    if (point.site_id == throw_point_ && trial == 1) {
      throw std::runtime_error("boom");
    }
    Attempt attempt;
    attempt.ok = true;
    return attempt;
  }
  std::chrono::milliseconds watchdog() const override { return 1000ms; }

  std::vector<Call> calls_;
  std::map<int, std::set<std::thread::id>> threads_;

 private:
  std::uint32_t throw_point_;
  std::mutex mutex_;
};

std::size_t run_lane_batch(LaneRunner& runner, std::size_t pool,
                           const std::vector<InjectionPoint>& points) {
  SchedulerConfig config;
  config.pool = pool;
  TrialScheduler(runner, config).run(points, 4, nullptr, {});
  return runner.calls_.size();
}

TEST(SchedulerLanes, EachLaneRunsOnItsOwnThread) {
  const auto points = make_points(16);
  LaneRunner runner;
  EXPECT_EQ(run_lane_batch(runner, 4, points), points.size() * 4);
  std::set<std::thread::id> seen;
  for (const auto& [lane, threads] : runner.threads_) {
    EXPECT_GE(lane, 0);
    EXPECT_LT(lane, 4);
    // A lane is one thread, and no lane is the caller's.
    EXPECT_EQ(threads.size(), 1u) << "lane " << lane;
    EXPECT_FALSE(threads.count(std::this_thread::get_id()));
    seen.insert(threads.begin(), threads.end());
  }
  EXPECT_EQ(seen.size(), runner.threads_.size());
  std::set<std::pair<std::uint32_t, std::uint64_t>> ran;
  for (const auto& call : runner.calls_) ran.insert({call.point, call.trial});
  EXPECT_EQ(ran.size(), points.size() * 4);  // every job exactly once
  EXPECT_EQ(current_worker(), -1);  // the caller never became a lane
}

TEST(SchedulerLanes, PoolOneRunsInlineOnTheCallingThread) {
  const auto points = make_points(3);
  LaneRunner runner;
  run_lane_batch(runner, 1, points);
  ASSERT_EQ(runner.threads_.size(), 1u);
  EXPECT_EQ(runner.threads_.begin()->first, -1);
  EXPECT_EQ(runner.threads_.begin()->second,
            std::set<std::thread::id>{std::this_thread::get_id()});
  std::vector<Call> want;
  for (std::uint32_t p = 0; p < 3; ++p) {
    for (std::uint32_t t = 0; t < 4; ++t) want.push_back({-1, p, t});
  }
  EXPECT_EQ(runner.calls_, want);  // serial order
}

TEST(SchedulerLanes, FirstExceptionRethrownAfterEveryLaneJoins) {
  // Point 2's trial 1 throws: its lane stops, and the other lanes claim
  // every remaining trial before run() rethrows.
  const auto points = make_points(8);
  LaneRunner runner(/*throw_point=*/2);
  EXPECT_THROW(run_lane_batch(runner, 3, points), std::runtime_error);
  EXPECT_EQ(runner.calls_.size(), points.size() * 4);
}

TEST(SchedulerLanes, PoolOneRethrowsTheSameWay) {
  // Inline, the one claim loop ends at the throw: the serial stream never
  // reaches the trials after it.
  const auto points = make_points(4);
  LaneRunner runner(/*throw_point=*/2);
  EXPECT_THROW(run_lane_batch(runner, 1, points), std::runtime_error);
  ASSERT_EQ(runner.calls_.size(), 2u * 4 + 2);
  EXPECT_EQ(runner.calls_.back(), (Call{-1, 2, 1}));
}

TEST(SchedulerLanes, ResolveParallelTrials) {
  EXPECT_EQ(resolve_parallel_trials(7), 7u);  // explicit wins
  // Auto is one lane per core: a trial occupies one thread however many
  // ranks it simulates.
  EXPECT_EQ(resolve_parallel_trials(0),
            std::max(1u, std::thread::hardware_concurrency()));
}

class MeasureMany : public ::testing::Test {
 protected:
  static CampaignOptions options(std::size_t parallel) {
    CampaignOptions opts;
    opts.nranks = 4;
    opts.trials_per_point = 6;
    opts.seed = 1234;
    opts.max_parallel_trials = parallel;
    return opts;
  }
};

TEST_F(MeasureMany, ParallelEqualsSerialPointByPoint) {
  const auto workload = apps::make_workload("LU");
  Campaign serial(*workload, options(1));
  Campaign parallel(*workload, options(4));
  serial.profile();
  parallel.profile();
  EXPECT_EQ(parallel.parallel_trials(), 4u);

  auto points = serial.enumeration().points;
  if (points.size() > 6) points.resize(6);

  std::vector<PointResult> expected;
  for (const auto& point : points) expected.push_back(serial.measure(point));
  const auto got = parallel.measure_many(points);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].point.site_id, points[i].site_id);  // input order kept
    EXPECT_EQ(got[i].point.param, points[i].param);
    EXPECT_EQ(got[i].trials, expected[i].trials);
    EXPECT_EQ(got[i].counts, expected[i].counts) << "point " << i;
  }
  // >= rather than ==: timed-out trials are re-run once for confirmation,
  // and confirmation runs count as injected executions.
  EXPECT_GE(parallel.trials_run(), points.size() * 6);
}

TEST_F(MeasureMany, MaxParallelOneDegradesToSerialPath) {
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, options(1));
  campaign.profile();
  EXPECT_EQ(campaign.parallel_trials(), 1u);

  auto points = campaign.enumeration().points;
  if (points.size() > 3) points.resize(3);
  const auto batched = campaign.measure_many(points);
  ASSERT_EQ(batched.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto lone = campaign.measure(points[i]);
    EXPECT_EQ(batched[i].counts, lone.counts) << "point " << i;
  }
}

TEST_F(MeasureMany, EmptyBatchAndOptionMutator) {
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, options(0));
  campaign.profile();
  EXPECT_GE(campaign.parallel_trials(), 1u);
  campaign.set_max_parallel_trials(2);
  EXPECT_EQ(campaign.parallel_trials(), 2u);
  const auto none = campaign.measure_many(std::span<const InjectionPoint>{});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(campaign.trials_run(), 0u);
}

}  // namespace
}  // namespace fastfit::core
