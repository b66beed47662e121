// TrialScheduler claim order: which worker runs which (point, trial), in
// what order. A fake TrialRunner records every call; the report-level
// parity of the two orders lives in test_resilience.cpp and
// test_procpool.cpp.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/scheduler.hpp"
#include "core/trial_executor.hpp"

namespace fastfit::core {
namespace {

using namespace std::chrono_literals;

/// One run_guarded call: the executor worker (-1 off-pool) and the
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
    const Call self{TrialExecutor::current_worker(), point.site_id, trial};
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
    attempt.outcome = static_cast<inject::Outcome>(
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

}  // namespace
}  // namespace fastfit::core
