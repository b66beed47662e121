// TrialExecutor pool semantics and the parallel == serial contract of
// Campaign::measure_many.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "core/campaign.hpp"
#include "core/trial_executor.hpp"

namespace fastfit::core {
namespace {

TEST(TrialExecutor, RunsEveryJob) {
  TrialExecutor executor(4);
  EXPECT_EQ(executor.workers(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    executor.submit([&done] { done.fetch_add(1); });
  }
  executor.wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(TrialExecutor, SerialModeSpawnsNoThreadsAndRunsInline) {
  TrialExecutor executor(1);
  EXPECT_EQ(executor.workers(), 0u);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    executor.submit([&order, i] { order.push_back(i); });
    // Inline execution: the side effect is visible before wait().
    EXPECT_EQ(order.size(), static_cast<std::size_t>(i + 1));
  }
  executor.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TrialExecutor, ExceptionDoesNotWedgeThePool) {
  TrialExecutor executor(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    if (i == 5) {
      executor.submit([] { throw std::runtime_error("boom"); });
    } else {
      executor.submit([&done] { done.fetch_add(1); });
    }
  }
  EXPECT_THROW(executor.wait(), std::runtime_error);
  EXPECT_EQ(done.load(), 19);  // every healthy job still ran

  // The pool stays usable after a failed batch.
  executor.submit([&done] { done.fetch_add(1); });
  executor.wait();
  EXPECT_EQ(done.load(), 20);
}

TEST(TrialExecutor, SerialModeCapturesExceptionsTheSameWay) {
  TrialExecutor executor(1);
  int done = 0;
  executor.submit([] { throw std::runtime_error("boom"); });
  executor.submit([&done] { ++done; });
  EXPECT_THROW(executor.wait(), std::runtime_error);
  EXPECT_EQ(done, 1);
  executor.submit([&done] { ++done; });
  executor.wait();
  EXPECT_EQ(done, 2);
}

TEST(TrialExecutor, ResolveParallelTrials) {
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
