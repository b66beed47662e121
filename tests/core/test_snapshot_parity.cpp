// Snapshot parity: the prefix-replay fast path must be invisible in the
// results. Every assertion here compares --snapshots on against the
// from-scratch off path — per-point outcome counts, journal resume,
// parallel lanes, a replay divergence.

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "core/campaign.hpp"
#include "telemetry/recorder.hpp"

namespace tel = fastfit::telemetry;

namespace fastfit::core {
namespace {

CampaignOptions base_options(bool snapshots) {
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 3;
  opts.seed = 4242;
  opts.max_parallel_trials = 1;
  opts.snapshots = snapshots;
  return opts;
}

// Measures the first `npoints` enumerated points, then the first
// `buffer_points` of the rest that flip a buffer's contents, and returns
// the results; `stats_out` receives the campaign's snapshot statistics.
std::vector<PointResult> run_study(const apps::Workload& workload,
                                   const CampaignOptions& opts,
                                   std::size_t npoints,
                                   SnapshotCache::Stats* stats_out = nullptr,
                                   std::size_t buffer_points = 0) {
  Campaign campaign(workload, opts);
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  const auto n = std::min(npoints, points.size());
  std::vector<InjectionPoint> selected(points.begin(), points.begin() + n);
  for (auto it = points.begin() + n;
       it != points.end() && buffer_points > 0; ++it) {
    if (it->param == mpi::Param::SendBuf || it->param == mpi::Param::RecvBuf) {
      selected.push_back(*it);
      --buffer_points;
    }
  }
  const auto results =
      campaign.measure_many(selected, opts.trials_per_point);
  if (stats_out != nullptr) *stats_out = campaign.snapshot_stats();
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
    EXPECT_EQ(a[i].exec.quarantined, b[i].exec.quarantined)
        << label << " point " << i;
  }
}

TEST(SnapshotParity, ReplayMatchesFromScratchForEveryWorkload) {
  // Buffer-content faults are the ones a collective can overwrite, so
  // each workload's first few of them ride along: some of their trials
  // end at the cut (docs/snapshot.md), and must still match.
  constexpr std::size_t kBufferPoints = 6;
  auto& rec = tel::Recorder::instance();
  rec.enable();
  rec.reset();
  for (const auto& name : apps::workload_names()) {
    const auto workload = apps::make_workload(name);
    const auto off = run_study(*workload, base_options(false), 2,
                               nullptr, kBufferPoints);
    SnapshotCache::Stats stats;
    const auto on = run_study(*workload, base_options(true), 2,
                              &stats, kBufferPoints);
    expect_same_counts(off, on, name);
    // The fast path must actually have engaged: one recording, one
    // snapshot per distinct cut, trials served as clones.
    EXPECT_EQ(stats.recording_builds, 1u) << name;
    EXPECT_GT(stats.clones, 0u) << name;
    EXPECT_EQ(stats.fallbacks, 0u) << name;
  }
  EXPECT_GT(rec.metrics().counter_value("fastfit_trials_reconverged_total"),
            0u);
  rec.reset();
  rec.disable();
}

TEST(SnapshotParity, AutoModeMatchesAndReusesTheRecording) {
  const auto workload = apps::make_workload("LU");
  const auto off = run_study(*workload, base_options(false), 4);
  SnapshotCache::Stats stats;
  const auto replayed =
      run_study(*workload, base_options(true), 4, &stats);
  expect_same_counts(off, replayed, "LU on");
  EXPECT_EQ(stats.recording_builds, 1u);  // shared across all 4 points
  // 3 trials per point share each point's derived cut (>= because guard
  // retries or watchdog confirmations may re-clone).
  EXPECT_GE(stats.hits, stats.snapshot_builds);
  EXPECT_GE(stats.clones, 4u * 3u);
}

TEST(SnapshotParity, ParallelExecutorMatchesSerialFromScratch) {
  const auto workload = apps::make_workload("CG");
  const auto serial_off =
      run_study(*workload, base_options(false), 3);
  auto parallel = base_options(true);
  parallel.max_parallel_trials = 4;
  SnapshotCache::Stats stats;
  const auto pooled = run_study(*workload, parallel, 3, &stats);
  expect_same_counts(serial_off, pooled, "CG pool-4");
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(SnapshotParity, ResumeFromJournalStaysBitIdentical) {
  const auto workload = apps::make_workload("LU");
  const auto opts = base_options(true);
  const auto expected =
      run_study(*workload, base_options(false), 4);

  const std::string path =
      ::testing::TempDir() + "fastfit_snapshot_parity_resume";
  std::remove(path.c_str());
  {
    Campaign partial(*workload, opts);
    partial.profile();
    partial.attach_journal(path, JournalMode::Create);
    const auto& points = partial.enumeration().points;
    ASSERT_GE(points.size(), 4u);
    partial.measure_many(
        std::span<const InjectionPoint>(points.data(), 2), 3);
    partial.detach_journal();
  }

  Campaign resumed(*workload, opts);
  resumed.profile();
  resumed.attach_journal(path, JournalMode::Resume);
  const auto& points = resumed.enumeration().points;
  const auto results = resumed.measure_many(
      std::span<const InjectionPoint>(points.data(), 4), 3);
  EXPECT_GT(resumed.health().replayed_trials, 0u);
  expect_same_counts(expected, results, "LU resume");
}

// Rank code that diverges from its own recording: the first bcast's count
// grows once a rank has run one world (the campaign's fault-free run in
// profile(), which records the prefix), so the first replayed trial
// raises ReplayError. The extra element is scratch the digest never reads,
// so every run computes the same answer.
class DivergingWorkload final : public apps::Workload {
 public:
  explicit DivergingWorkload(int nranks)
      : runs_(static_cast<std::size_t>(nranks), 0) {}

  std::string name() const override { return "diverging"; }

  std::uint64_t run_rank(apps::AppContext& ctx) const override {
    auto& mpi = ctx.mpi;
    const int count = runs_[static_cast<std::size_t>(mpi.rank())]++ == 0 ? 1 : 2;
    ctx.trace.set_phase(trace::ExecPhase::Compute);
    trace::FunctionScope scope(ctx.trace, "kernel");
    mpi::RegisteredBuffer<double> scratch(mpi.registry(), 2);
    mpi.bcast(scratch.data(), count, mpi::kDouble, 0);
    double total = 1.0 + mpi.rank();
    for (int step = 0; step < 3; ++step) {
      total = mpi.allreduce_value(total, mpi::kSum) / mpi.size();
    }
    return apps::digest_doubles(std::span<const double>(&total, 1), 9);
  }

 private:
  mutable std::vector<int> runs_;
};

TEST(SnapshotParity, DivergenceRunsTheTrialFromScratchAndRetiresReplay) {
  // Each campaign gets a fresh workload (its run counters start at zero)
  // and its own fault-free run, so the on campaign's first trial is the
  // first world to diverge.
  const auto measure = [](bool snapshots, SnapshotCache::Stats* stats) {
    auto opts = base_options(snapshots);
    DivergingWorkload workload(opts.nranks);
    Campaign campaign(workload, opts);
    campaign.profile();
    // Bcast points would flip the very count that diverges; measure the
    // allreduces, whose cuts all replay the bcast in their prefix.
    std::vector<InjectionPoint> points;
    for (const auto& point : campaign.enumeration().points) {
      if (point.kind != mpi::CollectiveKind::Bcast && points.size() < 4) {
        points.push_back(point);
      }
    }
    EXPECT_EQ(points.size(), 4u);
    const auto results = campaign.measure_many(points, opts.trials_per_point);
    *stats = campaign.snapshot_stats();
    EXPECT_TRUE(campaign.health().clean());
    return results;
  };
  SnapshotCache::Stats off_stats;
  SnapshotCache::Stats on_stats;
  const auto off = measure(false, &off_stats);
  const auto on = measure(true, &on_stats);
  expect_same_counts(off, on, "diverging");
  EXPECT_EQ(off_stats.clones, 0u);
  EXPECT_EQ(on_stats.recording_builds, 1u);
  EXPECT_EQ(on_stats.fallbacks, 1u);
  // The diverging trial's clone is the only one: replay is off for every
  // trial after it.
  EXPECT_EQ(on_stats.clones, 1u);
  EXPECT_EQ(on_stats.cached_bytes, 0u);
}

}  // namespace
}  // namespace fastfit::core
