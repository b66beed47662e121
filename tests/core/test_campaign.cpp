// Campaign execution: golden digest, trial determinism, and the response
// statistics the evaluation aggregates.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "core/campaign.hpp"
#include "telemetry/recorder.hpp"

namespace tel = fastfit::telemetry;

namespace fastfit::core {
namespace {

using namespace std::chrono_literals;

CampaignOptions small_options() {
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 6;
  opts.seed = 77;
  return opts;
}

TEST(Campaign, ProfilePopulatesEnumerationAndGolden) {
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  EXPECT_NE(campaign.golden_digest(), 0u);
  EXPECT_FALSE(campaign.enumeration().points.empty());
  EXPECT_GE(campaign.watchdog(), 150ms);
}

TEST(Campaign, UsingBeforeProfileThrows) {
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, small_options());
  EXPECT_THROW(campaign.enumeration(), InternalError);
  EXPECT_THROW(campaign.golden_digest(), InternalError);
  InjectionPoint point;
  EXPECT_THROW(campaign.measure(point, 1), InternalError);
}

TEST(Campaign, InvalidOptionsRejected) {
  const auto workload = apps::make_workload("LU");
  CampaignOptions bad = small_options();
  bad.trials_per_point = 0;
  EXPECT_THROW(Campaign(*workload, bad), ConfigError);
  bad = small_options();
  bad.nranks = 0;
  EXPECT_THROW(Campaign(*workload, bad), ConfigError);
}

TEST(Campaign, MeasureAggregatesTrials) {
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  // Pick a count-parameter point: a mix of MPI_ERR / SEG_FAULT / SUCCESS.
  const auto it =
      std::find_if(points.begin(), points.end(), [](const InjectionPoint& p) {
        return p.param == mpi::Param::Count;
      });
  ASSERT_NE(it, points.end());
  const auto result = campaign.measure(*it, 10);
  EXPECT_EQ(result.trials, 10u);
  std::uint32_t total = 0;
  for (auto c : result.counts) total += c;
  EXPECT_EQ(total, 10u);
  EXPECT_GT(result.error_rate(), 0.0);  // count flips are rarely harmless
  EXPECT_EQ(campaign.trials_run(), 10u);
}

TEST(Campaign, PointResultMath) {
  PointResult r;
  r.record(inject::Outcome::Success);
  r.record(inject::Outcome::Success);
  r.record(inject::Outcome::MpiErr);
  r.record(inject::Outcome::SegFault);
  EXPECT_EQ(r.trials, 4u);
  EXPECT_DOUBLE_EQ(r.error_rate(), 0.5);
  EXPECT_DOUBLE_EQ(r.fraction(inject::Outcome::Success), 0.5);
  EXPECT_DOUBLE_EQ(r.fraction(inject::Outcome::MpiErr), 0.25);
  EXPECT_EQ(r.dominant(), inject::Outcome::Success);
  r.record(inject::Outcome::MpiErr);
  r.record(inject::Outcome::MpiErr);
  EXPECT_EQ(r.dominant(), inject::Outcome::MpiErr);
}

TEST(Campaign, RecvBufFaultsAreNearHarmless) {
  // Paper Fig 9: recvbuf flips have little impact (the collective
  // overwrites them).
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  const auto it =
      std::find_if(points.begin(), points.end(), [](const InjectionPoint& p) {
        return p.param == mpi::Param::RecvBuf &&
               p.kind == mpi::CollectiveKind::Allreduce;
      });
  ASSERT_NE(it, points.end());
  const auto result = campaign.measure(*it, 12);
  EXPECT_GE(result.fraction(inject::Outcome::Success), 0.75);
}

TEST(Campaign, SameSeedSameCampaignStatistics) {
  const auto workload = apps::make_workload("LU");
  Campaign c1(*workload, small_options());
  Campaign c2(*workload, small_options());
  c1.profile();
  c2.profile();
  ASSERT_EQ(c1.enumeration().points.size(), c2.enumeration().points.size());
  const auto& p = c1.enumeration().points.front();
  const auto r1 = c1.measure(p, 8);
  const auto r2 = c2.measure(p, 8);
  EXPECT_EQ(r1.counts, r2.counts);
}

TEST(Campaign, MeasureIsIndependentOfCampaignHistory) {
  // The determinism contract in campaign.hpp: measure(point, n) yields the
  // same PointResult regardless of what was measured before it. (An older
  // implementation threaded a shared trial counter into the RNG, so a
  // point's result depended on every preceding measurement.)
  const auto workload = apps::make_workload("LU");
  Campaign fresh(*workload, small_options());
  Campaign busy(*workload, small_options());
  fresh.profile();
  busy.profile();
  const auto& points = fresh.enumeration().points;
  ASSERT_GE(points.size(), 3u);

  // `busy` measures two other points first; `fresh` goes straight to the
  // point under test.
  busy.measure(points[1], 5);
  busy.measure(points[2], 9);
  const auto direct = fresh.measure(points[0], 8);
  const auto after_history = busy.measure(points[0], 8);
  EXPECT_EQ(direct.counts, after_history.counts);

  // Re-measuring the same point in the same campaign also reproduces.
  EXPECT_EQ(fresh.measure(points[0], 8).counts, direct.counts);
}

// A workload whose ranks spin on an externally released gate, keeping a
// measure() call verifiably in flight for as long as the test needs.
class GatedWorkload final : public apps::Workload {
 public:
  std::string name() const override { return "gated"; }

  std::uint64_t run_rank(apps::AppContext& ctx) const override {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ctx.trace.set_phase(trace::ExecPhase::Compute);
    trace::FunctionScope scope(ctx.trace, "kernel");
    const double total =
        ctx.mpi.allreduce_value(1.0 + ctx.mpi.rank(), mpi::kSum);
    return apps::digest_doubles(std::span<const double>(&total, 1), 9);
  }

  mutable std::atomic<bool> gate{true};
};

TEST(Campaign, SetMaxParallelTrialsThrowsWhileMeasuring) {
  GatedWorkload workload;
  CampaignOptions opts;
  opts.nranks = 2;
  opts.trials_per_point = 2;
  opts.seed = 7;
  opts.max_parallel_trials = 1;
  opts.watchdog = 30'000ms;  // the gate must not read as a hang
  Campaign campaign(workload, opts);
  campaign.profile();
  ASSERT_FALSE(campaign.enumeration().points.empty());
  EXPECT_FALSE(campaign.measuring());

  workload.gate.store(false, std::memory_order_release);
  std::thread measurer([&] {
    campaign.measure(campaign.enumeration().points[0], 1);
  });
  while (!campaign.measuring()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The documented race: resizing the pool mid-measure. Now an error.
  EXPECT_THROW(campaign.set_max_parallel_trials(4), InternalError);
  workload.gate.store(true, std::memory_order_release);
  measurer.join();

  // Between measures the knob works, and the next measure honours it.
  EXPECT_FALSE(campaign.measuring());
  campaign.set_max_parallel_trials(2);
  EXPECT_EQ(campaign.parallel_trials(), 2u);
}

TEST(Campaign, GoldenDigestStableAcrossCampaigns) {
  const auto workload = apps::make_workload("MG");
  Campaign c1(*workload, small_options());
  Campaign c2(*workload, small_options());
  c1.profile();
  c2.profile();
  EXPECT_EQ(c1.golden_digest(), c2.golden_digest());
}

// Delegates to a bundled workload and counts the worlds it runs: rank 0
// enters run_rank once per world, replayed or not.
class WorldCountingWorkload final : public apps::Workload {
 public:
  explicit WorldCountingWorkload(const std::string& name)
      : inner_(apps::make_workload(name)) {}
  std::string name() const override { return inner_->name(); }
  std::uint64_t run_rank(apps::AppContext& ctx) const override {
    if (ctx.mpi.world_rank() == 0) {
      worlds.fetch_add(1, std::memory_order_relaxed);
    }
    return inner_->run_rank(ctx);
  }

  mutable std::atomic<std::uint64_t> worlds{0};

 private:
  std::unique_ptr<apps::Workload> inner_;
};

TEST(Campaign, ProfileRunsOneWorldAndTrialsRunOnlyInjectedOnes) {
  struct Case {
    const char* models;
    bool snapshots;
    std::uint64_t recordings;
  };
  for (const Case& c : {Case{"single-bit-flip", true, 1},
                        Case{"single-bit-flip", false, 0},
                        Case{"message-drop,rank-death", true, 0}}) {
    const std::string label =
        std::string(c.models) + (c.snapshots ? " on" : " off");
    WorldCountingWorkload workload("LU");
    auto opts = small_options();
    opts.nranks = 4;
    opts.max_parallel_trials = 2;
    opts.snapshots = c.snapshots;
    opts.fault_models = inject::parse_fault_models(c.models);
    Campaign campaign(workload, opts);
    campaign.profile();
    // One fault-free world gives the profile, the golden digest, the
    // watchdog and (bit flips, snapshots on) the prefix recording.
    EXPECT_EQ(workload.worlds.load(), 1u) << label;
    EXPECT_EQ(campaign.snapshot_stats().recording_builds, c.recordings)
        << label;

    const auto& all = campaign.enumeration().points;
    const std::vector<InjectionPoint> points(
        all.begin(), all.begin() + std::min<std::size_t>(all.size(), 6));
    (void)campaign.measure_many(points, 3);
    EXPECT_GE(campaign.trials_run(), points.size() * 3) << label;
    EXPECT_EQ(workload.worlds.load() - 1, campaign.trials_run()) << label;
    EXPECT_EQ(campaign.snapshot_stats().recording_builds, c.recordings)
        << label;
  }
}

// --- pool parity: the executor lane must be invisible ---------------------

struct PoolRun {
  std::vector<PointResult> results;
  std::string journal_bytes;
  std::map<std::string, std::uint64_t> trial_counters;
  CampaignHealth health;
};

// Drops the forensic autopsy field ("a") from a journal line. Autopsies
// embed raw buffer addresses (ASLR) and a mid-flight census of the other
// ranks' phases, neither of which reproduces between two runs; everything
// the resume path actually reads — the (point, trial, outcome) triple,
// labels, quarantines, the model field — must match byte for byte.
std::string strip_autopsies(const std::string& journal) {
  std::string out;
  out.reserve(journal.size());
  std::size_t pos = 0;
  while (pos < journal.size()) {
    const auto start = journal.find(",\"a\":\"", pos);
    if (start == std::string::npos) {
      out.append(journal, pos, std::string::npos);
      break;
    }
    out.append(journal, pos, start - pos);
    std::size_t end = start + 6;  // first payload byte
    while (end < journal.size() &&
           (journal[end] != '"' || journal[end - 1] == '\\')) {
      ++end;
    }
    pos = end + 1;  // past the closing quote
  }
  return out;
}

// Measures the first four points of `workload_name` (6 trials each) on a
// pool of `pool` executor lanes, journaled and with telemetry on.
PoolRun run_on_pool(const std::string& workload_name, std::size_t pool) {
  auto& rec = tel::Recorder::instance();
  rec.enable();
  rec.reset();
  const auto workload = apps::make_workload(workload_name);
  auto opts = small_options();
  opts.max_parallel_trials = pool;
  Campaign campaign(*workload, opts);
  campaign.profile();
  const std::string path = ::testing::TempDir() + "fastfit_pool_parity_" +
                           workload_name + "_" + std::to_string(pool);
  std::remove(path.c_str());
  campaign.attach_journal(path, JournalMode::Create);
  const auto& points = campaign.enumeration().points;
  const auto n = std::min<std::size_t>(4, points.size());
  PoolRun run;
  run.results = campaign.measure_many(
      std::span<const InjectionPoint>(points.data(), n), 6);
  campaign.detach_journal();
  run.health = campaign.health();
  std::ifstream in(path, std::ios::binary);
  run.journal_bytes.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
  for (const auto& c : rec.metrics().counters) {
    if (c.name == "fastfit_trials_total") {
      run.trial_counters[c.labels] = c.value;
    }
  }
  rec.reset();
  rec.disable();
  std::remove(path.c_str());
  return run;
}

class PoolParity : public ::testing::TestWithParam<const char*> {};

TEST_P(PoolParity, Pool8MatchesSerialBitIdentical) {
  // A trial's outcome is a pure function of (seed, point, trial): running
  // it on eight lanes instead of one must not move a single output —
  // per-point outcome counts, the journal byte for byte (autopsies
  // aside), or any fastfit_trials_total series.
  const auto serial = run_on_pool(GetParam(), 1);
  const auto pooled = run_on_pool(GetParam(), 8);

  ASSERT_EQ(serial.results.size(), pooled.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].counts, pooled.results[i].counts)
        << "point " << i;
    EXPECT_EQ(serial.results[i].trials, pooled.results[i].trials)
        << "point " << i;
    EXPECT_EQ(serial.results[i].exec.quarantined,
              pooled.results[i].exec.quarantined);
  }
  EXPECT_FALSE(serial.journal_bytes.empty());
  EXPECT_EQ(strip_autopsies(serial.journal_bytes),
            strip_autopsies(pooled.journal_bytes));
  EXPECT_FALSE(serial.trial_counters.empty());
  EXPECT_EQ(serial.trial_counters, pooled.trial_counters);
  EXPECT_TRUE(pooled.health.clean());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PoolParity,
                         ::testing::Values("IS", "FT", "MG", "LU", "CG", "EP",
                                           "miniMD"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace fastfit::core
