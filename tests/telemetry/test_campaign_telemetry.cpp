// Campaign ↔ telemetry integration: span nesting and thread-buffer
// flush under the parallel scheduler lanes, and the replay-identical
// counter contract (a journal-resumed campaign reports the same
// fastfit_trials_total series as the original run).

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "apps/registry.hpp"
#include "core/campaign.hpp"
#include "inject/outcome.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::core {
namespace {

namespace tel = fastfit::telemetry;

class CampaignTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& rec = tel::Recorder::instance();
    rec.enable();
    rec.reset();
  }
  void TearDown() override {
    auto& rec = tel::Recorder::instance();
    rec.reset();
    rec.disable();
  }
};

CampaignOptions small_options() {
  CampaignOptions opts;
  opts.nranks = 4;
  opts.trials_per_point = 2;
  opts.seed = 424242;
  opts.max_parallel_trials = 2;
  return opts;
}

TEST_F(CampaignTelemetryTest, ExecutorSpansNestPerLaneAndRankBuffersFlush) {
  auto& rec = tel::Recorder::instance();
  tel::Recorder::bind_thread(tel::Track::Main, -1, "campaign-main");
  const auto workload = apps::make_workload("EP");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  ASSERT_GE(points.size(), 3u);
  const auto results =
      campaign.measure_many(std::span<const InjectionPoint>(points.data(), 3));
  ASSERT_EQ(results.size(), 3u);

  const auto events = rec.drain_events();
  ASSERT_FALSE(events.empty());

  // Tally spans per trace lane — keyed by the (pid, tid) the exporter
  // writes, so rank lanes of concurrent worlds are told apart exactly as
  // Perfetto tells them apart — and check stack discipline: spans on one
  // lane are either disjoint or properly nested. queue-wait spans are
  // excluded — they start at submit time, while the lane's previous trial
  // may still be executing.
  std::map<std::pair<int, int>, std::vector<const tel::Event*>> lanes;
  int trial_spans = 0, world_runs = 0, classifies = 0, queue_waits = 0;
  int rank_spans = 0;
  for (const auto& event : events) {
    const std::string_view name(event.name);
    if (name == "trial") ++trial_spans;
    if (name == "world-run") ++world_runs;
    if (name == "classify") ++classifies;
    if (name == "queue-wait") ++queue_waits;
    if (name == "rank-main") {
      ++rank_spans;
      EXPECT_EQ(event.track, tel::Track::Rank);
    }
    if (event.dur_us < 0 || name == "queue-wait") continue;
    lanes[{tel::trace_pid(event.track, event.world_lane),
           tel::trace_tid(event.track, event.index)}]
        .push_back(&event);
  }
  // 3 points x 2 trials, plus possible watchdog confirmations.
  EXPECT_GE(trial_spans, 6);
  EXPECT_GE(world_runs, 6);
  EXPECT_EQ(classifies, world_runs);  // every injected run classifies
  EXPECT_GE(queue_waits, 6);
  // 4 ranks per world. The pooled worlds' spans were recorded by executor
  // threads that exited before the drain: they arrived via the
  // retired-buffer path.
  EXPECT_GE(rank_spans, 6 * 4);

  // Trial spans land on executor lanes (pool of 2), and so do the worlds
  // they ran: rank lanes live in the pid of executor lane 0 or 1 (or of
  // the main thread, for the fault-free run in profile()).
  bool executor_lane_seen = false;
  for (const auto& event : events) {
    const std::string_view name(event.name);
    if (name == "trial" && event.track == tel::Track::Executor) {
      executor_lane_seen = true;
      EXPECT_GE(event.index, 0);
      EXPECT_LT(event.index, 2);
    }
    if (name == "rank-main") {
      EXPECT_GE(event.world_lane, -1);
      EXPECT_LT(event.world_lane, 2);
    }
  }
  EXPECT_TRUE(executor_lane_seen);

  for (const auto& [lane, spans] : lanes) {
    for (std::size_t a = 0; a < spans.size(); ++a) {
      for (std::size_t b = a + 1; b < spans.size(); ++b) {
        const auto a0 = spans[a]->start_us;
        const auto a1 = a0 + spans[a]->dur_us;
        const auto b0 = spans[b]->start_us;
        const auto b1 = b0 + spans[b]->dur_us;
        const bool partial_overlap = a0 < b0 && b0 < a1 && a1 < b1;
        EXPECT_FALSE(partial_overlap)
            << spans[a]->name << " [" << a0 << "," << a1 << ") and "
            << spans[b]->name << " [" << b0 << "," << b1
            << ") partially overlap on lane pid " << lane.first << " tid "
            << lane.second;
      }
    }
  }

  // Metrics agree with the returned results.
  const auto snap = rec.metrics();
  std::uint64_t recorded = 0;
  for (const auto& r : results) {
    for (const auto c : r.counts) recorded += c;
  }
  EXPECT_EQ(snap.counter_sum("fastfit_trials_total"), recorded);
  EXPECT_GE(snap.counter_value("fastfit_trials_executed_total"), recorded);
  bool hist_found = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "fastfit_trial_seconds") {
      hist_found = true;
      EXPECT_GE(h.data.count, recorded);
    }
  }
  EXPECT_TRUE(hist_found);
}

TEST_F(CampaignTelemetryTest, ReplayedCampaignReportsIdenticalCounterTotals) {
  auto& rec = tel::Recorder::instance();
  const auto workload = apps::make_workload("EP");
  auto opts = small_options();
  opts.trials_per_point = 3;
  const std::string path =
      ::testing::TempDir() + "fastfit_telemetry_replay.jsonl";
  std::remove(path.c_str());

  std::array<std::uint64_t, inject::kNumOutcomes> first{};
  {
    Campaign campaign(*workload, opts);
    campaign.profile();
    const auto& points = campaign.enumeration().points;
    ASSERT_GE(points.size(), 4u);
    campaign.attach_journal(path, JournalMode::Create);
    (void)campaign.measure_many(
        std::span<const InjectionPoint>(points.data(), 4));
    campaign.detach_journal();
    const auto snap = rec.metrics();
    for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
      first[o] = snap.counter_value(
          "fastfit_trials_total",
          "outcome=\"" +
              std::string(inject::to_string(static_cast<inject::Outcome>(o))) +
              '"');
    }
    EXPECT_GT(snap.counter_sum("fastfit_trials_total"), 0u);
    EXPECT_EQ(snap.counter_value("fastfit_trials_replayed_total"), 0u);
  }

  rec.reset();  // fresh registry values for the resumed campaign

  {
    Campaign campaign(*workload, opts);
    campaign.profile();
    const auto& points = campaign.enumeration().points;
    campaign.attach_journal(path, JournalMode::Resume);
    EXPECT_GT(campaign.journal()->loaded_trials(), 0u);
    (void)campaign.measure_many(
        std::span<const InjectionPoint>(points.data(), 4));
    campaign.detach_journal();
    const auto snap = rec.metrics();
    std::uint64_t total = 0;
    for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
      const auto value = snap.counter_value(
          "fastfit_trials_total",
          "outcome=\"" +
              std::string(inject::to_string(static_cast<inject::Outcome>(o))) +
              '"');
      EXPECT_EQ(value, first[o])
          << "outcome "
          << inject::to_string(static_cast<inject::Outcome>(o));
      total += value;
    }
    // Everything was served from the journal; nothing executed fresh.
    EXPECT_EQ(snap.counter_value("fastfit_trials_replayed_total"), total);
    EXPECT_EQ(snap.counter_value("fastfit_trials_executed_total"), 0u);
  }
  std::remove(path.c_str());
}

TEST_F(CampaignTelemetryTest, JournalFlushSpansLandOnJournalTrack) {
  auto& rec = tel::Recorder::instance();
  const auto workload = apps::make_workload("EP");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  const std::string path =
      ::testing::TempDir() + "fastfit_telemetry_journal.jsonl";
  std::remove(path.c_str());
  campaign.attach_journal(path, JournalMode::Create);
  (void)campaign.measure_many(std::span<const InjectionPoint>(points.data(), 1));
  campaign.detach_journal();
  std::remove(path.c_str());

  bool fsync_span = false;
  for (const auto& event : rec.drain_events()) {
    if (std::string_view(event.name) == "journal-fsync") {
      fsync_span = true;
      EXPECT_EQ(event.track, tel::Track::Journal);
    }
  }
  EXPECT_TRUE(fsync_span);
  EXPECT_GT(rec.metrics().counter_value("fastfit_journal_flushes_total"), 0u);
  EXPECT_GT(rec.metrics().counter_value("fastfit_journal_lines_total"), 0u);
}

}  // namespace
}  // namespace fastfit::core
