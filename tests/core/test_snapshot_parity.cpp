// Snapshot parity: the prefix-replay fast path must be invisible in the
// results. Every assertion here compares --snapshots on/auto against the
// from-scratch off path — per-point outcome counts, journal resume, the
// parallel executor — plus the golden-run memo and its invalidation.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/campaign.hpp"
#include "core/recording_io.hpp"
#include "minimpi/snapshot.hpp"
#include "support/error.hpp"
#include "telemetry/recorder.hpp"

namespace tel = fastfit::telemetry;

namespace fastfit::core {
namespace {

CampaignOptions base_options(SnapshotMode mode) {
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 3;
  opts.seed = 4242;
  opts.max_parallel_trials = 1;
  opts.snapshots = mode;
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
    const auto off = run_study(*workload, base_options(SnapshotMode::Off), 2,
                               nullptr, kBufferPoints);
    SnapshotCache::Stats stats;
    const auto on = run_study(*workload, base_options(SnapshotMode::On), 2,
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
  const auto off = run_study(*workload, base_options(SnapshotMode::Off), 4);
  SnapshotCache::Stats stats;
  const auto replayed =
      run_study(*workload, base_options(SnapshotMode::Auto), 4, &stats);
  expect_same_counts(off, replayed, "LU auto");
  EXPECT_EQ(stats.recording_builds, 1u);  // shared across all 4 points
  // 3 trials per point share each point's derived cut (>= because guard
  // retries or watchdog confirmations may re-clone).
  EXPECT_GE(stats.hits, stats.snapshot_builds);
  EXPECT_GE(stats.clones, 4u * 3u);
}

TEST(SnapshotParity, ParallelExecutorMatchesSerialFromScratch) {
  const auto workload = apps::make_workload("CG");
  const auto serial_off =
      run_study(*workload, base_options(SnapshotMode::Off), 3);
  auto parallel = base_options(SnapshotMode::Auto);
  parallel.max_parallel_trials = 4;
  SnapshotCache::Stats stats;
  const auto pooled = run_study(*workload, parallel, 3, &stats);
  expect_same_counts(serial_off, pooled, "CG pool-4");
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(SnapshotParity, ResumeFromJournalStaysBitIdentical) {
  const auto workload = apps::make_workload("LU");
  const auto opts = base_options(SnapshotMode::Auto);
  const auto expected =
      run_study(*workload, base_options(SnapshotMode::Off), 4);

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

TEST(SnapshotParity, GoldenRunIsMemoizedAcrossCampaigns) {
  GoldenCache::instance().clear();
  const auto workload = apps::make_workload("EP");
  const auto opts = base_options(SnapshotMode::Off);

  Campaign first(*workload, opts);
  first.profile();
  EXPECT_EQ(GoldenCache::instance().size(), 1u);
  const auto digest = first.golden_digest();

  // Same configuration: the second campaign's profile() serves the
  // golden run from the memo (still exactly one entry) and agrees on
  // the digest the whole classification hangs off.
  Campaign second(*workload, opts);
  second.profile();
  EXPECT_EQ(GoldenCache::instance().size(), 1u);
  EXPECT_EQ(second.golden_digest(), digest);

  // A different seed is a different key — no false sharing.
  auto other = opts;
  other.seed = opts.seed + 1;
  Campaign third(*workload, other);
  third.profile();
  EXPECT_EQ(GoldenCache::instance().size(), 2u);
}

TEST(SnapshotParity, CacheBudgetMustBePositive) {
  const auto workload = apps::make_workload("LU");
  auto opts = base_options(SnapshotMode::Auto);
  opts.snapshot_cache_mb = 0;
  EXPECT_THROW(Campaign c(*workload, opts), ConfigError);
}

// --- durable recordings (core/recording_io.hpp) ---

std::shared_ptr<mpi::WorldRecording> synthetic_recording() {
  auto rec = std::make_shared<mpi::WorldRecording>();
  rec->nranks = 2;
  rec->ops.resize(2);
  mpi::ChunkStore chunks;
  const double a[2] = {1.5, -2.5};
  const double b[2] = {3.5, 4.5};
  for (int r = 0; r < 2; ++r) {
    mpi::RecordedOp coll;
    coll.kind = mpi::RecordedOp::Kind::Collective;
    coll.coll = mpi::CollectiveKind::Allreduce;
    coll.site_id = 0x1234;
    coll.site_line = 42;
    coll.invocation = static_cast<std::uint64_t>(r);
    coll.comm = 1;
    coll.writes.push_back(chunks.intern(a, sizeof(a)));
    // The same bytes twice: dedup must survive the round trip.
    coll.writes.push_back(chunks.intern(a, sizeof(a)));
    rec->ops[static_cast<std::size_t>(r)].push_back(coll);

    mpi::RecordedOp send;
    send.kind = mpi::RecordedOp::Kind::Send;
    send.site_id = 0x99;
    send.self_comm = r;
    send.peer = 1 - r;
    send.peer_world = 1 - r;
    send.transport_tag = 0xABCDEF00ULL + static_cast<std::uint64_t>(r);
    send.writes.push_back(chunks.intern(b, sizeof(b)));
    rec->ops[static_cast<std::size_t>(r)].push_back(send);
    rec->total_ops += 2;
  }
  rec->payload_bytes = chunks.unique_bytes();
  return rec;
}

TEST(RecordingIo, SaveLoadRoundTripPreservesOpsAndDedup) {
  const auto path = ::testing::TempDir() + "fastfit_recording_roundtrip";
  std::remove(path.c_str());
  const auto rec = synthetic_recording();
  ASSERT_TRUE(save_recording(path, *rec, "id|2|7", 0xD1DE57u));

  std::string why;
  const auto loaded = load_recording(path, "id|2|7", 0xD1DE57u, &why);
  ASSERT_NE(loaded, nullptr) << why;
  EXPECT_EQ(loaded->nranks, rec->nranks);
  EXPECT_EQ(loaded->total_ops, rec->total_ops);
  EXPECT_TRUE(loaded->replayable);
  // Dedup restored: the duplicated chunk counts once, so payload_bytes
  // matches the original ChunkStore accounting.
  EXPECT_EQ(loaded->payload_bytes, rec->payload_bytes);
  ASSERT_EQ(loaded->ops.size(), rec->ops.size());
  for (std::size_t r = 0; r < rec->ops.size(); ++r) {
    ASSERT_EQ(loaded->ops[r].size(), rec->ops[r].size());
    for (std::size_t i = 0; i < rec->ops[r].size(); ++i) {
      const auto& want = rec->ops[r][i];
      const auto& got = loaded->ops[r][i];
      EXPECT_EQ(got.kind, want.kind);
      EXPECT_EQ(got.coll, want.coll);
      EXPECT_EQ(got.site_id, want.site_id);
      EXPECT_EQ(got.site_line, want.site_line);
      EXPECT_EQ(got.invocation, want.invocation);
      EXPECT_EQ(got.comm, want.comm);
      EXPECT_EQ(got.self_comm, want.self_comm);
      EXPECT_EQ(got.peer, want.peer);
      EXPECT_EQ(got.peer_world, want.peer_world);
      EXPECT_EQ(got.transport_tag, want.transport_tag);
      ASSERT_EQ(got.writes.size(), want.writes.size());
      for (std::size_t w = 0; w < want.writes.size(); ++w) {
        ASSERT_NE(got.writes[w], nullptr);
        EXPECT_EQ(*got.writes[w], *want.writes[w]);
      }
    }
  }
  // In-memory dedup, not just equal bytes: both interned copies of the
  // same payload must share one chunk after the load.
  EXPECT_EQ(loaded->ops[0][0].writes[0].get(),
            loaded->ops[0][0].writes[1].get());
}

TEST(RecordingIo, LoadRefusesMismatchesAndCorruption) {
  const auto path = ::testing::TempDir() + "fastfit_recording_refuse";
  std::remove(path.c_str());

  std::string why;
  EXPECT_EQ(load_recording(path, "id", 1, &why), nullptr);  // missing
  EXPECT_NE(why.find("no recording file"), std::string::npos);

  const auto rec = synthetic_recording();
  ASSERT_TRUE(save_recording(path, *rec, "id", 1));
  ASSERT_NE(load_recording(path, "id", 1, &why), nullptr) << why;

  EXPECT_EQ(load_recording(path, "other", 1, &why), nullptr);
  EXPECT_NE(why.find("identity mismatch"), std::string::npos);
  EXPECT_EQ(load_recording(path, "id", 2, &why), nullptr);
  EXPECT_NE(why.find("digest mismatch"), std::string::npos);

  // Truncation anywhere in the body must fail the load, not crash it.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const auto truncated = path + ".trunc";
  for (const std::size_t keep :
       {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    std::remove(truncated.c_str());
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_EQ(load_recording(truncated, "id", 1, &why), nullptr)
        << "keep=" << keep;
  }
  // Trailing garbage is corruption too.
  std::remove(truncated.c_str());
  std::ofstream out(truncated, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out << "junk";
  out.close();
  EXPECT_EQ(load_recording(truncated, "id", 1, &why), nullptr);
  EXPECT_NE(why.find("trailing"), std::string::npos);

  // Not a recording at all.
  std::ofstream(path, std::ios::binary | std::ios::trunc) << "hello world";
  EXPECT_EQ(load_recording(path, "id", 1, &why), nullptr);
  EXPECT_NE(why.find("bad magic"), std::string::npos);
}

class RecordingReuseTest : public ::testing::Test {
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

TEST_F(RecordingReuseTest, CampaignsSharingAPathRecordOnce) {
  const auto workload = apps::make_workload("LU");
  const auto path = ::testing::TempDir() + "fastfit_recording_shared";
  std::remove(path.c_str());
  auto opts = base_options(SnapshotMode::On);
  opts.recording_path = path;

  const auto expected =
      run_study(*workload, base_options(SnapshotMode::Off), 3);

  // First campaign: no file yet, so it records fresh and persists.
  const auto first = run_study(*workload, opts, 3);
  expect_same_counts(expected, first, "LU recording-save");
  auto snap = tel::Recorder::instance().metrics();
  EXPECT_EQ(snap.counter_value("fastfit_snapshot_recordings_total"), 1u);
  EXPECT_EQ(snap.counter_value("fastfit_snapshot_recording_loads_total"), 0u);

  // Second campaign (a resume, or a sibling shard worker): the recording
  // loads from disk; the fault-free world never re-runs.
  const auto second = run_study(*workload, opts, 3);
  expect_same_counts(expected, second, "LU recording-load");
  snap = tel::Recorder::instance().metrics();
  EXPECT_EQ(snap.counter_value("fastfit_snapshot_recordings_total"), 1u);
  EXPECT_EQ(snap.counter_value("fastfit_snapshot_recording_loads_total"), 1u);
}

TEST_F(RecordingReuseTest, JournalDerivesTheRecordingPath) {
  const auto workload = apps::make_workload("EP");
  const auto path = ::testing::TempDir() + "fastfit_recording_journal";
  std::remove(path.c_str());
  const auto derived = path + ".recording";
  std::remove(derived.c_str());

  auto opts = base_options(SnapshotMode::On);
  Campaign campaign(*workload, opts);
  campaign.profile();
  campaign.attach_journal(path, JournalMode::Create);
  const auto& points = campaign.enumeration().points;
  ASSERT_GE(points.size(), 1u);
  campaign.measure_many(std::span<const InjectionPoint>(points.data(), 1), 2);
  campaign.detach_journal();

  // The recording now lives next to the journal, stamped with the
  // campaign identity — a later --resume reloads it.
  std::ifstream derived_file(derived, std::ios::binary);
  EXPECT_TRUE(derived_file.is_open());

  const auto before =
      tel::Recorder::instance().metrics().counter_value(
          "fastfit_snapshot_recording_loads_total");
  // The resume asks for one more trial than the journal holds: the two
  // completed trials replay from the journal, the third runs live — and
  // its snapshot comes from the reloaded recording, not a fresh run.
  Campaign resumed(*workload, opts);
  resumed.profile();
  resumed.attach_journal(path, JournalMode::Resume);
  resumed.measure_many(std::span<const InjectionPoint>(points.data(), 1), 3);
  resumed.detach_journal();
  EXPECT_EQ(tel::Recorder::instance().metrics().counter_value(
                "fastfit_snapshot_recording_loads_total"),
            before + 1);
}

}  // namespace
}  // namespace fastfit::core
