#include "core/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "apps/registry.hpp"

namespace fastfit::core {
namespace {

PointResult sample_result(const std::string& site, mpi::Param param) {
  PointResult r;
  r.point.site_location = site;
  r.point.kind = mpi::CollectiveKind::Allreduce;
  r.point.param = param;
  r.point.rank = 3;
  r.point.invocation = 7;
  r.point.phase = trace::ExecPhase::Compute;
  r.point.errhal = true;
  r.point.n_inv = 42;
  r.point.stack_depth = 2.5;
  r.point.n_diff_stack = 2;
  r.record(inject::Outcome::Success);
  r.record(inject::Outcome::MpiErr);
  return r;
}

TEST(Export, CsvHasHeaderAndRows) {
  const auto csv = to_csv({sample_result("lu.cpp:10", mpi::Param::SendBuf),
                           sample_result("lu.cpp:20", mpi::Param::Op)});
  std::istringstream in(csv);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("site,kind,param"), std::string::npos);
  EXPECT_NE(header.find("SUCCESS"), std::string::npos);
  EXPECT_NE(header.find("error_rate"), std::string::npos);
  std::string row;
  std::getline(in, row);
  EXPECT_NE(row.find("lu.cpp:10"), std::string::npos);
  EXPECT_NE(row.find("MPI_Allreduce"), std::string::npos);
  EXPECT_NE(row.find("0.5"), std::string::npos);  // error rate 1/2
  int rows = 1;
  while (std::getline(in, row)) {
    if (!row.empty()) ++rows;
  }
  EXPECT_EQ(rows, 2);
}

TEST(Export, CsvQuotesSpecialCharacters) {
  auto r = sample_result("weird,\"site\"", mpi::Param::SendBuf);
  const auto csv = to_csv({r});
  EXPECT_NE(csv.find("\"weird,\"\"site\"\"\""), std::string::npos);
}

TEST(Export, JsonIsStructurallySound) {
  StudyResult result;
  result.stats.total_points = 100;
  result.stats.after_semantic = 20;
  result.stats.after_context = 10;
  result.stats.equivalence_classes = 2;
  result.stats.nranks = 8;
  result.ml_reduction = 0.5;
  result.final_accuracy = 0.7;
  result.threshold_reached = true;
  result.measured.push_back(sample_result("a.cpp:1", mpi::Param::SendBuf));
  result.predicted.emplace_back(sample_result("b.cpp:2", mpi::Param::Op).point,
                                3u);
  const auto json = to_json(result);
  // Balanced braces/brackets and key fields present.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"afterContext\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"errhal\":true"), std::string::npos);
  EXPECT_NE(json.find("\"label\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"SUCCESS\": 1"), std::string::npos);
}

TEST(Export, JsonEscapesStrings) {
  StudyResult result;
  auto r = sample_result("path\"with\\quotes", mpi::Param::SendBuf);
  result.measured.push_back(r);
  const auto json = to_json(result);
  EXPECT_NE(json.find("path\\\"with\\\\quotes"), std::string::npos);
}

TEST(Export, ExtendedOutcomeColumnsAreOptIn) {
  // The default configuration keeps the paper's six-way taxonomy on
  // every serialized surface so its output stays byte-identical to
  // pre-v2 builds; extended fault-model studies add the two columns.
  StudyResult result;
  auto r = sample_result("lu.cpp:10", mpi::Param::SendBuf);
  r.record(inject::Outcome::RankDead);
  result.measured.push_back(r);
  EXPECT_EQ(to_json(result).find("RANK_DEAD"), std::string::npos);
  EXPECT_EQ(to_csv(result.measured).find("RANK_DEAD"), std::string::npos);
  EXPECT_EQ(to_shard_fragment(result).find("outcomes"), std::string::npos);

  result.extended_outcomes = true;
  const auto json = to_json(result);
  EXPECT_NE(json.find("\"RANK_DEAD\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"REPAIRED\": 0"), std::string::npos);
  const auto csv = to_csv(result.measured, true);
  EXPECT_NE(csv.find("RANK_DEAD,REPAIRED"), std::string::npos);
}

TEST(Export, FragmentRoundTripsExtendedOutcomeCounts) {
  StudyResult result;
  auto r = sample_result("lu.cpp:10", mpi::Param::SendBuf);
  r.record(inject::Outcome::RankDead);
  r.record(inject::Outcome::Repaired);
  result.measured.push_back(r);
  result.stats.total_points = 1;
  result.stats.after_semantic = 1;
  result.stats.after_context = 1;
  result.stats.nranks = 8;
  result.extended_outcomes = true;
  const auto fragment = to_shard_fragment(result);
  EXPECT_NE(fragment.find("outcomes 8"), std::string::npos);
  const auto merged = merge_fragments({fragment});
  ASSERT_TRUE(merged.extended_outcomes);
  ASSERT_EQ(merged.measured.size(), 1u);
  EXPECT_EQ(merged.measured[0].counts[static_cast<std::size_t>(
                inject::Outcome::RankDead)],
            1u);
  EXPECT_EQ(merged.measured[0].counts[static_cast<std::size_t>(
                inject::Outcome::Repaired)],
            1u);
  EXPECT_EQ(to_json(merged), to_json(result));
}

TEST(Export, RetiredHealthColumnsAreWrittenZeroAndIgnored) {
  // The health line's fourth column (storm recalibrations) and its last
  // two (rank-thread quarantines) are retired: a fragment always writes
  // them as 0, and one written by an older build with non-zero values
  // still parses and merges, the values dropped.
  StudyResult result;
  result.measured.push_back(sample_result("lu.cpp:10", mpi::Param::SendBuf));
  result.stats.total_points = 1;
  result.stats.after_semantic = 1;
  result.stats.after_context = 1;
  result.stats.nranks = 8;
  result.health.total_retries = 1;
  result.health.quarantined_points = 2;
  result.health.watchdog_confirmations = 3;
  result.health.replayed_trials = 4;
  result.health.deterministic_deadlocks = 5;
  auto fragment = to_shard_fragment(result);
  const std::string written = "\nhealth 1 2 3 0 4 5 0 0\n";
  const auto at = fragment.find(written);
  ASSERT_NE(at, std::string::npos) << fragment;
  fragment.replace(at, written.size(), "\nhealth 1 2 3 9 4 5 7 6\n");
  const auto merged = merge_fragments({fragment});
  EXPECT_EQ(merged.health.total_retries, 1u);
  EXPECT_EQ(merged.health.quarantined_points, 2u);
  EXPECT_EQ(merged.health.watchdog_confirmations, 3u);
  EXPECT_EQ(merged.health.replayed_trials, 4u);
  EXPECT_EQ(merged.health.deterministic_deadlocks, 5u);
  EXPECT_EQ(to_shard_fragment(merged), to_shard_fragment(result));
}

TEST(Export, FragmentRoundTripsEveryControlByte) {
  // A point's last error and autopsy are free text: bytes 0x01-0x1f must
  // survive to_shard_fragment -> merge_fragments unchanged.
  std::string text;
  for (int c = 0x01; c <= 0x1f; ++c) text += static_cast<char>(c);
  StudyResult result;
  auto r = sample_result("lu.cpp:10", mpi::Param::SendBuf);
  r.exec.last_error = "error " + text;
  r.exec.last_autopsy = "autopsy " + text;
  result.measured.push_back(r);
  result.stats.total_points = 1;
  result.stats.after_semantic = 1;
  result.stats.after_context = 1;
  result.stats.nranks = 8;
  const auto merged = merge_fragments({to_shard_fragment(result)});
  ASSERT_EQ(merged.measured.size(), 1u);
  EXPECT_EQ(merged.measured[0].exec.last_error, r.exec.last_error);
  EXPECT_EQ(merged.measured[0].exec.last_autopsy, r.exec.last_autopsy);
}

TEST(Export, MergeRejectsMixedOutcomeSets) {
  StudyResult result;
  result.measured.push_back(sample_result("lu.cpp:10", mpi::Param::SendBuf));
  result.stats.total_points = 2;
  result.stats.after_semantic = 2;
  result.stats.after_context = 2;
  result.stats.nranks = 8;
  result.shard = ShardSpec{1, 2};
  result.shard_ordinals = {0};
  const auto base = to_shard_fragment(result);
  result.shard = ShardSpec{2, 2};
  result.shard_ordinals = {1};
  result.extended_outcomes = true;
  const auto extended = to_shard_fragment(result);
  EXPECT_THROW(merge_fragments({base, extended}), ConfigError);
}

TEST(Export, WriteFileRoundTrips) {
  const std::string path = "/tmp/fastfit_export_test.csv";
  write_file(path, "hello,world\n");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello,world\n");
  std::remove(path.c_str());
}

TEST(Export, WriteFileFailsLoudly) {
  EXPECT_THROW(write_file("/nonexistent-dir/x.csv", "data"), ConfigError);
}

Enumeration sample_enumeration() {
  Enumeration e;
  e.stats.total_points = 500;
  e.stats.after_semantic = 50;
  e.stats.after_context = 2;
  e.stats.equivalence_classes = 2;
  e.stats.nranks = 8;
  e.classes.push_back(trace::EquivalenceClass{{0}});
  e.classes.push_back(trace::EquivalenceClass{{1, 2, 3, 4, 5, 6, 7}});
  e.points.push_back(sample_result("x.cpp:9", mpi::Param::Count).point);
  auto p2 = sample_result("y.cpp:18", mpi::Param::Op).point;
  p2.kind = mpi::CollectiveKind::Alltoallv;
  p2.phase = trace::ExecPhase::End;
  p2.errhal = false;
  e.points.push_back(p2);
  return e;
}

TEST(Export, EnumerationRoundTrips) {
  const auto original = sample_enumeration();
  const auto restored = enumeration_from_text(to_text(original));
  EXPECT_EQ(restored.stats.total_points, original.stats.total_points);
  EXPECT_EQ(restored.stats.after_context, original.stats.after_context);
  EXPECT_EQ(restored.stats.nranks, original.stats.nranks);
  ASSERT_EQ(restored.classes.size(), 2u);
  EXPECT_EQ(restored.classes[1].ranks, original.classes[1].ranks);
  ASSERT_EQ(restored.points.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& a = original.points[i];
    const auto& b = restored.points[i];
    EXPECT_EQ(a.site_id, b.site_id);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.invocation, b.invocation);
    EXPECT_EQ(a.param, b.param);
    EXPECT_EQ(a.stack, b.stack);
    EXPECT_EQ(a.phase, b.phase);
    EXPECT_EQ(a.errhal, b.errhal);
    EXPECT_EQ(a.n_inv, b.n_inv);
    EXPECT_DOUBLE_EQ(a.stack_depth, b.stack_depth);
    EXPECT_EQ(a.n_diff_stack, b.n_diff_stack);
    EXPECT_EQ(a.site_location, b.site_location);
  }
}

TEST(Export, EnumerationRejectsGarbage) {
  EXPECT_THROW(enumeration_from_text(""), ConfigError);
  EXPECT_THROW(enumeration_from_text("wrong header\nstats 1 1 1 1 1\n"),
               ConfigError);
  EXPECT_THROW(enumeration_from_text("fastfit-enumeration v1\n"),
               ConfigError);  // missing stats
  EXPECT_THROW(
      enumeration_from_text("fastfit-enumeration v1\nstats 1 1 1 1 1\n"
                            "point 1 99 0 0 0 0 0 0 1 1.0 1 x\n"),
      ConfigError);  // kind out of range
  EXPECT_THROW(
      enumeration_from_text("fastfit-enumeration v1\nstats 1 1 1 1 1\n"
                            "bogus-tag 3\n"),
      ConfigError);
}

TEST(Export, EnumerationRoundTripSurvivesRealProfile) {
  // End-to-end: profile a real workload, persist, restore, and verify the
  // restored points drive identical measurements.
  const auto workload = apps::make_workload("LU");
  CampaignOptions options;
  options.nranks = 8;
  options.trials_per_point = 4;
  Campaign campaign(*workload, options);
  campaign.profile();
  const auto restored =
      enumeration_from_text(to_text(campaign.enumeration()));
  ASSERT_EQ(restored.points.size(), campaign.enumeration().points.size());
  const auto direct = campaign.measure(campaign.enumeration().points[0], 4);
  const auto via_restored = campaign.measure(restored.points[0], 4);
  // Trials advance the campaign counter, so compare identity not counts.
  EXPECT_EQ(direct.point.site_id, via_restored.point.site_id);
  EXPECT_EQ(direct.point.invocation, via_restored.point.invocation);
  EXPECT_EQ(direct.trials, via_restored.trials);
}

}  // namespace
}  // namespace fastfit::core
