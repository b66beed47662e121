// End-to-end study integration: the three-phase study on real workloads.

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "core/report.hpp"
#include "core/study.hpp"

namespace fastfit::core {
namespace {

StudyOptions small_study() {
  StudyOptions opts;
  opts.campaign.nranks = 8;
  opts.campaign.trials_per_point = 5;
  opts.campaign.seed = 4242;
  opts.ml.accuracy_threshold = 0.5;
  opts.ml.train_batch = 6;
  opts.ml.verify_batch = 4;
  opts.ml.forest.n_trees = 12;
  return opts;
}

TEST(StudyDriver, FullStudyOnMiniMD) {
  const auto workload = apps::make_workload("miniMD");
  StudyDriver study(*workload, small_study());
  const auto result = study.run();

  // Structural pruning must be substantial (the paper's headline claim).
  EXPECT_GT(result.stats.structural_reduction(), 0.85);
  EXPECT_GT(result.total_reduction(), 0.9);
  EXPECT_FALSE(result.measured.empty());
  // Every point is either measured or predicted.
  EXPECT_EQ(result.measured.size() + result.predicted.size(),
            result.stats.after_context);
  // The report layer can digest the study.
  const auto dist = outcome_distribution(result.measured);
  double sum = 0.0;
  for (double v : dist) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(StudyDriver, TraditionalModeMeasuresEverything) {
  auto opts = small_study();
  opts.use_ml = false;
  opts.campaign.trials_per_point = 2;
  const auto workload = apps::make_workload("LU");
  StudyDriver study(*workload, opts);
  const auto result = study.run();
  EXPECT_TRUE(result.predicted.empty());
  EXPECT_EQ(result.measured.size(), result.stats.after_context);
  EXPECT_EQ(result.ml_reduction, 0.0);
}

TEST(StudyDriver, SingleUse) {
  const auto workload = apps::make_workload("LU");
  auto opts = small_study();
  opts.use_ml = false;
  opts.campaign.trials_per_point = 1;
  StudyDriver study(*workload, opts);
  study.run();
  EXPECT_THROW(study.run(), InternalError);
}

TEST(StudyDriver, CampaignBeforeRunThrowsInsteadOfHandingOutAnUnprofiledEngine) {
  // Regression: campaign() used to return the unprofiled engine, whose
  // every accessor (stats, enumeration, golden digest) then failed from
  // deeper, more confusing places.
  const auto workload = apps::make_workload("LU");
  auto opts = small_study();
  opts.use_ml = false;
  opts.campaign.trials_per_point = 1;
  StudyDriver study(*workload, opts);
  EXPECT_THROW(study.campaign(), InternalError);
  const StudyDriver& const_study = study;
  EXPECT_THROW(const_study.campaign(), InternalError);
  study.run();
  EXPECT_NO_THROW(study.campaign().stats());
  EXPECT_NO_THROW(const_study.campaign().golden_digest());
}

TEST(StudyDriver, StudyIsReproducible) {
  const auto workload = apps::make_workload("LU");
  auto opts = small_study();
  opts.campaign.trials_per_point = 3;
  StudyDriver s1(*workload, opts);
  StudyDriver s2(*workload, opts);
  const auto r1 = s1.run();
  const auto r2 = s2.run();
  ASSERT_EQ(r1.measured.size(), r2.measured.size());
  for (std::size_t i = 0; i < r1.measured.size(); ++i) {
    EXPECT_EQ(r1.measured[i].counts, r2.measured[i].counts);
    EXPECT_EQ(r1.measured[i].point.site_id, r2.measured[i].point.site_id);
  }
  ASSERT_EQ(r1.predicted.size(), r2.predicted.size());
  for (std::size_t i = 0; i < r1.predicted.size(); ++i) {
    EXPECT_EQ(r1.predicted[i].second, r2.predicted[i].second);
  }
}

TEST(StudyDriver, BarrierFaultsAreSevere) {
  // Paper Figs 8/11: faulty MPI_Barrier has a lethal effect. A corrupted
  // communicator handle on a barrier is either MPI_ERR (invalid handle) or
  // INF_LOOP (valid-but-wrong communicator): never harmless.
  const auto workload = apps::make_workload("MG");
  auto opts = small_study();
  opts.use_ml = false;
  opts.campaign.trials_per_point = 8;
  StudyDriver study(*workload, opts);
  const auto result = study.run();
  bool found = false;
  for (const auto& r : result.measured) {
    if (r.point.kind != mpi::CollectiveKind::Barrier) continue;
    found = true;
    EXPECT_GT(r.error_rate(), 0.5) << "barrier faults should be severe";
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace fastfit::core
