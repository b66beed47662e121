// Cross-product integration sweep: small but complete studies across
// (workload x fault model), asserting the structural invariants that
// every campaign must satisfy regardless of configuration.

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "core/report.hpp"
#include "core/study.hpp"

namespace fastfit::core {
namespace {

class StudyMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
};

TEST_P(StudyMatrix, InvariantsHold) {
  const auto& [workload_name, model_index] = GetParam();
  const auto workload = apps::make_workload(workload_name);

  StudyOptions options;
  options.campaign.nranks = 8;
  options.campaign.trials_per_point = 2;
  options.campaign.seed = 777 + model_index;
  options.campaign.fault_models = {
      inject::FaultModelSpec{static_cast<inject::FaultModel>(model_index)}};
  options.use_ml = false;  // measure everything: strongest invariants

  StudyDriver study(*workload, options);
  const auto result = study.run();

  // Structure: counts are monotone, every point measured exactly once.
  const auto& s = result.stats;
  EXPECT_GT(s.total_points, 0u);
  EXPECT_LE(s.after_semantic, s.total_points);
  EXPECT_LE(s.after_context, s.after_semantic);
  EXPECT_EQ(result.measured.size(), s.after_context);
  EXPECT_TRUE(result.predicted.empty());

  // Per point: trials add up; fractions form a distribution.
  for (const auto& r : result.measured) {
    EXPECT_EQ(r.trials, 2u);
    std::uint32_t total = 0;
    for (auto c : r.counts) total += c;
    EXPECT_EQ(total, r.trials);
    EXPECT_GE(r.error_rate(), 0.0);
    EXPECT_LE(r.error_rate(), 1.0);
  }

  // Aggregates: the outcome distribution sums to 1.
  const auto dist = outcome_distribution(result.measured);
  double sum = 0.0;
  for (double v : dist) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);

  // Reductions: bounded and consistent.
  EXPECT_GE(s.semantic_reduction(), 0.0);
  EXPECT_LE(s.structural_reduction(), 1.0);
  EXPECT_DOUBLE_EQ(result.total_reduction(), s.structural_reduction());
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsByFaultModel, StudyMatrix,
    // The parameter-mutation models (0-4); message/fail-stop models have
    // dedicated campaign suites (test_failstop_campaign).
    ::testing::Combine(::testing::Values("FT", "LU", "CG", "EP"),
                       ::testing::Values(0u, 1u, 2u, 3u, 4u)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_model" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace fastfit::core
