// ML-driven prediction: run the injection/learning feedback loop, stop at
// the accuracy threshold, and use the model for the untested points —
// printing what the paper's Figs 4-6 are about: the learned tree, the
// feature importances, and the predicted sensitivity of points that were
// never injected.
//
// Usage:  predict_untested [workload] [accuracy-threshold]

#include <cstdio>
#include <cstdlib>

#include "apps/registry.hpp"
#include "core/study.hpp"
#include "stats/levels.hpp"
#include "support/format.hpp"

using namespace fastfit;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "miniMD";
  const double threshold = argc > 2 ? std::atof(argv[2]) : 0.65;

  const auto workload = apps::make_workload(name);
  core::StudyOptions study;
  study.campaign.nranks = 16;
  study.campaign.seed = 0x5eedULL;
  study.campaign.trials_per_point = 10;
  // Drive the ML loop by hand below (to print the model) instead of
  // letting run() own it.
  study.use_ml = false;
  core::StudyDriver driver(*workload, std::move(study));
  driver.profile();
  auto& campaign = driver.campaign();

  core::MlLoopConfig config;
  config.mode = core::LabelMode::ErrorRateLevel;
  config.thresholds = stats::even_thresholds(4);
  config.accuracy_threshold = threshold;

  std::printf("=== ML-driven fault injection on %s (threshold %s) ===\n\n",
              name.c_str(), percent(threshold, 0).c_str());
  auto result =
      core::run_ml_loop(campaign, campaign.enumeration().points, config);

  std::printf("measured %zu points in %zu rounds; verification accuracy "
              "%s (%s)\n",
              result.measured.size(), result.rounds,
              percent(result.final_accuracy).c_str(),
              result.threshold_reached ? "threshold reached"
                                       : "ran out of points");
  std::printf("predicted %zu untested points (ML reduction %s)\n\n",
              result.predicted.size(),
              percent(result.ml_reduction()).c_str());

  if (result.model) {
    const auto names = stats::level_names(4);
    std::printf("one tree of the forest (cf. paper Fig 4):\n%s\n",
                result.model->render_tree(0, names).c_str());

    const auto importance = result.model->feature_importance();
    std::printf("feature importance:\n");
    for (std::size_t f = 0; f < ml::kNumFeatures; ++f) {
      std::printf("  %-12s %s\n",
                  to_string(static_cast<ml::Feature>(f)),
                  percent(importance[f]).c_str());
    }

    std::printf("\npredicted sensitivity of untested points (first 10):\n");
    for (std::size_t i = 0;
         i < std::min<std::size_t>(10, result.predicted.size()); ++i) {
      const auto& [point, label] = result.predicted[i];
      std::printf("  %-22s %-10s at %-18s -> %s\n",
                  mpi::to_string(point.kind), to_string(point.param),
                  point.site_location.c_str(), names[label].c_str());
    }
    std::printf("\na resilience designer would now protect the points "
                "predicted med-high/high without ever injecting them — the "
                "paper's \"decision making\" use case.\n");
  }
  return 0;
}
