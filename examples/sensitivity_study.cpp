// Sensitivity study: the full three-phase FastFIT pipeline on a bundled
// workload — profiling, structural pruning, the injection/learning loop,
// and a complete report (communication profile, pruning statistics,
// per-collective response distributions, error-rate levels, feature
// correlations).
//
// Usage:  sensitivity_study [IS|FT|MG|LU|miniMD] [nranks] [trials]

#include <cstdio>
#include <cstdlib>

#include "apps/registry.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "profile/queries.hpp"
#include "stats/levels.hpp"
#include "support/format.hpp"

using namespace fastfit;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "miniMD";
  const int nranks = argc > 2 ? std::atoi(argv[2]) : 16;
  const auto trials =
      argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 12u;

  const auto workload = apps::make_workload(name);
  core::StudyOptions options;
  options.campaign.nranks = nranks;
  options.campaign.trials_per_point = trials;
  options.use_ml = true;
  options.ml.accuracy_threshold = 0.65;

  std::printf("=== FastFIT sensitivity study: %s (%d ranks, %u trials per "
              "point) ===\n\n",
              name.c_str(), nranks, trials);

  core::StudyDriver study(*workload, options);
  const auto result = study.run();

  // --- communication profile (mpiP-like) --------------------------------
  std::printf("%s\n", profile::mpip_report(study.campaign().profiler()).c_str());

  // --- pruning statistics (Table III row) --------------------------------
  const auto& stats = result.stats;
  std::printf("pruning: %llu points -> %llu (semantic, %s) -> %llu "
              "(context, %s); ML predicted %s of the remainder; total "
              "reduction %s\n\n",
              static_cast<unsigned long long>(stats.total_points),
              static_cast<unsigned long long>(stats.after_semantic),
              percent(stats.semantic_reduction()).c_str(),
              static_cast<unsigned long long>(stats.after_context),
              percent(stats.context_reduction()).c_str(),
              percent(result.ml_reduction).c_str(),
              percent(result.total_reduction()).c_str());

  // --- response distributions per collective -----------------------------
  std::vector<std::pair<std::string,
                        std::array<double, inject::kNumOutcomes>>>
      outcome_rows;
  for (auto kind : core::kinds_present(result.measured)) {
    outcome_rows.emplace_back(
        mpi::to_string(kind),
        core::outcome_distribution(result.measured, kind));
  }
  outcome_rows.emplace_back("ALL",
                            core::outcome_distribution(result.measured));
  std::printf("response by error type (measured points):\n%s\n",
              core::render_outcome_table(outcome_rows).c_str());

  // --- error-rate levels ---------------------------------------------------
  const auto thresholds = stats::skewed_low_med_high();
  std::vector<std::pair<std::string, std::vector<double>>> level_rows;
  for (auto kind : core::kinds_present(result.measured)) {
    level_rows.emplace_back(
        mpi::to_string(kind),
        core::level_distribution(result.measured, kind, thresholds));
  }
  std::printf("error-rate levels (low <15%%, med 15-85%%, high >85%%):\n%s\n",
              core::render_level_table(level_rows, {"low", "med", "high"})
                  .c_str());

  // --- feature correlations (Table IV style, buffer faults) --------------
  std::vector<core::PointResult> buffer_points;
  for (const auto& r : result.measured) {
    if (r.point.param == mpi::Param::SendBuf ||
        r.point.param == mpi::Param::RecvBuf) {
      buffer_points.push_back(r);
    }
  }
  if (buffer_points.size() >= 4) {
    std::printf("feature/error-rate correlations (Eq. 1; 0.5 = no effect):\n");
    for (const auto& [feature, value] :
         core::feature_correlations(buffer_points,
                                    stats::even_thresholds(4))) {
      std::printf("  %-14s %.2f\n", feature.c_str(), value);
    }
  }

  // --- most sensitive points ----------------------------------------------
  auto sorted = result.measured;
  std::sort(sorted.begin(), sorted.end(),
            [](const core::PointResult& a, const core::PointResult& b) {
              return a.error_rate() > b.error_rate();
            });
  std::printf("\nmost sensitive injection points:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, sorted.size()); ++i) {
    const auto& r = sorted[i];
    std::printf("  %-22s %-10s at %-18s error rate %s (dominant: %s)\n",
                mpi::to_string(r.point.kind), to_string(r.point.param),
                r.point.site_location.c_str(),
                percent(r.error_rate()).c_str(),
                to_string(r.dominant()));
  }
  return 0;
}
