// Table III: reduction ratio after applying the three FastFIT techniques.
//
// Columns follow the paper: "MPI" = semantic-driven pruning, "App" =
// application-context pruning (relative to post-semantic), "ML" =
// ML-driven prediction (relative to post-structural; the paper applies ML
// only to LAMMPS because the NPB spaces are already small — reproduced
// here), "Total" = overall fraction of the exploration space whose
// response was obtained without direct injection.
//
// Paper values at 32 ranks: IS 96.88/90.00/NA/99.69, FT 96.31/95.24/NA/
// 99.78, MG 96.09/90.70/NA/99.64, LU 96.35/40.00/NA/97.81, LAMMPS
// 97.24/87.58/53.33/99.84 (all percent).

#include <cstdio>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "support/format.hpp"

using namespace fastfit;

int main() {
  bench::banner(
      "Table III — reduction ratio from the three FastFIT techniques",
      "Reduction ratio after applying the three techniques with FastFIT",
      "mini workloads; ML applied to the LAMMPS stand-in only, as in the "
      "paper");

  std::printf("%s%s%s%s%s%s\n", pad("App", 10).c_str(),
              pad("MPI", 10).c_str(), pad("App", 10).c_str(),
              pad("ML", 10).c_str(), pad("Total", 10).c_str(),
              "points(total->semantic->context->measured)");

  // The paper's Table III rows exactly: the four NPB kernels + LAMMPS.
  for (const std::string name : {"IS", "FT", "MG", "LU", "miniMD"}) {
    const bool use_ml = (name == "miniMD");
    const auto workload = apps::make_workload(name);
    core::StudyOptions options;
    options.campaign = bench::bench_campaign_options();
    options.use_ml = use_ml;
    options.ml.accuracy_threshold = 0.65;  // the paper's operating point
    options.ml.train_batch = 6;
    options.ml.verify_batch = 5;
    options.ml.forest.n_trees = 24;

    core::StudyDriver study(*workload, options);
    const auto result = study.run();
    const auto& s = result.stats;
    std::printf(
        "%s%s%s%s%s%llu -> %llu -> %llu -> %zu\n", pad(name, 10).c_str(),
        pad(percent(s.semantic_reduction()), 10).c_str(),
        pad(percent(s.context_reduction()), 10).c_str(),
        pad(use_ml ? percent(result.ml_reduction) : std::string("NA"), 10)
            .c_str(),
        pad(percent(result.total_reduction()), 10).c_str(),
        static_cast<unsigned long long>(s.total_points),
        static_cast<unsigned long long>(s.after_semantic),
        static_cast<unsigned long long>(s.after_context),
        result.measured.size());
  }
  std::printf(
      "\nexpected shape: semantic reduction scales with rank count "
      "(~94%% at 16 ranks, ~97%% at 32 — set FASTFIT_BENCH_RANKS=32 to "
      "match the paper's scale); totals exceed 90%% everywhere; ML adds "
      "roughly half of the remaining points for the LAMMPS stand-in\n");
  return 0;
}
