// Custom workload: how a user brings their own application to FastFIT.
//
// The example implements a 1-D heat-diffusion stencil with halo exchange
// and an allreduce-based convergence test, annotates it (function scopes,
// phases, error handling), and runs a compact sensitivity study. This is
// the template to follow for any new code: the only requirements are
// (a) allocate MPI-visible buffers through the rank's MemoryRegistry,
// (b) annotate structure through the trace::RankContext, and
// (c) return a result digest from run_rank.

#include <cmath>
#include <cstdio>

#include "apps/common.hpp"
#include "apps/workload.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "support/format.hpp"

using namespace fastfit;

namespace {

class HeatDiffusion final : public apps::Workload {
 public:
  std::string name() const override { return "heat-diffusion"; }

  std::uint64_t run_rank(apps::AppContext& ctx) const override {
    auto& mpi = ctx.mpi;
    auto& tr = ctx.trace;
    const int n = mpi.size();
    const int me = mpi.rank();
    constexpr int kCellsPerRank = 32;
    constexpr int kSteps = 12;

    // Init: agree on the diffusion coefficient.
    tr.set_phase(trace::ExecPhase::Init);
    double kappa = 0.0;
    {
      trace::FunctionScope scope(tr, "setup");
      kappa = mpi.bcast_value(me == 0 ? 0.4 : 0.0, 0);
      trace::ErrorHandlingScope errhal(tr);
      apps::app_check(kappa > 0.0 && kappa < 0.5,
                      "heat: unstable diffusion coefficient");
    }

    // Input: a hot spot in the middle of the domain.
    tr.set_phase(trace::ExecPhase::Input);
    std::vector<double> temp(kCellsPerRank + 2, 0.0);
    if (me == n / 2) temp[kCellsPerRank / 2] = 100.0;
    mpi::ScopedRegistration keep(mpi.registry(), temp.data(),
                                 temp.size() * sizeof(double));

    // Compute: explicit time stepping with halo exchange.
    tr.set_phase(trace::ExecPhase::Compute);
    double total_heat = 0.0;
    for (int step = 0; step < kSteps; ++step) {
      trace::FunctionScope scope(tr, "diffuse_step");
      mpi.check_deadline();
      {
        trace::FunctionScope halo(tr, "halo_exchange");
        if (me + 1 < n) mpi.send(&temp[kCellsPerRank], 1, mpi::kDouble, me + 1, 1);
        if (me > 0) {
          mpi.send(&temp[1], 1, mpi::kDouble, me - 1, 1);
          mpi.recv(&temp[0], 1, mpi::kDouble, me - 1, 1);
        } else {
          temp[0] = temp[1];
        }
        if (me + 1 < n) {
          mpi.recv(&temp[kCellsPerRank + 1], 1, mpi::kDouble, me + 1, 1);
        } else {
          temp[kCellsPerRank + 1] = temp[kCellsPerRank];
        }
      }
      // Update in place via a scratch copy: `temp`'s storage stays put
      // because it is registered with the MemoryRegistry.
      std::vector<double> prev(temp);
      for (int i = 1; i <= kCellsPerRank; ++i) {
        temp[i] = prev[i] + kappa * (prev[i - 1] - 2 * prev[i] + prev[i + 1]);
      }

      // Conservation check: total heat is invariant under diffusion.
      {
        trace::FunctionScope check(tr, "conservation_check");
        double local = 0.0;
        for (int i = 1; i <= kCellsPerRank; ++i) local += temp[i];
        total_heat = mpi.allreduce_value(local, mpi::kSum);
        trace::ErrorHandlingScope errhal(tr);
        apps::app_check_finite(total_heat, "heat: total heat");
        apps::app_check(std::abs(total_heat - 100.0) < 1e-6,
                        "heat: conservation violated");
      }
    }

    // End: digest of the final field.
    tr.set_phase(trace::ExecPhase::End);
    std::vector<double> observables(temp.begin() + 1,
                                    temp.end() - 1);
    observables.push_back(total_heat);
    return apps::digest_doubles(observables, 9);
  }
};

}  // namespace

int main() {
  HeatDiffusion workload;
  core::StudyOptions options;
  options.campaign.nranks = 8;
  options.campaign.trials_per_point = 12;
  options.use_ml = false;  // small space: measure everything

  std::printf("=== FastFIT on a custom workload: %s ===\n\n",
              workload.name().c_str());
  core::StudyDriver study(workload, options);
  const auto result = study.run();

  std::printf("pruning: %llu -> %llu -> %llu points\n\n",
              static_cast<unsigned long long>(result.stats.total_points),
              static_cast<unsigned long long>(result.stats.after_semantic),
              static_cast<unsigned long long>(result.stats.after_context));

  std::vector<std::pair<std::string,
                        std::array<double, inject::kNumOutcomes>>>
      rows;
  for (auto param : core::params_present(result.measured)) {
    rows.emplace_back(
        to_string(param),
        core::outcome_distribution(result.measured, std::nullopt, param));
  }
  std::printf("response by injected parameter:\n%s\n",
              core::render_outcome_table(rows).c_str());
  std::printf("note how the conservation check turns silent data corruption "
              "into APP_DETECTED — that is the ErrHal effect the paper "
              "quantifies in Table IV.\n");
  return 0;
}
