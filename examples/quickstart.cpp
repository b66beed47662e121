// Quickstart: inject one bit flip into a collective and classify the
// application's response.
//
// This is the smallest end-to-end use of the library:
//   1. write an SPMD workload against the MiniMPI facade,
//   2. profile it once (FastFIT's phase 1),
//   3. pick an injection point and run faulted trials,
//   4. read the Table-I outcome.
//
// The injection campaign honours the paper's Table II environment
// variables: try
//   NUM_INJ=50 PARAM_ID=4 ./quickstart
// to run 50 trials against parameter 4 (the reduction op).

#include <cstdio>
#include <utility>

#include "apps/common.hpp"
#include "apps/workload.hpp"
#include "core/study.hpp"
#include "support/config.hpp"

using namespace fastfit;

namespace {

/// A toy workload: every rank contributes to a running global sum and
/// checks a simple invariant (its own error handling).
class GlobalSum final : public apps::Workload {
 public:
  std::string name() const override { return "global-sum"; }

  std::uint64_t run_rank(apps::AppContext& ctx) const override {
    auto& mpi = ctx.mpi;
    ctx.trace.set_phase(trace::ExecPhase::Compute);
    std::int64_t total = 0;
    for (int step = 0; step < 5; ++step) {
      trace::FunctionScope scope(ctx.trace, "accumulate");
      total += mpi.allreduce_value<std::int64_t>(mpi.rank() + 1, mpi::kSum);
      {
        // The workload's own sanity check -> APP_DETECTED when violated.
        trace::ErrorHandlingScope errhal(ctx.trace);
        apps::app_check(total >= 0, "global sum went negative");
      }
    }
    return static_cast<std::uint64_t>(total);
  }
};

}  // namespace

int main() {
  // Table II configuration from the environment (defaults otherwise).
  const auto config = InjectionConfig::from_environment();

  GlobalSum workload;
  core::CampaignOptions options;
  options.nranks = 8;
  options.trials_per_point = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(config.num_inj, 1000));
  options.seed = config.seed;

  // The study pipeline owns engine construction; profile() is the golden
  // run + profiling run + pruning, after which the campaign engine is
  // ready for hand-driven measurement.
  core::StudyOptions study;
  study.campaign = options;
  study.use_ml = false;
  core::StudyDriver driver(workload, std::move(study));
  driver.profile();
  auto& campaign = driver.campaign();

  const auto& points = campaign.enumeration().points;
  std::printf("profiling found %zu injection points after pruning "
              "(%llu before)\n",
              points.size(),
              static_cast<unsigned long long>(
                  campaign.stats().total_points));

  // Choose a point: the PARAM_ID-th parameter of the first site, or the
  // first point if unset.
  core::InjectionPoint chosen = points.front();
  if (config.param_id) {
    for (const auto& point : points) {
      if (static_cast<std::uint8_t>(point.param) == *config.param_id) {
        chosen = point;
        break;
      }
    }
  }
  if (config.rank_id) chosen.rank = static_cast<int>(*config.rank_id);
  if (config.inv_id) chosen.invocation = *config.inv_id;

  std::printf("injecting %u single-bit faults into %s of %s at %s "
              "(rank %d, invocation %llu)\n",
              options.trials_per_point, to_string(chosen.param),
              mpi::to_string(chosen.kind), chosen.site_location.c_str(),
              chosen.rank,
              static_cast<unsigned long long>(chosen.invocation));

  const auto result = campaign.measure(chosen);
  std::printf("\nresponse distribution (paper Table I taxonomy):\n");
  for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
    std::printf("  %-13s %u/%u\n", inject::outcome_names()[o].c_str(),
                result.counts[o], result.trials);
  }
  std::printf("error rate: %.1f%%\n", result.error_rate() * 100.0);
  return 0;
}
