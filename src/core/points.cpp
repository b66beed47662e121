#include "core/points.hpp"

#include "support/error.hpp"

namespace fastfit::core {

ml::FeatureVec InjectionPoint::features() const {
  ml::FeatureVec x{};
  x[static_cast<std::size_t>(ml::Feature::Type)] =
      static_cast<double>(static_cast<int>(kind));
  x[static_cast<std::size_t>(ml::Feature::Phase)] =
      static_cast<double>(static_cast<int>(phase));
  x[static_cast<std::size_t>(ml::Feature::ErrHal)] = errhal ? 1.0 : 0.0;
  x[static_cast<std::size_t>(ml::Feature::NInv)] =
      static_cast<double>(n_inv);
  x[static_cast<std::size_t>(ml::Feature::StackDep)] = stack_depth;
  x[static_cast<std::size_t>(ml::Feature::NDiffStack)] =
      static_cast<double>(n_diff_stack);
  return x;
}

inject::FaultSpec InjectionPoint::fault_spec(std::uint64_t trial) const {
  inject::FaultSpec spec;
  spec.site_id = site_id;
  spec.rank = rank;
  spec.invocation = invocation;
  spec.param = param;
  spec.trial = trial;
  spec.fault = fault;
  spec.family = family;
  spec.p2p_param = p2p_param;
  return spec;
}

double PruningStats::semantic_reduction() const {
  if (total_points == 0) return 0.0;
  return 1.0 - static_cast<double>(after_semantic) /
                   static_cast<double>(total_points);
}

double PruningStats::context_reduction() const {
  if (after_semantic == 0) return 0.0;
  return 1.0 - static_cast<double>(after_context) /
                   static_cast<double>(after_semantic);
}

double PruningStats::structural_reduction() const {
  if (total_points == 0) return 0.0;
  return 1.0 - static_cast<double>(after_context) /
                   static_cast<double>(total_points);
}

double PointResult::error_rate() const {
  if (trials == 0) return 0.0;
  const auto successes =
      counts[static_cast<std::size_t>(inject::Outcome::Success)];
  return 1.0 - static_cast<double>(successes) / static_cast<double>(trials);
}

double PointResult::fraction(inject::Outcome outcome) const {
  if (trials == 0) return 0.0;
  return static_cast<double>(counts[static_cast<std::size_t>(outcome)]) /
         static_cast<double>(trials);
}

inject::Outcome PointResult::dominant() const {
  std::size_t best = 0;
  for (std::size_t o = 1; o < inject::kNumOutcomes; ++o) {
    if (counts[o] > counts[best]) best = o;
  }
  return static_cast<inject::Outcome>(best);
}

}  // namespace fastfit::core
