#pragma once

// mini-EP: embarrassingly parallel Gaussian-deviate counting, after NPB
// EP.
//
// Each rank generates uniform pairs, accepts those inside the unit disk,
// transforms them to Gaussian deviates (Marsaglia polar method), and
// tallies them into concentric annuli. Communication happens only at the
// edges: a parameter broadcast up front and the final tally/extrema
// reductions — the sparsest collective profile in the suite, which is
// exactly why NPB includes it. The tally-consistency check (counts sum
// to the number of accepted pairs) is the workload's error handling.

#include "apps/workload.hpp"

namespace fastfit::apps {

struct EpConfig {
  int pairs_per_rank = 4096;
  int annuli = 10;
};

class MiniEP final : public Workload {
 public:
  explicit MiniEP(EpConfig config = {}) : config_(config) {}

  std::string name() const override { return "EP"; }
  std::uint64_t run_rank(AppContext& ctx) const override;

 private:
  EpConfig config_;
};

}  // namespace fastfit::apps
