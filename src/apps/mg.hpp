#pragma once

// mini-MG: multigrid V-cycle Poisson solver, after NPB MG.
//
// Solves -u'' = f on a distributed 1-D grid with weighted-Jacobi smoothing,
// full-weighting restriction, and linear prolongation. Matches the NPB
// kernel's communication profile: point-to-point halo exchange inside the
// smoother, MPI_Allreduce for residual norms after every V-cycle,
// MPI_Bcast for setup, MPI_Barrier between cycles, and a final MPI_Reduce
// of the norm. The convergence check after each cycle (residual must not
// diverge, must stay finite) is the workload's error handling.

#include "apps/workload.hpp"

namespace fastfit::apps {

struct MgConfig {
  /// Global grid size; a power of two divisible by the rank count.
  int npoints = 512;
  int vcycles = 3;
  int pre_smooth = 2;
  int post_smooth = 2;
  int coarse_smooth = 8;
};

class MiniMG final : public Workload {
 public:
  explicit MiniMG(MgConfig config = {}) : config_(config) {}

  std::string name() const override { return "MG"; }
  std::uint64_t run_rank(AppContext& ctx) const override;

 private:
  MgConfig config_;
};

}  // namespace fastfit::apps
