#pragma once

// mini-CG: conjugate gradient on a sparse SPD system, after NPB CG.
//
// The grid of collectives matches the kernel's logical structure: the
// solution vector is shared for the distributed mat-vec with
// MPI_Allgather, the dot products of CG combine with MPI_Allreduce (two
// per iteration — CG is the most allreduce-bound NPB kernel), setup uses
// MPI_Bcast, and the final residual verification uses MPI_Reduce. The
// per-iteration convergence check (rho finite, non-negative) is the
// workload's error handling.

#include "apps/workload.hpp"

namespace fastfit::apps {

struct CgConfig {
  /// Global unknowns; divisible by the rank count.
  int unknowns = 256;
  int iterations = 8;
  /// Off-diagonal fill per row (sparse band + random couplings).
  int couplings = 4;
};

class MiniCG final : public Workload {
 public:
  explicit MiniCG(CgConfig config = {}) : config_(config) {}

  std::string name() const override { return "CG"; }
  std::uint64_t run_rank(AppContext& ctx) const override;

 private:
  CgConfig config_;
};

}  // namespace fastfit::apps
