#pragma once

// mini-LU: pipelined SSOR solver, after NPB LU.
//
// Solves a diffusion-reaction system on a distributed 1-D grid with
// symmetric successive over-relaxation: the forward (lower-triangular)
// sweep pipelines left-to-right through the ranks with point-to-point
// messages, the backward sweep right-to-left — NPB LU's wavefront
// structure in one dimension. Every iteration combines the RMS residual
// with MPI_Allreduce (the collective of the paper's Fig 1); setup uses
// MPI_Bcast and the final verification norms use MPI_Allreduce again.

#include "apps/workload.hpp"

namespace fastfit::apps {

struct LuConfig {
  /// Global grid size, divisible by the rank count.
  int npoints = 512;
  int iterations = 5;
  double omega = 1.2;   ///< SSOR relaxation factor
  double sigma = 10.0;  ///< reaction coefficient (keeps the system SPD-ish)
};

class MiniLU final : public Workload {
 public:
  explicit MiniLU(LuConfig config = {}) : config_(config) {}

  std::string name() const override { return "LU"; }
  std::uint64_t run_rank(AppContext& ctx) const override;

  /// LU opts into ULFM-style shrink-and-continue: after a peer's
  /// fail-stop death the survivors run a deterministic recovery protocol
  /// over the shrunk communicator (see repair_rank).
  bool can_repair() const override { return true; }
  std::uint64_t repair_rank(AppContext& ctx,
                            mpi::Comm survivors) const override;

 private:
  LuConfig config_;
};

}  // namespace fastfit::apps
