#pragma once

// mini-FT: 3-D FFT PDE solver, after NPB FT.
//
// Solves u_t = alpha * laplacian(u) spectrally: forward 3-D FFT of the
// initial field, per-step multiplication by exp(-4 pi^2 alpha t |k|^2),
// inverse FFT, checksum. Decomposition is 1-D slabs over z; the z-direction
// FFT requires a transpose implemented with MPI_Alltoall — exactly the
// collective/structure mix of the NPB kernel. Each iteration reduces a
// complex checksum to rank 0 with MPI_Reduce (the collective of the
// paper's Fig 2), and the setup phase broadcasts parameters with
// MPI_Bcast.

#include "apps/workload.hpp"

namespace fastfit::apps {

struct FtConfig {
  /// Grid extents; nz must be divisible by the rank count, and nx, ny, nz
  /// must be powers of two. nx*ny must be divisible by the rank count.
  int nx = 8;
  int ny = 8;
  int nz = 32;
  int iterations = 3;
  double alpha = 1e-4;
};

class MiniFT final : public Workload {
 public:
  explicit MiniFT(FtConfig config = {}) : config_(config) {}

  std::string name() const override { return "FT"; }
  std::uint64_t run_rank(AppContext& ctx) const override;

 private:
  FtConfig config_;
};

}  // namespace fastfit::apps
