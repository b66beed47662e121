#pragma once

// miniMD: Lennard-Jones molecular dynamics, the LAMMPS (rhodopsin input)
// stand-in.
//
// Reproduces the traits that drive LAMMPS' distinctive fault-injection
// results in the paper:
//   - MPI_Allreduce dominates the collective mix (>84% in LAMMPS), and a
//     large share of those allreduces are *error handling* (>40.32% in
//     LAMMPS): the "Lost atoms" consistency check and the finite-energy
//     check run inside ErrorHandlingScope every step.
//   - Results are statistical: the digest quantizes energy/temperature
//     coarsely, so small numeric perturbations still count as SUCCESS —
//     the paper's explanation for LAMMPS' low WRONG_ANS rate.
//   - Collectives used: MPI_Bcast (input script), MPI_Allgather (position
//     sharing), MPI_Allreduce (physics + error handling), MPI_Barrier
//     (output steps), MPI_Reduce (final report).

#include "apps/workload.hpp"

namespace fastfit::apps {

struct MdConfig {
  int atoms_per_rank = 12;
  int steps = 8;
  double dt = 0.002;
  double target_temperature = 1.2;
  double density = 0.6;
};

class MiniMD final : public Workload {
 public:
  explicit MiniMD(MdConfig config = {}) : config_(config) {}

  std::string name() const override { return "miniMD"; }
  std::uint64_t run_rank(AppContext& ctx) const override;

 private:
  MdConfig config_;
};

}  // namespace fastfit::apps
