#pragma once

// mini-IS: integer sort by bucket ranking, after NPB IS.
//
// Structure and collective usage follow the NPB kernel: per iteration a
// local bucket histogram is combined with MPI_Allreduce, per-destination
// key counts are exchanged with MPI_Alltoall, and the keys themselves move
// with MPI_Alltoallv; verification uses MPI_Allgather (bucket boundaries)
// and MPI_Reduce (global key sum). Partial verification inside the loop —
// a received key outside the rank's bucket range aborts — provides the
// APP_DETECTED path.

#include "apps/workload.hpp"

namespace fastfit::apps {

struct IsConfig {
  std::int32_t keys_per_rank = 192;
  std::int32_t max_key = 1 << 11;
  int iterations = 3;
};

class MiniIS final : public Workload {
 public:
  explicit MiniIS(IsConfig config = {}) : config_(config) {}

  std::string name() const override { return "IS"; }
  std::uint64_t run_rank(AppContext& ctx) const override;

 private:
  IsConfig config_;
};

}  // namespace fastfit::apps
