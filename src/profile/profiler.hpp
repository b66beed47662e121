#pragma once

// The profiling tool: a ToolHooks implementation that observes every
// collective call during a fault-free run and populates, per rank, the
// communication profile, the call-stack profile, and the comm trace
// (the call graph is populated by the workload's FunctionScopes in the
// same ContextRegistry).
//
// Each rank writes only its own RankProfile slot and its own
// RankContext, all on the world's one thread, so recording takes no
// lock; results are read after World::run has returned.

#include <memory>
#include <vector>

#include "minimpi/hooks.hpp"
#include "profile/records.hpp"
#include "trace/rank_context.hpp"

namespace fastfit::profile {

class Profiler final : public mpi::ToolHooks {
 public:
  /// `contexts` is the registry the workload annotates; the profiler reads
  /// stack/phase/errhal state from it and appends comm-trace events to it.
  explicit Profiler(trace::ContextRegistry& contexts);

  void on_enter(mpi::CollectiveCall& call, mpi::Mpi& mpi) override;
  void on_exit(const mpi::CollectiveCall& call, mpi::Mpi& mpi) override;
  void on_p2p(mpi::P2pCall& call, mpi::Mpi& mpi) override;

  const RankProfile& rank(int r) const;
  int nranks() const noexcept { return static_cast<int>(profiles_.size()); }
  const trace::ContextRegistry& contexts() const noexcept { return *contexts_; }

 private:
  trace::ContextRegistry* contexts_;
  std::vector<std::unique_ptr<RankProfile>> profiles_;
};

/// Payload bytes rank `rank_in_comm` contributes to `call` (what mpiP
/// would attribute). Tolerates only fault-free calls.
std::uint64_t contribution_bytes(const mpi::CollectiveCall& call,
                                 int comm_size);

}  // namespace fastfit::profile
