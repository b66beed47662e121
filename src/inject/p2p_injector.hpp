#pragma once

// Point-to-point fault injection: the paper's future-work extension of
// FastFIT to "other programming elements of an HPC application". The
// fault model, targeting, and outcome taxonomy are identical to the
// collective injector; only the interposition point differs.

#include <string>

#include "inject/fault_model.hpp"
#include "minimpi/hooks.hpp"
#include "support/rng.hpp"

namespace fastfit::inject {

struct P2pFaultSpec {
  std::uint32_t site_id = 0;
  int rank = 0;
  std::uint64_t invocation = 0;
  mpi::P2pParam param{};
  std::uint64_t trial = 0;
  FaultModel model = FaultModel::SingleBitFlip;

  bool operator==(const P2pFaultSpec&) const = default;

  /// RNG stream index mixed from all the coordinates; see
  /// FaultSpec::stream_index for the determinism contract.
  std::uint64_t stream_index() const noexcept;

  std::string describe() const;
};

/// Corrupts `param` of a point-to-point call in place. Returns false for
/// provable no-ops (empty/unmapped buffer, unchanged value).
bool corrupt_p2p_parameter(mpi::P2pCall& call, mpi::P2pParam param,
                           FaultModel model, RngStream& rng, mpi::Mpi& mpi);

class P2pInjector final : public mpi::ToolHooks {
 public:
  P2pInjector(P2pFaultSpec spec, std::uint64_t seed);

  void on_enter(mpi::CollectiveCall&, mpi::Mpi&) override {}
  void on_exit(const mpi::CollectiveCall&, mpi::Mpi&) override {}
  void on_p2p(mpi::P2pCall& call, mpi::Mpi& mpi) override;

  bool fired() const noexcept { return fired_; }
  bool fizzled() const noexcept { return fizzled_; }
  const P2pFaultSpec& spec() const noexcept { return spec_; }

 private:
  P2pFaultSpec spec_;
  std::uint64_t seed_;
  bool fired_ = false;
  bool fizzled_ = false;
};

}  // namespace fastfit::inject
