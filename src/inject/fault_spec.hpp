#pragma once

// Fault specification: one planned fault.
//
// A FaultSpec pins the paper's Table II coordinates — which rank
// (RANK_ID), which collective call site (CALL_ID), which invocation
// (INV_ID), which parameter (PARAM_ID) — plus the trial index that seeds
// the random choices, plus the two-axis fault model (manifestation ×
// trigger, inject/fault_model.hpp). The default model is exactly the
// paper's: a single random bit flip in one input parameter (or one random
// bit of the data buffer) of one collective invocation. A point-to-point
// spec names a send or receive site instead, and the parameter it
// corrupts is a P2pParam.

#include <cstdint>
#include <string>

#include "inject/fault_model.hpp"
#include "minimpi/hooks.hpp"

namespace fastfit::inject {

/// The injected parameter's ordinal in its site family's enum: the
/// parameter coordinate of stream indices, journal keys and shard hashes.
constexpr std::uint64_t param_ordinal(mpi::SiteFamily family,
                                      mpi::Param param,
                                      mpi::P2pParam p2p_param) noexcept {
  return family == mpi::SiteFamily::P2p
             ? static_cast<std::uint64_t>(p2p_param)
             : static_cast<std::uint64_t>(param);
}

struct FaultSpec {
  std::uint32_t site_id = 0;      ///< call site (CALL_ID analogue)
  int rank = 0;                   ///< injected world rank (RANK_ID)
  std::uint64_t invocation = 0;   ///< injected invocation ordinal (INV_ID)
  mpi::Param param{};             ///< injected parameter (PARAM_ID)
  std::uint64_t trial = 0;        ///< per-point trial ordinal
  FaultModelSpec fault{};         ///< manifestation × trigger
  /// Collective sites corrupt `param`; point-to-point sites corrupt
  /// `p2p_param`, at the exact point and under a parameter model only.
  mpi::SiteFamily family = mpi::SiteFamily::Collective;
  mpi::P2pParam p2p_param{};

  bool operator==(const FaultSpec&) const = default;

  /// RNG stream index for this trial, mixed from *all* the injection
  /// coordinates — (site, rank, invocation, param, trial) — rather than
  /// the trial ordinal alone. Together with the campaign master seed this
  /// makes the flipped bit a pure function of (seed, point, trial index):
  /// trial t of a point draws the same bits no matter what other points
  /// were measured before it or on which thread it runs.
  std::uint64_t stream_index() const noexcept;

  /// Human-readable one-liner for logs and reports.
  std::string describe() const;
};

/// The coordinate mixing behind FaultSpec::stream_index: FNV-style
/// folding plus a SplitMix finalizer.
std::uint64_t mix_stream_index(std::uint64_t site, std::uint64_t rank,
                               std::uint64_t invocation, std::uint64_t param,
                               std::uint64_t trial) noexcept;

/// Stable identity hash of one injection point — the trial-free sibling of
/// mix_stream_index, used to partition a point set across study shards.
/// Every process that enumerates the same campaign computes the same hash
/// for the same point, so `hash % shard_count` is a deterministic,
/// order-free partition. The all-ones trial sentinel keeps the identity
/// domain disjoint from every real trial's stream index.
std::uint64_t point_identity_hash(std::uint64_t site, std::uint64_t rank,
                                  std::uint64_t invocation,
                                  std::uint64_t param) noexcept;

}  // namespace fastfit::inject
