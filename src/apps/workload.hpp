#pragma once

// Workload framework: the contract between applications and FastFIT.
//
// A Workload is an SPMD program over MiniMPI that annotates its structure
// (function scopes, execution phases, error-handling regions) through a
// trace::RankContext and returns a result digest per rank. The digest of a
// faulted run is compared against the golden (fault-free) digest to
// distinguish SUCCESS from WRONG_ANS — the workload's *own* checks throw
// AppError and classify as APP_DETECTED instead.
//
// Digest semantics are workload-defined: NPB-style kernels hash their
// verification values at near-full precision (any numeric deviation is a
// wrong answer), while miniMD quantizes its observables coarsely, modeling
// the statistical tolerance the paper notes for LAMMPS' Monte-Carlo-style
// results.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "minimpi/mpi.hpp"
#include "trace/rank_context.hpp"

namespace fastfit::apps {

/// Everything a rank's main function receives.
struct AppContext {
  mpi::Mpi& mpi;
  trace::RankContext& trace;
  std::uint64_t input_seed;  ///< problem seed, identical on all ranks
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Short name used in reports ("IS", "FT", "MG", "LU", "miniMD").
  virtual std::string name() const = 0;

  /// Runs one rank to completion; returns this rank's result digest.
  /// Throws AppError when the workload's own error handling detects an
  /// inconsistency.
  virtual std::uint64_t run_rank(AppContext& ctx) const = 0;

  /// Whether this workload can survive a fail-stop peer death when the
  /// world runs in repair mode. Default no: a death then classifies as
  /// RANK_DEAD even with --repair on.
  virtual bool can_repair() const { return false; }

  /// ULFM-style repair hook: runs on each survivor after a peer's death,
  /// with `survivors` the shrunken communicator from shrink_and_continue.
  /// Must be deterministic for a given (seed, survivor set). Returns the
  /// rank's post-repair digest. Only called when can_repair() is true.
  virtual std::uint64_t repair_rank(AppContext& ctx,
                                    mpi::Comm survivors) const {
    (void)ctx;
    (void)survivors;
    throw InternalError("repair_rank: workload declared no repair support");
  }
};

/// Order-sensitive combination of per-rank digests into a job digest.
std::uint64_t combine_digests(const std::vector<std::uint64_t>& digests);

/// Digest of raw bytes (exact).
std::uint64_t digest_bytes(std::span<const std::byte> bytes);

/// Digest of doubles quantized to `decimals` significant decimal digits
/// after scaling; NaN/Inf hash to distinct sentinels so corrupted numerics
/// never alias a finite result.
std::uint64_t digest_doubles(std::span<const double> values, int decimals);

/// Result of one complete job execution.
struct JobResult {
  mpi::WorldResult world;
  std::uint64_t digest = 0;  ///< valid only when world.clean()
};

/// Runs `workload` under a fresh World. `tools` (may be null) is installed
/// as the interposition chain; `contexts` must have options.nranks slots
/// and receives the trace annotations. Each rank's shadow stack is
/// installed as the Mpi stack probe, so pending-op signatures carry
/// application frames.
JobResult run_job(const Workload& workload, const mpi::WorldOptions& options,
                  mpi::ToolHooks* tools, trace::ContextRegistry& contexts);

}  // namespace fastfit::apps
