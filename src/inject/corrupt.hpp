#pragma once

// Parameter corruption: applies the single-bit-flip fault model to one
// parameter of a CollectiveCall or of a point-to-point call.
//
// Scalar parameters (count, datatype, op, comm, root) flip one of their 32
// bits. Buffer parameters flip one random bit of the buffer *contents*
// (never the address — the paper excludes address faults as trivially
// catastrophic). For vector collectives, the count fault lands in a random
// entry of the count array, matching how the corresponding parameter is
// actually passed.

#include "inject/fault_model.hpp"
#include "inject/fault_spec.hpp"
#include "minimpi/hooks.hpp"
#include "support/rng.hpp"

namespace fastfit::mpi {
class Mpi;
}

namespace fastfit::inject {

/// Corrupts `param` of `call` in place under `model`. Returns false when
/// the parameter has no corruptible substance at this rank (zero-length
/// buffer, buffer not mapped in the rank's registry) or the mutation is a
/// provable no-op — the fault then lands in dead state and the trial
/// proceeds un-faulted, as on real hardware. `mutated` (optional)
/// receives the byte range a buffer parameter's model is applied to.
bool corrupt_parameter(mpi::CollectiveCall& call, mpi::Param param,
                       FaultModel model, RngStream& rng, mpi::Mpi& mpi,
                       mpi::WriteSpan* mutated = nullptr);

/// Paper-default model (single bit flip).
inline bool corrupt_parameter(mpi::CollectiveCall& call, mpi::Param param,
                              RngStream& rng, mpi::Mpi& mpi) {
  return corrupt_parameter(call, param, FaultModel::SingleBitFlip, rng, mpi);
}

/// Corrupts `param` of a point-to-point call in place under `model`. The
/// buffer fault mutates the message contents, and only when the rank's
/// registry maps them. Returns false for provable no-ops (empty or
/// unmapped buffer, unchanged value).
bool corrupt_p2p_parameter(mpi::P2pCall& call, mpi::P2pParam param,
                           FaultModel model, RngStream& rng, mpi::Mpi& mpi);

}  // namespace fastfit::inject
