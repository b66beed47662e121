#include "inject/corrupt.hpp"

#include <span>

#include "minimpi/datatype.hpp"
#include "minimpi/mpi.hpp"
#include "support/bitops.hpp"
#include "support/error.hpp"

namespace fastfit::inject {
namespace {

using mpi::CollectiveKind;
using mpi::Param;

std::size_t esize_or_zero(mpi::Datatype dtype) {
  return mpi::is_valid(dtype) ? mpi::datatype_size(dtype) : 0;
}

/// Byte extent of the send-buffer region as this rank passed it.
std::size_t send_region_bytes(const mpi::CollectiveCall& call, int comm_size) {
  const std::size_t esize = esize_or_zero(call.datatype);
  if (call.count < 0) return 0;
  const auto count = static_cast<std::size_t>(call.count);
  switch (call.kind) {
    case CollectiveKind::Barrier:
      return 0;
    case CollectiveKind::Bcast:
    case CollectiveKind::Reduce:
    case CollectiveKind::Allreduce:
    case CollectiveKind::Scan:
    case CollectiveKind::Gather:
    case CollectiveKind::Gatherv:
    case CollectiveKind::Allgather:
    case CollectiveKind::Allgatherv:
      return count * esize;
    case CollectiveKind::Scatter:
    case CollectiveKind::Alltoall:
      return count * esize * static_cast<std::size_t>(comm_size);
    case CollectiveKind::ReduceScatterBlock:
      return count * esize * static_cast<std::size_t>(comm_size);
    case CollectiveKind::Scatterv:
    case CollectiveKind::Alltoallv:
      return 0;  // ragged: handled via the count arrays below
  }
  return 0;
}

/// Byte extent of the receive-buffer region as this rank passed it.
std::size_t recv_region_bytes(const mpi::CollectiveCall& call, int comm_size) {
  const std::size_t esize = esize_or_zero(call.recvdatatype);
  switch (call.kind) {
    case CollectiveKind::Barrier:
      return 0;
    case CollectiveKind::Bcast:
      return call.count < 0
                 ? 0
                 : static_cast<std::size_t>(call.count) *
                       esize_or_zero(call.datatype);
    case CollectiveKind::Reduce:
    case CollectiveKind::Allreduce:
    case CollectiveKind::Scan:
    case CollectiveKind::ReduceScatterBlock:
      return call.count < 0
                 ? 0
                 : static_cast<std::size_t>(call.count) *
                       esize_or_zero(call.datatype);
    case CollectiveKind::Scatter:
    case CollectiveKind::Scatterv:
      return call.recvcount < 0
                 ? 0
                 : static_cast<std::size_t>(call.recvcount) * esize;
    case CollectiveKind::Gather:
    case CollectiveKind::Allgather:
    case CollectiveKind::Alltoall:
      return call.recvcount < 0
                 ? 0
                 : static_cast<std::size_t>(call.recvcount) * esize *
                       static_cast<std::size_t>(comm_size);
    case CollectiveKind::Gatherv:
    case CollectiveKind::Allgatherv:
    case CollectiveKind::Alltoallv:
      return 0;  // ragged: handled via the count arrays below
  }
  return 0;
}

/// Total byte extent of a ragged (counts, displs) buffer region: the span
/// from offset 0 through the end of the furthest block.
std::size_t ragged_extent_bytes(const std::vector<std::int32_t>* counts,
                                const std::vector<std::int32_t>* displs,
                                std::size_t esize) {
  if (counts == nullptr || displs == nullptr) return 0;
  std::size_t extent = 0;
  for (std::size_t i = 0; i < counts->size() && i < displs->size(); ++i) {
    if ((*counts)[i] < 0 || (*displs)[i] < 0) continue;
    const std::size_t end =
        (static_cast<std::size_t>((*displs)[i]) +
         static_cast<std::size_t>((*counts)[i])) *
        esize;
    extent = std::max(extent, end);
  }
  return extent;
}

bool mutate_buffer(void* buffer, std::size_t bytes, FaultModel model,
                   RngStream& rng, mpi::Mpi& mpi, mpi::WriteSpan* mutated) {
  if (buffer == nullptr || bytes == 0) return false;
  // The mutation must land in memory the application actually owns; a
  // tool writing elsewhere would be a tool bug, not an injected fault.
  if (!mpi.registry().covers(buffer, bytes)) return false;
  if (mutated != nullptr) *mutated = {buffer, bytes};
  return mutate_bytes(
      std::span<std::byte>(static_cast<std::byte*>(buffer), bytes), model,
      rng);
}

bool mutate_count_array(std::vector<std::int32_t>* counts, FaultModel model,
                        RngStream& rng) {
  if (counts == nullptr || counts->empty()) return false;
  const std::size_t entry = rng.index(counts->size());
  bool changed = false;
  (*counts)[entry] = mutate_value((*counts)[entry], model, rng, &changed);
  return changed;
}

template <typename Handle>
Handle mutate_handle(Handle handle, FaultModel model, RngStream& rng,
                     bool* changed) {
  return static_cast<Handle>(
      mutate_value(mpi::raw(handle), model, rng, changed));
}

}  // namespace

bool corrupt_parameter(mpi::CollectiveCall& call, mpi::Param param,
                       FaultModel model, RngStream& rng, mpi::Mpi& mpi,
                       mpi::WriteSpan* mutated) {
  // Pre-corruption communicator size; the call is still pristine here.
  const int comm_size = mpi.size(call.comm);
  bool changed = false;

  switch (param) {
    case Param::SendBuf: {
      std::size_t bytes = send_region_bytes(call, comm_size);
      if (bytes == 0 &&
          (call.kind == CollectiveKind::Scatterv ||
           call.kind == CollectiveKind::Alltoallv)) {
        bytes = ragged_extent_bytes(call.sendcounts, call.sdispls,
                                    esize_or_zero(call.datatype));
      }
      return mutate_buffer(call.sendbuf, bytes, model, rng, mpi, mutated);
    }
    case Param::RecvBuf: {
      std::size_t bytes = recv_region_bytes(call, comm_size);
      if (bytes == 0 &&
          (call.kind == CollectiveKind::Gatherv ||
           call.kind == CollectiveKind::Allgatherv ||
           call.kind == CollectiveKind::Alltoallv)) {
        bytes = ragged_extent_bytes(call.recvcounts, call.rdispls,
                                    esize_or_zero(call.recvdatatype));
      }
      return mutate_buffer(call.recvbuf, bytes, model, rng, mpi, mutated);
    }
    case Param::Count:
      if (call.kind == CollectiveKind::Alltoallv ||
          call.kind == CollectiveKind::Scatterv) {
        return mutate_count_array(call.sendcounts, model, rng);
      }
      call.count = mutate_value(call.count, model, rng, &changed);
      return changed;
    case Param::RecvCount:
      if (call.kind == CollectiveKind::Alltoallv ||
          call.kind == CollectiveKind::Gatherv ||
          call.kind == CollectiveKind::Allgatherv) {
        return mutate_count_array(call.recvcounts, model, rng);
      }
      call.recvcount = mutate_value(call.recvcount, model, rng, &changed);
      return changed;
    case Param::Datatype:
      call.datatype = mutate_handle(call.datatype, model, rng, &changed);
      return changed;
    case Param::RecvDatatype:
      call.recvdatatype =
          mutate_handle(call.recvdatatype, model, rng, &changed);
      return changed;
    case Param::Op:
      call.op = mutate_handle(call.op, model, rng, &changed);
      return changed;
    case Param::Comm:
      call.comm = mutate_handle(call.comm, model, rng, &changed);
      return changed;
    case Param::Root:
      call.root = mutate_value(call.root, model, rng, &changed);
      return changed;
  }
  throw InternalError("corrupt_parameter: unknown parameter");
}

bool corrupt_p2p_parameter(mpi::P2pCall& call, mpi::P2pParam param,
                           FaultModel model, RngStream& rng, mpi::Mpi& mpi) {
  bool changed = false;
  switch (param) {
    case mpi::P2pParam::Buffer: {
      if (call.count < 0) return false;
      const std::size_t bytes = static_cast<std::size_t>(call.count) *
                                esize_or_zero(call.datatype);
      return mutate_buffer(call.buffer, bytes, model, rng, mpi, nullptr);
    }
    case mpi::P2pParam::Count:
      call.count = mutate_value(call.count, model, rng, &changed);
      return changed;
    case mpi::P2pParam::Datatype:
      call.datatype = mutate_handle(call.datatype, model, rng, &changed);
      return changed;
    case mpi::P2pParam::Peer:
      call.peer = mutate_value(call.peer, model, rng, &changed);
      return changed;
    case mpi::P2pParam::Tag:
      call.tag = mutate_value(call.tag, model, rng, &changed);
      return changed;
  }
  throw InternalError("corrupt_p2p_parameter: unknown parameter");
}

}  // namespace fastfit::inject
