#include "inject/p2p_injector.hpp"

#include <sstream>

#include "inject/fault_spec.hpp"
#include "minimpi/datatype.hpp"
#include "minimpi/mpi.hpp"
#include "support/error.hpp"

namespace fastfit::inject {

std::uint64_t P2pFaultSpec::stream_index() const noexcept {
  return mix_stream_index(site_id, static_cast<std::uint64_t>(rank),
                          invocation, static_cast<std::uint64_t>(param),
                          trial);
}

std::string P2pFaultSpec::describe() const {
  std::ostringstream out;
  out << "p2p-fault{site=0x" << std::hex << site_id << std::dec
      << " rank=" << rank << " inv=" << invocation
      << " param=" << mpi::to_string(param) << " trial=" << trial
      << " model=" << to_string(model) << '}';
  return out.str();
}

bool corrupt_p2p_parameter(mpi::P2pCall& call, mpi::P2pParam param,
                           FaultModel model, RngStream& rng, mpi::Mpi& mpi) {
  bool changed = false;
  switch (param) {
    case mpi::P2pParam::Buffer: {
      if (call.buffer == nullptr || call.count < 0 ||
          !mpi::is_valid(call.datatype)) {
        return false;
      }
      const std::size_t bytes =
          static_cast<std::size_t>(call.count) *
          mpi::datatype_size(call.datatype);
      if (bytes == 0 || !mpi.registry().covers(call.buffer, bytes)) {
        return false;
      }
      return mutate_bytes(
          std::span<std::byte>(static_cast<std::byte*>(call.buffer), bytes),
          model, rng);
    }
    case mpi::P2pParam::Count:
      call.count = mutate_value(call.count, model, rng, &changed);
      return changed;
    case mpi::P2pParam::Datatype:
      call.datatype = static_cast<mpi::Datatype>(
          mutate_value(mpi::raw(call.datatype), model, rng, &changed));
      return changed;
    case mpi::P2pParam::Peer: {
      const auto mutated = mutate_value(
          static_cast<std::int32_t>(call.peer), model, rng, &changed);
      call.peer = static_cast<int>(mutated);
      return changed;
    }
    case mpi::P2pParam::Tag:
      call.tag = mutate_value(call.tag, model, rng, &changed);
      return changed;
  }
  throw InternalError("corrupt_p2p_parameter: unknown parameter");
}

P2pInjector::P2pInjector(P2pFaultSpec spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {}

void P2pInjector::on_p2p(mpi::P2pCall& call, mpi::Mpi& mpi) {
  if (fired_) return;
  if (mpi.world_rank() != spec_.rank) return;
  if (call.site_id != spec_.site_id) return;
  if (call.invocation != spec_.invocation) return;

  fired_ = true;
  RngStream rng(seed_, "p2p-bitflip", spec_.stream_index());
  if (!corrupt_p2p_parameter(call, spec_.param, spec_.model, rng, mpi)) {
    fizzled_ = true;
  }
}

}  // namespace fastfit::inject
