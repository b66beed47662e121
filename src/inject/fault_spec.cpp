#include "inject/fault_spec.hpp"

#include <sstream>

#include "support/rng.hpp"

namespace fastfit::inject {

std::uint64_t mix_stream_index(std::uint64_t site, std::uint64_t rank,
                               std::uint64_t invocation, std::uint64_t param,
                               std::uint64_t trial) noexcept {
  std::uint64_t key = 0xcbf29ce484222325ULL ^ site;
  key = key * 0x100000001b3ULL ^ rank;
  key = key * 0x100000001b3ULL ^ invocation;
  key = key * 0x100000001b3ULL ^ param;
  key = key * 0x100000001b3ULL ^ trial;
  return splitmix64(key);
}

std::uint64_t point_identity_hash(std::uint64_t site, std::uint64_t rank,
                                  std::uint64_t invocation,
                                  std::uint64_t param) noexcept {
  return mix_stream_index(site, rank, invocation, param,
                          ~std::uint64_t{0});
}

std::uint64_t FaultSpec::stream_index() const noexcept {
  return mix_stream_index(site_id, static_cast<std::uint64_t>(rank),
                          invocation,
                          param_ordinal(family, param, p2p_param), trial);
}

std::string FaultSpec::describe() const {
  const bool p2p = family == mpi::SiteFamily::P2p;
  std::ostringstream out;
  out << (p2p ? "p2p-fault" : "fault") << "{site=0x" << std::hex << site_id
      << std::dec << " rank=" << rank << " inv=" << invocation << " param="
      << (p2p ? mpi::to_string(p2p_param) : mpi::to_string(param))
      << " trial=" << trial << " model=" << fault.canonical() << '}';
  return out.str();
}

}  // namespace fastfit::inject
