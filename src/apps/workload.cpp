#include "apps/workload.hpp"

#include <cmath>
#include <cstring>

#include "support/rng.hpp"

namespace fastfit::apps {

std::uint64_t combine_digests(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t d : digests) {
    h ^= d;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t digest_bytes(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : bytes) {
    h ^= static_cast<unsigned char>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t digest_doubles(std::span<const double> values, int decimals) {
  const double scale = std::pow(10.0, decimals);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (double v : values) {
    if (std::isnan(v)) {
      mix(0x4E614E4E614E4E61ULL);  // NaN sentinel
    } else if (std::isinf(v)) {
      mix(v > 0 ? 0x1FF1FF1FF1FF1FFULL : 0x2FF2FF2FF2FF2FFULL);
    } else {
      // Round to the requested decimal resolution; -0 folds onto +0.
      const double r = std::round(v * scale);
      if (std::abs(r) >= 9.0e18) {
        // Past int64 range the quantization grid is far coarser than the
        // double's own resolution anyway: hash the exact bit pattern so
        // astronomical values still discriminate (and avoid UB casts).
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits ^ 0xB16B16B16B16B16BULL);
      } else {
        const auto q = static_cast<std::int64_t>(r == 0.0 ? 0.0 : r);
        mix(static_cast<std::uint64_t>(q));
      }
    }
  }
  return h;
}

JobResult run_job(const Workload& workload, const mpi::WorldOptions& options,
                  mpi::ToolHooks* tools, trace::ContextRegistry& contexts) {
  mpi::World world(options);
  world.set_tools(tools);
  std::vector<std::uint64_t> digests(static_cast<std::size_t>(options.nranks),
                                     0);
  JobResult result;
  result.world = world.run([&digests, &workload, &contexts,
                            seed = options.seed](mpi::Mpi& mpi) {
    trace::RankContext& trace = contexts.of(mpi.world_rank());
    mpi.set_stack_probe(
        [](const void* context) -> mpi::Mpi::StackProbe {
          const auto& stack =
              static_cast<const trace::RankContext*>(context)->stack();
          return {stack.id(), stack.innermost()};
        },
        &trace);
    AppContext ctx{mpi, trace, seed};
    try {
      digests[static_cast<std::size_t>(mpi.world_rank())] =
          workload.run_rank(ctx);
    } catch (const RankRevoked&) {
      // A peer fail-stopped under repair mode. Workloads that opt in
      // shrink the communicator and resume; the rest let the revocation
      // unwind (subordinate to the captured RankDead event).
      if (!workload.can_repair()) throw;
      const mpi::Comm survivors = mpi.shrink_and_continue();
      digests[static_cast<std::size_t>(mpi.world_rank())] =
          workload.repair_rank(ctx, survivors);
      mpi.mark_repaired();
    }
  });
  result.digest = result.world.clean() ? combine_digests(digests) : 0;
  return result;
}

}  // namespace fastfit::apps
