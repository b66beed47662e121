#pragma once

// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Every binary regenerates one table or figure of the paper on the
// simulated substrate. Scale knobs come from the environment so a single
// core can finish the default sweep in minutes while larger machines can
// crank them up:
//
//   FASTFIT_BENCH_RANKS     simulated MPI ranks        (default 16)
//   FASTFIT_BENCH_TRIALS    trials per injection point (default 12;
//                           the paper uses 100)
//   FASTFIT_BENCH_SEED      campaign master seed       (default 0xF457F17)
//   FASTFIT_BENCH_PARALLEL  max concurrent trials      (default 0 = auto:
//                           hardware_concurrency; 1 = serial)
//   FASTFIT_BENCH_TELEMETRY enable the telemetry recorder for the whole
//                           binary (default 0; the throughput bench also
//                           measures the on/off delta explicitly)

#include <cstdlib>
#include <memory>
#include <string>

#include "core/study.hpp"
#include "core/report.hpp"

namespace fastfit::bench {

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  if (const char* value = std::getenv(name)) {
    return std::strtoull(value, nullptr, 10);
  }
  return fallback;
}

inline int bench_ranks() {
  return static_cast<int>(env_u64("FASTFIT_BENCH_RANKS", 16));
}
inline std::uint32_t bench_trials() {
  return static_cast<std::uint32_t>(env_u64("FASTFIT_BENCH_TRIALS", 12));
}
inline std::uint64_t bench_seed() {
  return env_u64("FASTFIT_BENCH_SEED", 0xF457F17ULL);
}
inline std::size_t bench_parallel() {
  return static_cast<std::size_t>(env_u64("FASTFIT_BENCH_PARALLEL", 0));
}
inline bool bench_telemetry() {
  return env_u64("FASTFIT_BENCH_TELEMETRY", 0) != 0;
}

inline core::CampaignOptions bench_campaign_options() {
  core::CampaignOptions opts;
  opts.nranks = bench_ranks();
  opts.trials_per_point = bench_trials();
  opts.seed = bench_seed();
  opts.max_parallel_trials = bench_parallel();
  return opts;
}

/// Prints the standard experiment banner.
void banner(const std::string& id, const std::string& paper_caption,
            const std::string& substitution_note);

/// Profiles a workload through the study pipeline and returns the
/// driver; driver->campaign() is the profiled engine. Bench binaries
/// that drive measurement by hand go through here instead of
/// constructing a Campaign directly — engine construction is the study
/// pipeline's business (see docs/pipeline.md).
std::unique_ptr<core::StudyDriver> profiled_driver(
    const apps::Workload& workload, core::CampaignOptions options);

/// Measures every enumerated point of a workload (traditional mode) and
/// returns the per-point results; shared by the Figs 7-11 binaries.
std::vector<core::PointResult> measure_all_points(
    const std::string& workload_name,
    std::optional<mpi::Param> only_param = std::nullopt);

}  // namespace fastfit::bench
