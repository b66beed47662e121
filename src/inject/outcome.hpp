#pragma once

// Application-response taxonomy (paper Table I) and the classification of
// a completed trial into it.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "minimpi/world.hpp"

namespace fastfit::inject {

/// Paper Table I. All types except Success count as an *error* when the
/// paper speaks of "error rate".
enum class Outcome : std::uint8_t {
  Success = 0,      ///< clean exit, answer matches the fault-free run
  AppDetected = 1,  ///< the program's own error handling reported the fault
  MpiErr = 2,       ///< the MPI environment reported an error
  SegFault = 3,     ///< segmentation fault: simulated via the bounds
                    ///< registry, or — under --isolation process — a
                    ///< genuine signal death of the trial worker
  WrongAns = 4,     ///< clean exit, answer differs from the fault-free run
  InfLoop = 5,      ///< the job hung and was killed by the watchdog
  RankDead = 6,     ///< fail-stop rank death tore the job down
  Repaired = 7,     ///< fail-stop death, but survivors shrank and continued
};

inline constexpr std::size_t kNumOutcomes = 8;

/// The paper's original six-way taxonomy. Serialized surfaces (report
/// JSON/CSV, shard fragments, trial-counter metrics) emit only these
/// unless the campaign opted into the extended fault-model library —
/// a default-configuration study stays byte-identical to pre-v2 output.
inline constexpr std::size_t kNumBaseOutcomes = 6;

/// How many outcome columns a serialized surface carries.
constexpr std::size_t active_outcomes(bool extended) noexcept {
  return extended ? kNumOutcomes : kNumBaseOutcomes;
}

const char* to_string(Outcome outcome) noexcept;

/// All outcome names in enum order (for tables and confusion axes).
const std::vector<std::string>& outcome_names();

/// True for every outcome the paper counts in the error rate. A Repaired
/// trial still experienced a fault-induced deviation from the fault-free
/// run, so it stays on the error side of the ledger.
constexpr bool is_error(Outcome outcome) noexcept {
  return outcome != Outcome::Success;
}

/// Classifies a finished trial: an initiating fault event decides
/// directly; a reconverged world is Success; any other clean world is
/// Success or WrongAns by digest comparison against the golden
/// (fault-free) run.
Outcome classify(const mpi::WorldResult& result, std::uint64_t trial_digest,
                 std::uint64_t golden_digest) noexcept;

/// A trial's outcome plus the forensic context that travels with every
/// non-SUCCESS classification into campaign reports and the journal.
struct TrialForensics {
  Outcome outcome = Outcome::Success;
  /// True when the INF_LOOP was *proven* at quiescence (structural
  /// deadlock) rather than inferred from the watchdog deadline — the
  /// campaign layer skips escalated re-confirmation for these.
  bool deterministic_hang = false;
  /// One-line world autopsy (per-rank phase counts + verdict); empty for
  /// SUCCESS.
  std::string autopsy;
};

/// classify() plus autopsy extraction from the world result.
TrialForensics classify_with_forensics(const mpi::WorldResult& result,
                                       std::uint64_t trial_digest,
                                       std::uint64_t golden_digest);

}  // namespace fastfit::inject
