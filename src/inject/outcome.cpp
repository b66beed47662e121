#include "inject/outcome.hpp"

#include "support/error.hpp"

namespace fastfit::inject {

const char* to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::Success: return "SUCCESS";
    case Outcome::AppDetected: return "APP_DETECTED";
    case Outcome::MpiErr: return "MPI_ERR";
    case Outcome::SegFault: return "SEG_FAULT";
    case Outcome::WrongAns: return "WRONG_ANS";
    case Outcome::InfLoop: return "INF_LOOP";
    case Outcome::RankDead: return "RANK_DEAD";
    case Outcome::Repaired: return "REPAIRED";
  }
  return "UNKNOWN";
}

const std::vector<std::string>& outcome_names() {
  static const std::vector<std::string> names{
      "SUCCESS", "APP_DETECTED", "MPI_ERR", "SEG_FAULT", "WRONG_ANS",
      "INF_LOOP", "RANK_DEAD", "REPAIRED"};
  return names;
}

Outcome classify(const mpi::WorldResult& result, std::uint64_t trial_digest,
                 std::uint64_t golden_digest) noexcept {
  if (result.event) {
    switch (result.event->type) {
      case mpi::EventType::AppDetected: return Outcome::AppDetected;
      case mpi::EventType::MpiErr: return Outcome::MpiErr;
      case mpi::EventType::SegFault: return Outcome::SegFault;
      case mpi::EventType::Timeout: return Outcome::InfLoop;
      case mpi::EventType::RankDead:
        return result.repaired ? Outcome::Repaired : Outcome::RankDead;
    }
  }
  // A reconverged world stopped at the cut; its suffix, hence its answer,
  // was the golden one.
  if (result.reconverged) return Outcome::Success;
  return trial_digest == golden_digest ? Outcome::Success : Outcome::WrongAns;
}

TrialForensics classify_with_forensics(const mpi::WorldResult& result,
                                       std::uint64_t trial_digest,
                                       std::uint64_t golden_digest) {
  TrialForensics forensics;
  forensics.outcome = classify(result, trial_digest, golden_digest);
  if (forensics.outcome == Outcome::Success) return forensics;
  if (result.autopsy) {
    forensics.autopsy = result.autopsy->summary();
    forensics.deterministic_hang = result.autopsy->deterministic &&
                                   forensics.outcome == Outcome::InfLoop;
  } else if (result.event) {
    forensics.autopsy = result.event->message;
  } else {
    forensics.autopsy = "clean run, digest mismatch vs golden";
  }
  return forensics;
}

}  // namespace fastfit::inject
