#pragma once

// Injection points and the bookkeeping of their pruning.
//
// Paper Sec II: "Each invocation of an MPI collective call site [on each
// process, for each input parameter] is a potential fault injection
// point." FastFIT prunes that space in two structural steps before the ML
// stage: semantic pruning (representative ranks per equivalence class) and
// application-context pruning (representative invocations per distinct
// call stack).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "inject/fault_spec.hpp"
#include "inject/outcome.hpp"
#include "minimpi/hooks.hpp"
#include "minimpi/types.hpp"
#include "ml/dataset.hpp"
#include "trace/rank_context.hpp"
#include "trace/shadow_stack.hpp"

namespace fastfit::core {

/// One (surviving) fault injection point, with the application features
/// the ML model consumes attached.
///
/// A point lives on a collective call site (the paper's space) or, for
/// the point-to-point study, on a send or receive site. Site ids hash the
/// family, so the two never share an id. Collective points use `kind` and
/// `param`; point-to-point points use `p2p_kind` and `p2p_param`. Reports,
/// ML features and the figure benches only ever see collective points.
struct InjectionPoint {
  std::uint32_t site_id = 0;
  mpi::CollectiveKind kind{};
  std::string site_location;     ///< "file:line" for reports
  int rank = 0;                  ///< representative world rank
  std::uint64_t invocation = 0;  ///< representative invocation ordinal
  mpi::Param param{};
  /// Fault model x trigger this point runs under (campaign fault-model
  /// axis; the default is the paper's exact-point single bit flip).
  inject::FaultModelSpec fault{};
  mpi::SiteFamily family = mpi::SiteFamily::Collective;
  mpi::P2pKind p2p_kind{};    ///< point-to-point sites: send or receive
  mpi::P2pParam p2p_param{};  ///< point-to-point sites: injected parameter

  // Application features (paper Sec III-C).
  trace::StackId stack = 0;
  trace::ExecPhase phase{};
  bool errhal = false;
  std::uint64_t n_inv = 0;        ///< invocations of this site on this rank
  double stack_depth = 0.0;       ///< mean shadow-stack depth at the site
  std::uint64_t n_diff_stack = 0; ///< distinct call stacks at the site

  /// Feature vector in the ml::Feature order.
  ml::FeatureVec features() const;

  /// The fault trial `trial` of this point injects.
  inject::FaultSpec fault_spec(std::uint64_t trial) const;
};

/// Point counts through the pruning pipeline (the raw material of the
/// paper's Table III).
struct PruningStats {
  std::uint64_t total_points = 0;     ///< all ranks x sites x invocations x params
  std::uint64_t after_semantic = 0;   ///< representative ranks only
  std::uint64_t after_context = 0;    ///< + one invocation per distinct stack
  std::size_t equivalence_classes = 0;
  int nranks = 0;

  /// Table III "MPI" column: reduction from semantic pruning alone.
  double semantic_reduction() const;
  /// Table III "App" column: additional reduction from context pruning,
  /// relative to the post-semantic count.
  double context_reduction() const;
  /// Combined structural reduction (before ML).
  double structural_reduction() const;

  /// Shard-merge validation compares the stats of every fragment.
  bool operator==(const PruningStats& other) const = default;
};

/// Supervision record of one point's execution (not part of the paper's
/// response statistics; the campaign's own health).
struct ExecStats {
  std::uint32_t retries = 0;  ///< internal-error retries consumed
  bool quarantined = false;   ///< the trial guard gave up on this point
  /// Last internal error, attributed: "attempt N on executor thread K:
  /// <what()>" (or "on main thread" for the serial path), so quarantine
  /// messages line up with trace lanes and logs.
  std::string last_error;
  /// World autopsy of the point's most recent non-SUCCESS trial (one-line
  /// summary: verdict + per-rank phase counts).
  std::string last_autopsy;
};

/// Statistics of one injection point over its trials.
struct PointResult {
  InjectionPoint point;
  std::array<std::uint32_t, inject::kNumOutcomes> counts{};
  std::uint32_t trials = 0;
  ExecStats exec;

  void record(inject::Outcome outcome) {
    ++counts[static_cast<std::size_t>(outcome)];
    ++trials;
  }
  /// Fraction of trials with any of the five error responses.
  double error_rate() const;
  /// Fraction of trials with a given response.
  double fraction(inject::Outcome outcome) const;
  /// Most frequent response (ties to the lower enum value).
  inject::Outcome dominant() const;
};

}  // namespace fastfit::core
