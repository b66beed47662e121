#pragma once

// Injection-point enumeration over a profiled run (paper Fig 5, between
// profiling and injection): the profiled space, narrowed by
// semantic-driven pruning (Sec III-A) and application-context-driven
// pruning (Sec III-B) in the order a pass chain names them, yielding the
// surviving points with their ML features.
//
// parse_pass_list is the one reader of pass names: "semantic" and
// "context" are the structural passes (reorderable, repeatable); "ml"
// names the study's injection ⇄ learning stage (core/study.hpp), which
// runs trials and so may only end a chain.

#include <span>
#include <string>
#include <vector>

#include "core/points.hpp"
#include "profile/profiler.hpp"
#include "trace/similarity.hpp"

namespace fastfit::core {

struct Enumeration {
  PruningStats stats;
  std::vector<trace::EquivalenceClass> classes;
  std::vector<InjectionPoint> points;  ///< the post-pruning points
};

/// A validated pass chain: the structural passes in order, and whether
/// the ML stage follows them.
struct PassChain {
  std::vector<std::string> structural;
  bool ml = false;

  bool operator==(const PassChain&) const = default;
};

/// Validates a chain given as names (CampaignOptions::pruning_passes; an
/// empty chain enumerates the unpruned space). Throws ConfigError on an
/// unknown name or on "ml" anywhere but last.
PassChain parse_pass_list(std::span<const std::string> names);

/// Parses a comma-separated chain ("semantic,context,ml", the --passes /
/// FASTFIT_PASSES syntax). Throws ConfigError as above, and on an empty
/// list or list entry.
PassChain parse_pass_list(const std::string& text);

/// Enumerates injection points from the profiling run. For every process
/// equivalence class, its lowest-rank representative is kept; for every
/// (rank, site), one invocation per distinct call stack is kept; every
/// surviving invocation contributes one point per injectable parameter of
/// the collective kind: the default chain [semantic, context].
Enumeration enumerate_points(const profile::Profiler& profiler);

/// Variant without the context (call-stack) pruning step: every invocation
/// of every representative rank contributes points. Used to build dense
/// training datasets for the ML accuracy evaluation (paper Sec V-D) and to
/// study the context-pruning premise itself (Fig 3).
Enumeration enumerate_points_semantic_only(const profile::Profiler& profiler);

/// Enumerates one site family's points through an explicit structural
/// chain: the same passes prune collective and point-to-point sites.
/// stats.after_context tracks the surviving count after every pass.
/// Throws ConfigError for "ml": it resolves points by running trials and
/// belongs to the study driver, not to enumeration.
Enumeration enumerate_with_passes(
    const profile::Profiler& profiler,
    std::span<const std::string> pass_names,
    mpi::SiteFamily family = mpi::SiteFamily::Collective);

}  // namespace fastfit::core
