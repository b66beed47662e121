#pragma once

// StudyDriver: one sensitivity study, the paper's tool (Fig 5) as a
// chain of direct calls:
//
//   profile -> enumerate + prune -> measure every point, or run the
//                                   injection ⇄ learning loop
//
// The campaign (core/campaign.hpp) profiles and enumerates through the
// structural chain CampaignOptions::pruning_passes (core/enumerate.hpp);
// the driver then either measures every surviving point through the
// campaign's TrialScheduler (core/scheduler.hpp) or, when
// StudyOptions::use_ml is set, hands them to run_ml_loop
// (core/ml_loop.hpp), which measures some and predicts the rest.
//
// Deterministic sharding: with campaign.shard = i/N the driver measures
// only the points whose stable identity hash lands in shard i of the
// post-pruning point set. Every shard profiles and prunes identically
// (those phases are cheap and deterministic), so the partition — and the
// per-trial RNG identity of every point — is the same on every machine.
// Merging the N fragments (core/export.hpp) reproduces the unsharded
// study bit-for-bit.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/ml_loop.hpp"
#include "core/shard.hpp"

namespace fastfit::core {

struct StudyOptions {
  /// Its pruning_passes is the structural chain, run at profile time.
  CampaignOptions campaign;
  /// The ML stage (paper Sec III-C) after the structural chain, on/off.
  /// The paper enables it for LAMMPS only (the NPB spaces are already
  /// small after structural pruning).
  bool use_ml = true;
  MlLoopConfig ml;
  /// Durable trial journal path (empty = no journal). Attached after
  /// profiling, so the journal header can pin the golden digest (and the
  /// shard, for a sharded study).
  std::string journal;
  /// Resume from an existing journal at `journal` instead of refusing to
  /// overwrite it (see Campaign::attach_journal / docs/resilience.md).
  bool resume = false;
};

struct StudyResult {
  PruningStats stats;
  std::vector<PointResult> measured;
  std::vector<std::pair<InjectionPoint, std::size_t>> predicted;
  double ml_reduction = 0.0;       ///< Table III "ML" column (0 if ML off)
  double final_accuracy = 0.0;
  bool threshold_reached = false;
  std::size_t ml_rounds = 0;
  std::optional<ml::RandomForest> model;
  /// What the resilience machinery had to do (see CampaignHealth); the
  /// CLI maps health.clean() to its exit code.
  CampaignHealth health;
  /// Whether serialized surfaces (report JSON/CSV, fragments, merged
  /// metrics) carry the extended RANK_DEAD / REPAIRED outcome columns;
  /// see CampaignOptions::extended_outcomes.
  bool extended_outcomes = false;
  /// Which shard of the study this result covers (1/1 = all of it).
  ShardSpec shard;
  /// Golden digest of the campaign that produced this result. Pins
  /// fragment identity: merging fragments from different campaigns
  /// (changed seed, workload, problem size) is refused.
  std::uint64_t golden_digest = 0;
  /// Sharded studies only: ordinal of each measured point within the
  /// full post-pruning point set, ascending and parallel to `measured`.
  /// Pins the fragment's position for `fastfit merge`. Empty when
  /// unsharded.
  std::vector<std::size_t> shard_ordinals;

  /// Table III "Total" column: overall fraction of the exploration space
  /// whose response was obtained without direct injection.
  double total_reduction() const;
};

/// Orchestrates one study: profile, prune, measure/predict. Owns the
/// campaign engine.
class StudyDriver {
 public:
  StudyDriver(const apps::Workload& workload, StudyOptions options);

  /// Runs phase 1 only: golden execution, trace collection, pruning.
  /// Idempotent; run() profiles implicitly when this was not called.
  /// For callers that want the enumeration without a campaign (the CLI's
  /// `profile` subcommand, benchmarks that drive measurement manually).
  void profile();

  /// Runs the study. Callable once.
  StudyResult run();

  /// The underlying campaign engine (profiler, enumeration, golden
  /// digest). Valid only after profile() or run() — before that the
  /// campaign is unprofiled and throws InternalError here instead of
  /// from deeper, more confusing places.
  Campaign& campaign();
  const Campaign& campaign() const;

 private:
  StudyOptions options_;
  Campaign campaign_;
  bool profiled_ = false;
  bool started_ = false;
};

}  // namespace fastfit::core
