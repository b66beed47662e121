#include "core/study.hpp"

#include "support/error.hpp"

namespace fastfit::core {

double StudyResult::total_reduction() const {
  if (stats.total_points == 0) return 0.0;
  return 1.0 - static_cast<double>(measured.size()) /
                   static_cast<double>(stats.total_points);
}

StudyDriver::StudyDriver(const apps::Workload& workload, StudyOptions options)
    : options_(std::move(options)), campaign_(workload, options_.campaign) {
  if (options_.use_ml && options_.campaign.shard.sharded()) {
    throw ConfigError(
        "study: sharding requires a static post-pruning point set, but the "
        "ML stage resolves points adaptively; run sharded studies with the "
        "structural chain only (e.g. --no-ml)");
  }
}

void StudyDriver::profile() {
  if (profiled_) return;
  campaign_.profile();
  profiled_ = true;
}

StudyResult StudyDriver::run() {
  if (started_) throw InternalError("StudyDriver::run: single use");
  started_ = true;

  profile();
  if (!options_.journal.empty()) {
    campaign_.attach_journal(options_.journal, options_.resume
                                                   ? JournalMode::Resume
                                                   : JournalMode::Create);
  }

  StudyResult result;
  result.stats = campaign_.stats();
  result.shard = options_.campaign.shard;
  result.extended_outcomes = options_.campaign.extended_outcomes();
  result.golden_digest = campaign_.golden_digest();
  const auto& points = campaign_.enumeration().points;

  if (options_.use_ml) {
    // The injection ⇄ learning loop: it resolves every structurally
    // surviving point, by measurement or by prediction.
    auto ml = run_ml_loop(campaign_, points, options_.ml);
    result.ml_reduction = ml.ml_reduction();
    result.measured = std::move(ml.measured);
    result.predicted = std::move(ml.predicted);
    result.final_accuracy = ml.final_accuracy;
    result.threshold_reached = ml.threshold_reached;
    result.ml_rounds = ml.rounds;
    result.model = std::move(ml.model);
  } else if (options_.campaign.shard.sharded()) {
    // Deterministic partition by stable point identity: every shard
    // computes the same ordinals from the same enumeration, so the N
    // fragments tile the unsharded study exactly.
    std::vector<InjectionPoint> own;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (shard_owns(options_.campaign.shard, points[i])) {
        result.shard_ordinals.push_back(i);
        own.push_back(points[i]);
      }
    }
    result.measured = campaign_.measure_many(own);
  } else {
    // Traditional mode: measure every structurally surviving point.
    result.measured = campaign_.measure_many(points);
  }

  campaign_.detach_journal();
  result.health = campaign_.health();
  return result;
}

Campaign& StudyDriver::campaign() {
  if (!profiled_) {
    throw InternalError(
        "StudyDriver::campaign: neither profile() nor run() has completed; "
        "the campaign is not profiled yet");
  }
  return campaign_;
}

const Campaign& StudyDriver::campaign() const {
  if (!profiled_) {
    throw InternalError(
        "StudyDriver::campaign: neither profile() nor run() has completed; "
        "the campaign is not profiled yet");
  }
  return campaign_;
}

}  // namespace fastfit::core
