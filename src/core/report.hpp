#pragma once

// Sensitivity-report computations: the aggregations behind the paper's
// evaluation figures (7-11) and Table IV.

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"

namespace fastfit::core {

/// Fraction of all trials per outcome, optionally filtered by collective
/// kind and/or injected parameter. Sums to 1 over the six outcomes (0s if
/// no trials match).
std::array<double, inject::kNumOutcomes> outcome_distribution(
    const std::vector<PointResult>& results,
    std::optional<mpi::CollectiveKind> kind = std::nullopt,
    std::optional<mpi::Param> param = std::nullopt);

/// Fraction of the trials of the points `keep` selects, per outcome (the
/// point-to-point study selects by P2pParam).
std::array<double, inject::kNumOutcomes> outcome_distribution(
    const std::vector<PointResult>& results,
    const std::function<bool(const InjectionPoint&)>& keep);

/// Collective kinds present in the results, in enum order.
std::vector<mpi::CollectiveKind> kinds_present(
    const std::vector<PointResult>& results);

/// Injected parameters present in the results, in enum order.
std::vector<mpi::Param> params_present(
    const std::vector<PointResult>& results);

/// Error-rate-level distribution for one collective kind: the fraction of
/// its injection points falling in each level (Figs 8 and 11 use the
/// skewed low/med/high thresholds).
std::vector<double> level_distribution(
    const std::vector<PointResult>& results, mpi::CollectiveKind kind,
    const std::vector<double>& thresholds);

/// Table IV: Eq-1 correlation between each application-specific feature
/// and the error-rate level, over the measured points. Columns follow the
/// paper: per-phase indicators, ErrHdl / Non-ErrHdl indicators, nInv,
/// nDiffGraph (distinct call stacks), StackDepth.
std::vector<std::pair<std::string, double>> feature_correlations(
    const std::vector<PointResult>& results,
    const std::vector<double>& thresholds);

/// Plain-text stacked-bar rendering of outcome distributions: one row per
/// label (benchmark, collective, or parameter). `extended_outcomes` adds
/// the RANK_DEAD / REPAIRED columns (StudyResult::extended_outcomes).
std::string render_outcome_table(
    const std::vector<std::pair<std::string,
                                std::array<double, inject::kNumOutcomes>>>&
        rows,
    bool extended_outcomes = false);

/// Plain-text rendering of level distributions.
std::string render_level_table(
    const std::vector<std::pair<std::string, std::vector<double>>>& rows,
    const std::vector<std::string>& level_labels);

/// Campaign health summary: what the resilience machinery had to do
/// (retries, quarantines, watchdog re-confirmations, journal replays). One line when the campaign was perfectly healthy.
std::string render_health(const CampaignHealth& health);

/// Absolute per-outcome trial totals over all measured points, one line
/// per non-zero outcome plus a total. The cli prints this on stderr in
/// every run — telemetry on or off — so outcome counts are never only an
/// exit code.
std::string render_outcome_totals(const std::vector<PointResult>& results);

}  // namespace fastfit::core
