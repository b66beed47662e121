#include "core/report.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "stats/correlation.hpp"
#include "stats/levels.hpp"
#include "support/format.hpp"

namespace fastfit::core {

std::array<double, inject::kNumOutcomes> outcome_distribution(
    const std::vector<PointResult>& results,
    std::optional<mpi::CollectiveKind> kind, std::optional<mpi::Param> param) {
  return outcome_distribution(results, [&](const InjectionPoint& point) {
    return (!kind || point.kind == *kind) && (!param || point.param == *param);
  });
}

std::array<double, inject::kNumOutcomes> outcome_distribution(
    const std::vector<PointResult>& results,
    const std::function<bool(const InjectionPoint&)>& keep) {
  std::array<double, inject::kNumOutcomes> out{};
  std::uint64_t total = 0;
  for (const auto& r : results) {
    if (!keep(r.point)) continue;
    for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
      out[o] += r.counts[o];
      total += r.counts[o];
    }
  }
  if (total > 0) {
    for (double& v : out) v /= static_cast<double>(total);
  }
  return out;
}

std::vector<mpi::CollectiveKind> kinds_present(
    const std::vector<PointResult>& results) {
  std::set<mpi::CollectiveKind> kinds;
  for (const auto& r : results) kinds.insert(r.point.kind);
  return {kinds.begin(), kinds.end()};
}

std::vector<mpi::Param> params_present(
    const std::vector<PointResult>& results) {
  std::set<mpi::Param> params;
  for (const auto& r : results) params.insert(r.point.param);
  return {params.begin(), params.end()};
}

std::vector<double> level_distribution(
    const std::vector<PointResult>& results, mpi::CollectiveKind kind,
    const std::vector<double>& thresholds) {
  std::vector<double> out(thresholds.size() + 1, 0.0);
  std::uint64_t total = 0;
  for (const auto& r : results) {
    if (r.point.kind != kind || r.trials == 0) continue;
    ++out[stats::level_of(r.error_rate(), thresholds)];
    ++total;
  }
  if (total > 0) {
    for (double& v : out) v /= static_cast<double>(total);
  }
  return out;
}

std::vector<std::pair<std::string, double>> feature_correlations(
    const std::vector<PointResult>& results,
    const std::vector<double>& thresholds) {
  // Feature extractors in the paper's Table IV column order.
  const std::vector<std::pair<std::string,
                              std::function<double(const InjectionPoint&)>>>
      columns{
          {"Init Phase",
           [](const InjectionPoint& p) {
             return p.phase == trace::ExecPhase::Init ? 1.0 : 0.0;
           }},
          {"Input Phase",
           [](const InjectionPoint& p) {
             return p.phase == trace::ExecPhase::Input ? 1.0 : 0.0;
           }},
          {"Compute Phase",
           [](const InjectionPoint& p) {
             return p.phase == trace::ExecPhase::Compute ? 1.0 : 0.0;
           }},
          {"End Phase",
           [](const InjectionPoint& p) {
             return p.phase == trace::ExecPhase::End ? 1.0 : 0.0;
           }},
          {"ErrHdl",
           [](const InjectionPoint& p) { return p.errhal ? 1.0 : 0.0; }},
          {"Non-ErrHdl",
           [](const InjectionPoint& p) { return p.errhal ? 0.0 : 1.0; }},
          {"nInv",
           [](const InjectionPoint& p) {
             return static_cast<double>(p.n_inv);
           }},
          {"nDiffGraph",
           [](const InjectionPoint& p) {
             return static_cast<double>(p.n_diff_stack);
           }},
          {"StackDepth",
           [](const InjectionPoint& p) { return p.stack_depth; }},
      };

  std::vector<double> levels;
  levels.reserve(results.size());
  for (const auto& r : results) {
    levels.push_back(static_cast<double>(
        stats::level_of(r.error_rate(), thresholds)));
  }

  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, extract] : columns) {
    std::vector<double> xs;
    xs.reserve(results.size());
    for (const auto& r : results) xs.push_back(extract(r.point));
    out.emplace_back(name, stats::eq1_correlation(xs, levels));
  }
  return out;
}

std::string render_outcome_table(
    const std::vector<std::pair<std::string,
                                std::array<double, inject::kNumOutcomes>>>&
        rows,
    bool extended_outcomes) {
  const std::size_t n_outcomes = inject::active_outcomes(extended_outcomes);
  std::ostringstream out;
  out << pad("", 24);
  for (std::size_t o = 0; o < n_outcomes; ++o) {
    out << pad(inject::outcome_names()[o], 14);
  }
  out << '\n';
  for (const auto& [label, dist] : rows) {
    out << pad(label, 24);
    for (std::size_t o = 0; o < n_outcomes; ++o) {
      out << pad(percent(dist[o], 1), 14);
    }
    out << '\n';
  }
  return out.str();
}

std::string render_level_table(
    const std::vector<std::pair<std::string, std::vector<double>>>& rows,
    const std::vector<std::string>& level_labels) {
  std::ostringstream out;
  out << pad("", 20);
  for (const auto& label : level_labels) out << pad(label, 10);
  out << '\n';
  for (const auto& [label, dist] : rows) {
    out << pad(label, 20);
    for (double v : dist) out << pad(percent(v, 1), 10);
    out << '\n';
  }
  return out.str();
}

std::string render_outcome_totals(const std::vector<PointResult>& results) {
  std::array<std::uint64_t, inject::kNumOutcomes> totals{};
  std::uint64_t all = 0;
  for (const auto& r : results) {
    for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
      totals[o] += r.counts[o];
      all += r.counts[o];
    }
  }
  std::ostringstream out;
  out << "Trial outcomes (" << results.size() << " points, " << all
      << " trials):\n";
  const auto names = inject::outcome_names();
  for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
    if (totals[o] == 0) continue;
    out << "  " << pad(names[o], 14) << totals[o] << '\n';
  }
  return out.str();
}

std::string render_health(const CampaignHealth& health) {
  std::ostringstream out;
  out << "Campaign health: ";
  out << (health.clean() ? "clean" : "completed with quarantined points")
      << '\n';
  if (health.replayed_trials > 0) {
    out << "  trials replayed from journal: " << health.replayed_trials
        << '\n';
  }
  if (health.total_retries > 0) {
    out << "  internal-error retries:       " << health.total_retries << '\n';
  }
  if (health.quarantined_points > 0) {
    out << "  quarantined points:           " << health.quarantined_points
        << '\n';
  }
  if (health.watchdog_confirmations > 0) {
    out << "  watchdog re-confirmations:    " << health.watchdog_confirmations
        << '\n';
  }
  if (health.deterministic_deadlocks > 0) {
    out << "  deterministic deadlocks:      " << health.deterministic_deadlocks
        << '\n';
  }
  if (health.worker_deaths > 0) {
    out << "  worker signal deaths:         " << health.worker_deaths
        << " (classified SEG_FAULT)\n";
  }
  if (health.worker_lease_kills > 0) {
    out << "  worker lease kills:           " << health.worker_lease_kills
        << '\n';
  }
  if (health.isolation_fallbacks > 0) {
    out << "  isolation fallbacks:          " << health.isolation_fallbacks
        << " (pool degraded, ran in-process)\n";
  }
  return out.str();
}

}  // namespace fastfit::core
