#include "core/export.hpp"

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "core/journal.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace fastfit::core {
namespace {

std::string csv_quote(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void json_point(std::ostringstream& out, const InjectionPoint& p) {
  out << "{\"site\":\"" << json_escape(p.site_location) << "\",\"kind\":\""
      << mpi::to_string(p.kind) << "\",\"param\":\"" << to_string(p.param)
      << "\",\"rank\":" << p.rank << ",\"invocation\":" << p.invocation
      << ",\"phase\":\"" << trace::to_string(p.phase) << "\",\"errhal\":"
      << (p.errhal ? "true" : "false") << ",\"nInv\":" << p.n_inv
      << ",\"stackDep\":" << p.stack_depth
      << ",\"nDiffStack\":" << p.n_diff_stack << '}';
}

}  // namespace

std::string to_csv(const std::vector<PointResult>& results,
                   bool extended_outcomes) {
  const std::size_t n_outcomes = inject::active_outcomes(extended_outcomes);
  std::ostringstream out;
  out << "site,kind,param,rank,invocation,phase,errhal,n_inv,stack_depth,"
         "n_diff_stack,trials";
  for (std::size_t o = 0; o < n_outcomes; ++o) {
    out << ',' << inject::outcome_names()[o];
  }
  out << ",error_rate,retries,quarantined\n";
  for (const auto& r : results) {
    const auto& p = r.point;
    out << csv_quote(p.site_location) << ',' << mpi::to_string(p.kind) << ','
        << to_string(p.param) << ',' << p.rank << ',' << p.invocation << ','
        << trace::to_string(p.phase) << ',' << (p.errhal ? 1 : 0) << ','
        << p.n_inv << ',' << p.stack_depth << ',' << p.n_diff_stack << ','
        << r.trials;
    for (std::size_t o = 0; o < n_outcomes; ++o) {
      out << ',' << r.counts[o];
    }
    out << ',' << r.error_rate() << ',' << r.exec.retries << ','
        << (r.exec.quarantined ? 1 : 0) << '\n';
  }
  return out.str();
}

std::string to_json(const StudyResult& result) {
  std::ostringstream out;
  out << "{\n  \"pruning\": {\"total\": " << result.stats.total_points
      << ", \"afterSemantic\": " << result.stats.after_semantic
      << ", \"afterContext\": " << result.stats.after_context
      << ", \"equivalenceClasses\": " << result.stats.equivalence_classes
      << ", \"nranks\": " << result.stats.nranks << "},\n";
  out << "  \"mlReduction\": " << result.ml_reduction
      << ",\n  \"finalAccuracy\": " << result.final_accuracy
      << ",\n  \"thresholdReached\": "
      << (result.threshold_reached ? "true" : "false") << ",\n";

  out << "  \"measured\": [\n";
  for (std::size_t i = 0; i < result.measured.size(); ++i) {
    const auto& r = result.measured[i];
    out << "    {\"point\": ";
    json_point(out, r.point);
    out << ", \"trials\": " << r.trials << ", \"counts\": {";
    for (std::size_t o = 0; o < inject::active_outcomes(result.extended_outcomes);
         ++o) {
      if (o) out << ", ";
      out << '"' << inject::outcome_names()[o] << "\": " << r.counts[o];
    }
    out << "}, \"errorRate\": " << r.error_rate();
    // Only emitted when set: a resumed campaign must produce output
    // byte-identical to the uninterrupted one, and on a healthy machine
    // no point is ever quarantined.
    if (r.exec.quarantined) out << ", \"quarantined\": true";
    out << '}';
    out << (i + 1 < result.measured.size() ? ",\n" : "\n");
  }
  out << "  ],\n";

  out << "  \"predicted\": [\n";
  for (std::size_t i = 0; i < result.predicted.size(); ++i) {
    const auto& [point, label] = result.predicted[i];
    out << "    {\"point\": ";
    json_point(out, point);
    out << ", \"label\": " << label << '}';
    out << (i + 1 < result.predicted.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

namespace {

constexpr const char* kEnumerationHeader = "fastfit-enumeration v1";

}  // namespace

std::string to_text(const Enumeration& enumeration) {
  std::ostringstream out;
  out << kEnumerationHeader << '\n';
  const auto& s = enumeration.stats;
  out << "stats " << s.total_points << ' ' << s.after_semantic << ' '
      << s.after_context << ' ' << s.equivalence_classes << ' ' << s.nranks
      << '\n';
  for (const auto& cls : enumeration.classes) {
    out << "class";
    for (int rank : cls.ranks) out << ' ' << rank;
    out << '\n';
  }
  for (const auto& p : enumeration.points) {
    out << "point " << p.site_id << ' ' << static_cast<int>(p.kind) << ' '
        << p.rank << ' ' << p.invocation << ' ' << static_cast<int>(p.param)
        << ' ' << p.stack << ' ' << static_cast<int>(p.phase) << ' '
        << (p.errhal ? 1 : 0) << ' ' << p.n_inv << ' ' << p.stack_depth
        << ' ' << p.n_diff_stack << ' ' << p.site_location << '\n';
  }
  return out.str();
}

Enumeration enumeration_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kEnumerationHeader) {
    throw ConfigError("enumeration_from_text: bad header");
  }
  Enumeration out;
  bool saw_stats = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "stats") {
      fields >> out.stats.total_points >> out.stats.after_semantic >>
          out.stats.after_context >> out.stats.equivalence_classes >>
          out.stats.nranks;
      if (!fields) throw ConfigError("enumeration_from_text: bad stats line");
      saw_stats = true;
    } else if (tag == "class") {
      trace::EquivalenceClass cls;
      int rank;
      while (fields >> rank) cls.ranks.push_back(rank);
      if (cls.ranks.empty()) {
        throw ConfigError("enumeration_from_text: empty class");
      }
      out.classes.push_back(std::move(cls));
    } else if (tag == "point") {
      InjectionPoint p;
      int kind = 0;
      int param = 0;
      int phase = 0;
      int errhal = 0;
      fields >> p.site_id >> kind >> p.rank >> p.invocation >> param >>
          p.stack >> phase >> errhal >> p.n_inv >> p.stack_depth >>
          p.n_diff_stack >> p.site_location;
      if (!fields) throw ConfigError("enumeration_from_text: bad point line");
      if (kind < 0 || kind >= static_cast<int>(mpi::kNumCollectiveKinds) ||
          param < 0 || param >= static_cast<int>(mpi::kNumParams) ||
          phase < 0 || phase >= static_cast<int>(trace::kNumPhases)) {
        throw ConfigError("enumeration_from_text: enum value out of range");
      }
      p.kind = static_cast<mpi::CollectiveKind>(kind);
      p.param = static_cast<mpi::Param>(param);
      p.phase = static_cast<trace::ExecPhase>(phase);
      p.errhal = errhal != 0;
      out.points.push_back(std::move(p));
    } else {
      throw ConfigError("enumeration_from_text: unknown tag '" + tag + "'");
    }
  }
  if (!saw_stats) throw ConfigError("enumeration_from_text: missing stats");
  return out;
}

namespace {

constexpr const char* kFragmentHeader = "fastfit-shard-fragment v1";

/// Inverse of json_escape for the fragment's free-text fields (last
/// internal error, world autopsy), which live alone at the end of their
/// line.
std::string text_unescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    if (++i >= text.size()) {
      throw ConfigError("fragment: dangling escape in: " + text);
    }
    switch (text[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 >= text.size()) {
          throw ConfigError("fragment: truncated \\u escape in: " + text);
        }
        out += static_cast<char>(
            std::strtoul(text.substr(i + 1, 4).c_str(), nullptr, 16));
        i += 4;
        break;
      }
      default:
        throw ConfigError("fragment: unknown escape in: " + text);
    }
  }
  return out;
}

/// %.17g: enough digits that the parsed double is bit-exact, so the
/// merged report renders features byte-identically to the unsharded run.
std::string exact_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

struct ParsedFragment {
  ShardSpec shard;
  PruningStats stats;
  std::uint64_t golden_digest = 0;
  CampaignHealth health;
  /// Outcome columns per point line: the six-way base set unless the
  /// fragment declares the extended set with an "outcomes" line.
  std::size_t n_outcomes = inject::kNumBaseOutcomes;
  std::vector<std::pair<std::size_t, PointResult>> points;  // by ordinal
};

ParsedFragment parse_fragment(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kFragmentHeader) {
    throw ConfigError("fragment: bad header (expected '" +
                      std::string(kFragmentHeader) + "')");
  }
  ParsedFragment out;
  bool saw_shard = false, saw_stats = false, saw_golden = false;
  bool saw_health = false;
  // error/autopsy lines attach to an already-parsed point by ordinal.
  std::map<std::size_t, std::size_t> index_of;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "shard") {
      std::size_t index = 0, count = 0;
      fields >> index >> count;
      if (!fields || index < 1 || count < 1 || index > count) {
        throw ConfigError("fragment: bad shard line: " + line);
      }
      out.shard.index = index;
      out.shard.count = count;
      saw_shard = true;
    } else if (tag == "outcomes") {
      std::size_t n = 0;
      fields >> n;
      if (!fields || n <= inject::kNumBaseOutcomes ||
          n > inject::kNumOutcomes) {
        throw ConfigError("fragment: bad outcomes line: " + line);
      }
      out.n_outcomes = n;
    } else if (tag == "stats") {
      fields >> out.stats.total_points >> out.stats.after_semantic >>
          out.stats.after_context >> out.stats.equivalence_classes >>
          out.stats.nranks;
      if (!fields) throw ConfigError("fragment: bad stats line: " + line);
      saw_stats = true;
    } else if (tag == "golden") {
      fields >> out.golden_digest;
      if (!fields) throw ConfigError("fragment: bad golden line: " + line);
      saw_golden = true;
    } else if (tag == "health") {
      // Three columns are retired: the fourth held storm recalibrations
      // and the last two rank-thread quarantine counts, none of which the
      // campaign produces any more. They are always written as 0 and
      // ignored on read, so fragments stay mergeable across versions.
      auto& h = out.health;
      std::uint64_t retired_recalibrations = 0, retired_threads = 0,
                    retired_leaks = 0;
      fields >> h.total_retries >> h.quarantined_points >>
          h.watchdog_confirmations >> retired_recalibrations >>
          h.replayed_trials >> h.deterministic_deadlocks >> retired_threads >>
          retired_leaks;
      if (!fields) throw ConfigError("fragment: bad health line: " + line);
      saw_health = true;
    } else if (tag == "point") {
      std::size_t ordinal = 0;
      PointResult r;
      auto& p = r.point;
      int kind = 0, param = 0, phase = 0, errhal = 0, quarantined = 0;
      fields >> ordinal >> p.site_id >> kind >> p.rank >> p.invocation >>
          param >> p.stack >> phase >> errhal >> p.n_inv >> p.stack_depth >>
          p.n_diff_stack >> r.trials;
      for (std::size_t o = 0; o < out.n_outcomes; ++o) {
        fields >> r.counts[o];
      }
      fields >> r.exec.retries >> quarantined >> p.site_location;
      if (!fields) throw ConfigError("fragment: bad point line: " + line);
      if (kind < 0 || kind >= static_cast<int>(mpi::kNumCollectiveKinds) ||
          param < 0 || param >= static_cast<int>(mpi::kNumParams) ||
          phase < 0 || phase >= static_cast<int>(trace::kNumPhases)) {
        throw ConfigError("fragment: enum value out of range: " + line);
      }
      p.kind = static_cast<mpi::CollectiveKind>(kind);
      p.param = static_cast<mpi::Param>(param);
      p.phase = static_cast<trace::ExecPhase>(phase);
      p.errhal = errhal != 0;
      r.exec.quarantined = quarantined != 0;
      if (!index_of.emplace(ordinal, out.points.size()).second) {
        throw ConfigError("fragment: duplicate ordinal " +
                          std::to_string(ordinal));
      }
      out.points.emplace_back(ordinal, std::move(r));
    } else if (tag == "error" || tag == "autopsy") {
      std::size_t ordinal = 0;
      fields >> ordinal;
      if (!fields) throw ConfigError("fragment: bad " + tag + " line: " + line);
      const auto it = index_of.find(ordinal);
      if (it == index_of.end()) {
        throw ConfigError("fragment: " + tag + " line for unknown ordinal " +
                          std::to_string(ordinal));
      }
      std::string rest;
      std::getline(fields, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      auto& exec = out.points[it->second].second.exec;
      (tag == "error" ? exec.last_error : exec.last_autopsy) =
          text_unescape(rest);
    } else {
      throw ConfigError("fragment: unknown tag '" + tag + "'");
    }
  }
  if (!saw_shard || !saw_stats || !saw_golden || !saw_health) {
    throw ConfigError("fragment: missing shard/stats/golden/health line");
  }
  return out;
}

}  // namespace

std::string to_shard_fragment(const StudyResult& result) {
  if (!result.shard_ordinals.empty() &&
      result.shard_ordinals.size() != result.measured.size()) {
    throw InternalError(
        "to_shard_fragment: shard_ordinals does not match measured");
  }
  std::ostringstream out;
  out << kFragmentHeader << '\n';
  out << "shard " << result.shard.index << ' ' << result.shard.count << '\n';
  // Emitted only for extended-outcome studies so default-configuration
  // fragments stay byte-identical to pre-v2 ones (which the parser reads
  // as the six-outcome base set).
  if (result.extended_outcomes) {
    out << "outcomes " << inject::kNumOutcomes << '\n';
  }
  const auto& s = result.stats;
  out << "stats " << s.total_points << ' ' << s.after_semantic << ' '
      << s.after_context << ' ' << s.equivalence_classes << ' ' << s.nranks
      << '\n';
  out << "golden " << result.golden_digest << '\n';
  const auto& h = result.health;
  out << "health " << h.total_retries << ' ' << h.quarantined_points << ' '
      << h.watchdog_confirmations << " 0 " << h.replayed_trials << ' '
      << h.deterministic_deadlocks << " 0 0\n";
  for (std::size_t i = 0; i < result.measured.size(); ++i) {
    const auto& r = result.measured[i];
    const auto& p = r.point;
    const std::size_t ordinal =
        result.shard_ordinals.empty() ? i : result.shard_ordinals[i];
    out << "point " << ordinal << ' ' << p.site_id << ' '
        << static_cast<int>(p.kind) << ' ' << p.rank << ' ' << p.invocation
        << ' ' << static_cast<int>(p.param) << ' ' << p.stack << ' '
        << static_cast<int>(p.phase) << ' ' << (p.errhal ? 1 : 0) << ' '
        << p.n_inv << ' ' << exact_double(p.stack_depth) << ' '
        << p.n_diff_stack << ' ' << r.trials;
    for (std::size_t o = 0;
         o < inject::active_outcomes(result.extended_outcomes); ++o) {
      out << ' ' << r.counts[o];
    }
    out << ' ' << r.exec.retries << ' ' << (r.exec.quarantined ? 1 : 0) << ' '
        << p.site_location << '\n';
    if (!r.exec.last_error.empty()) {
      out << "error " << ordinal << ' ' << json_escape(r.exec.last_error)
          << '\n';
    }
    if (!r.exec.last_autopsy.empty()) {
      out << "autopsy " << ordinal << ' ' << json_escape(r.exec.last_autopsy)
          << '\n';
    }
  }
  return out.str();
}

StudyResult merge_fragments(const std::vector<std::string>& fragments) {
  if (fragments.empty()) throw ConfigError("merge: no fragments");

  StudyResult merged;
  std::map<std::size_t, PointResult> by_ordinal;
  std::vector<char> shard_seen;
  bool first = true;

  for (const auto& text : fragments) {
    auto fragment = parse_fragment(text);
    if (first) {
      merged.stats = fragment.stats;
      merged.golden_digest = fragment.golden_digest;
      merged.extended_outcomes =
          fragment.n_outcomes > inject::kNumBaseOutcomes;
      shard_seen.assign(fragment.shard.count, 0);
      first = false;
    } else {
      if (fragment.shard.count != shard_seen.size()) {
        throw ConfigError("merge: fragments disagree on shard count (" +
                          std::to_string(shard_seen.size()) + " vs " +
                          std::to_string(fragment.shard.count) + ")");
      }
      if (!(fragment.stats == merged.stats)) {
        throw ConfigError(
            "merge: fragments disagree on pruning stats — were they produced "
            "by the same study configuration?");
      }
      if (fragment.golden_digest != merged.golden_digest) {
        throw ConfigError(
            "merge: fragments disagree on the golden digest — different "
            "campaign (seed, workload, or problem size)");
      }
      if ((fragment.n_outcomes > inject::kNumBaseOutcomes) !=
          merged.extended_outcomes) {
        throw ConfigError(
            "merge: fragments disagree on the outcome set — mixed "
            "default and extended fault-model configurations");
      }
    }
    if (fragments.size() != shard_seen.size()) {
      throw ConfigError("merge: " + std::to_string(fragments.size()) +
                        " fragment(s) for a " +
                        std::to_string(shard_seen.size()) + "-shard study");
    }
    if (shard_seen[fragment.shard.index - 1]) {
      throw ConfigError("merge: duplicate fragment for shard " +
                        fragment.shard.str());
    }
    shard_seen[fragment.shard.index - 1] = 1;

    merged.health.total_retries += fragment.health.total_retries;
    merged.health.quarantined_points += fragment.health.quarantined_points;
    merged.health.watchdog_confirmations +=
        fragment.health.watchdog_confirmations;
    merged.health.replayed_trials += fragment.health.replayed_trials;
    merged.health.deterministic_deadlocks +=
        fragment.health.deterministic_deadlocks;

    for (auto& [ordinal, result] : fragment.points) {
      if (ordinal >= merged.stats.after_context) {
        throw ConfigError("merge: ordinal " + std::to_string(ordinal) +
                          " out of range (post-pruning set has " +
                          std::to_string(merged.stats.after_context) +
                          " points)");
      }
      if (!by_ordinal.emplace(ordinal, std::move(result)).second) {
        throw ConfigError("merge: ordinal " + std::to_string(ordinal) +
                          " measured by more than one shard");
      }
    }
  }

  if (by_ordinal.size() != merged.stats.after_context) {
    throw ConfigError(
        "merge: fragments cover " + std::to_string(by_ordinal.size()) +
        " of " + std::to_string(merged.stats.after_context) +
        " post-pruning points — a shard is missing or was run with a "
        "different partition");
  }

  merged.measured.reserve(by_ordinal.size());
  for (auto& [ordinal, result] : by_ordinal) {
    merged.measured.push_back(std::move(result));
  }
  return merged;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ConfigError("cannot open for writing: " + path);
  out << content;
  if (!out) throw ConfigError("write failed: " + path);
}

}  // namespace fastfit::core
