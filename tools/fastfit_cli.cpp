// fastfit — the command-line front end of the tool. `fastfit --help`
// prints each command's synopsis and knobs, rendered from commands().
//
//   list     bundled workloads, prediction models, fault models.
//   profile  phase 1 only: golden + profiling run, the mpiP-style
//            communication report and the pruning statistics; --save
//            persists the enumeration (profiling is a one-time cost;
//            Sec IV-B).
//   study    the full three-phase sensitivity study, with optional CSV
//            and JSON export. --journal records every completed trial and
//            --resume continues a killed campaign from it, bit-identically
//            (docs/resilience.md); --shard i/N runs one deterministic
//            shard and --fragment saves it for `fastfit merge`
//            (docs/pipeline.md); telemetry sinks are described in
//            docs/observability.md. Every study prints its per-outcome
//            trial totals and its health table on stderr.
//   merge    reassembles the fragments of a complete sharded study into
//            the unsharded run's report, bit for bit (same JSON, same
//            trial counters), after checking that they tile one campaign.
//   p2p      the point-to-point extension study (Sec VIII future work):
//            per-parameter response distributions of the workload's
//            send/recv calls, run as ordinary campaign points under one
//            exact-point parameter fault model; exits 2 like study when
//            a point was quarantined.
//
// Knobs are the configuration values of support/config (config_knobs()):
// each has a --flag and an environment variable (NUM_INJ for --trials,
// FASTFIT_* for the rest). Each command declares the knobs it applies
// (commands() below); for each of those, resolve_knobs() takes the flag,
// or else the variable, and checks the value with the one parser,
// InjectionConfig::from_map, and apply_knobs() maps the knobs that were
// given onto core::StudyOptions, so an unset knob keeps the command's own
// default. A command reads no variable of a knob it does not apply, and
// rejects any flag it does not know (exit 1, naming the flag): a typo
// must never silently run a default-configured study.
//
// Exit codes: 0 clean success, 2 study completed with quarantined points
// (results are partial for those points), 1 fatal (usage or execution
// error).

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/registry.hpp"
#include "core/export.hpp"
#include "core/report.hpp"
#include "core/shard.hpp"
#include "core/study.hpp"
#include "inject/fault_model.hpp"
#include "ml/classifier.hpp"
#include "profile/queries.hpp"
#include "stats/levels.hpp"
#include "support/config.hpp"
#include "support/format.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/progress_meter.hpp"
#include "telemetry/recorder.hpp"

using namespace fastfit;

namespace {

/// One command's own flags and the configuration knobs it applies. The
/// parser, the knob resolver and --help all read these lists, so what a
/// command accepts, what it applies and what help says cannot drift.
struct Command {
  std::string_view name;
  std::string_view synopsis;               ///< usage after the name
  std::vector<std::string_view> options;   ///< own flags that take a value
  std::vector<std::string_view> switches;  ///< own flags that take none
  std::vector<std::string_view> knobs;     ///< config_knobs() flags applied
  bool positional = false;  ///< bare arguments, not a workload (merge)
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"profile", "<workload> [--ranks N] [--save FILE]", {"ranks", "save"},
       {}, {"passes"}},
      {"study",
       "<workload> [--ranks N] [--threshold X] [--no-ml]\n"
       "                [--csv FILE] [--json FILE] [--resume]\n"
       "                [--fragment FILE]",
       {"ranks", "threshold", "csv", "json", "fragment"},
       {"no-ml", "resume"},
       {"trials", "seed", "parallel-trials", "journal", "max-trial-retries",
        "shard", "passes", "fault-models", "repair", "isolation",
        "snapshots", "trace-out", "metrics-out", "progress",
        "metrics-interval-ms"}},
      {"merge", "[--json FILE] [--csv FILE] [--metrics-out FILE]\n"
                "                FRAGMENT...",
       {"json", "csv", "metrics-out"}, {}, {}, true},
      {"p2p", "<workload> [--ranks N] [--points K]", {"ranks", "points"}, {},
       {"trials", "seed", "fault-models"}},
  };
  return table;
}

bool listed(const std::vector<std::string_view>& names,
            std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// --fault-model is the single-model spelling of the --fault-models knob.
constexpr std::string_view kFaultModelAlias = "fault-model";

/// The config knob that command-line flag `flag` sets, or nullptr.
const ConfigKnob* knob_of(std::string_view flag) {
  if (flag == kFaultModelAlias) flag = "fault-models";
  for (const auto& knob : config_knobs()) {
    if (flag == knob.flag) return &knob;
  }
  return nullptr;
}

/// The full usage text. The knob section is rendered from config_knobs()
/// and the command table, so each knob's flag, variable and the commands
/// that apply it come from the lists the parser and the resolver use.
std::string usage_text() {
  std::string text = "usage:\n  fastfit list\n";
  for (const auto& command : commands()) {
    text += "  fastfit ";
    text += command.name;
    text += ' ';
    text += command.synopsis;
    if (!command.knobs.empty()) text += " [knobs]";
    text += '\n';
  }
  text +=
      "\n"
      "knobs (each --flag has an environment-variable alias; flags win; a\n"
      "command applies, and reads the variable of, only the knobs marked\n"
      "with its name; --fault-model is an alias of --fault-models):\n";
  for (const auto& knob : config_knobs()) {
    std::string applied_by;
    for (const auto& command : commands()) {
      if (!listed(command.knobs, knob.flag)) continue;
      if (!applied_by.empty()) applied_by += ", ";
      applied_by += command.name;
    }
    if (applied_by.empty()) continue;
    std::string left = "  --" + std::string(knob.flag);
    if (knob.arg[0] != '\0') left += ' ' + std::string(knob.arg);
    left += "  (" + std::string(knob.env) + ')';
    constexpr std::size_t kHelpColumn = 48;
    left.resize(std::max(left.size() + 1, kHelpColumn), ' ');
    text += left + knob.help + " [" + applied_by + "]\n";
  }
  return text;
}

int usage() {
  std::fprintf(stderr, "%s", usage_text().c_str());
  return 1;
}

/// Minimal flag parser: --key value pairs plus boolean switches, checked
/// against one command's flags.
struct Args {
  std::map<std::string, std::string> values;
  std::vector<std::string> positional;

  /// Parses argv[first..]. Throws ConfigError naming the first flag that
  /// `command` does not accept; returns false on a malformed command line
  /// (a flag missing its value, or a stray bare argument).
  bool parse(int argc, char** argv, int first, const Command& command) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        if (!command.positional) return false;
        positional.push_back(std::move(key));
        continue;
      }
      key = key.substr(2);
      const ConfigKnob* knob = knob_of(key);
      const bool applied = knob != nullptr && listed(command.knobs, knob->flag);
      const bool is_switch = listed(command.switches, key) ||
                             (applied && knob->arg[0] == '\0');
      if (!applied && !is_switch && !listed(command.options, key)) {
        throw ConfigError("unknown flag --" + key + " for 'fastfit " +
                          std::string(command.name) + "' (see fastfit --help)");
      }
      if (is_switch) {
        values[key] = "1";
      } else {
        if (i + 1 >= argc) return false;
        values[key] = argv[++i];
      }
    }
    return true;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  bool has(const std::string& key) const { return values.count(key) > 0; }
};

/// The knobs a command was given, resolved: `config` holds their values
/// (every other field keeps its InjectionConfig default), and `source`
/// maps each given knob's variable to where its value came from, the
/// "--flag" or the variable itself.
struct Knobs {
  InjectionConfig config;
  std::map<std::string, std::string> source;

  /// Runs `apply` when the knob of variable `env` was given. A
  /// ConfigError it throws is prefixed with the value's source.
  template <typename Fn>
  void apply(const std::string& env, Fn&& fn) const {
    const auto it = source.find(env);
    if (it == source.end()) return;
    try {
      fn();
    } catch (const ConfigError& e) {
      throw ConfigError(it->second + ": " + e.what());
    }
  }
};

/// Reads each knob `command` applies from its flag, or else from its
/// environment variable (the only place the CLI reads the environment),
/// and checks every value with InjectionConfig::from_map. An error names
/// the flag or the variable the bad value came from.
Knobs resolve_knobs(const Command& command, const Args& args) {
  Knobs knobs;
  std::map<std::string, std::string> values;
  for (const auto& knob : config_knobs()) {
    if (!listed(command.knobs, knob.flag)) continue;
    std::string flag = knob.flag;
    if (!args.has(flag) && knob_of(kFaultModelAlias) == &knob) {
      flag = kFaultModelAlias;
    }
    if (args.has(flag)) {
      values[knob.env] = args.get(flag, "");
      knobs.source[knob.env] = "--" + flag;
    } else if (const char* value = std::getenv(knob.env)) {
      values[knob.env] = value;
      knobs.source[knob.env] = knob.env;
    }
  }
  try {
    knobs.config = InjectionConfig::from_map(values);
  } catch (const ConfigError& e) {
    // from_map's errors begin with the variable; name the real source.
    std::string message = e.what();
    for (const auto& [env, source] : knobs.source) {
      if (message.rfind(env + ':', 0) == 0) {
        message.replace(0, env.size(), source);
        break;
      }
    }
    throw ConfigError(message);
  }
  return knobs;
}

/// Applies each knob that was given to `options`. A knob left unset keeps
/// the command's own default. The pass chain decides the ML stage by
/// ending in "ml" or not, which options.use_ml must already allow.
void apply_knobs(const Knobs& knobs, core::StudyOptions& options) {
  const auto& config = knobs.config;
  auto& campaign = options.campaign;
  knobs.apply("NUM_INJ", [&] {
    campaign.trials_per_point = static_cast<std::uint32_t>(config.num_inj);
  });
  knobs.apply("FASTFIT_SEED", [&] { campaign.seed = config.seed; });
  knobs.apply("FASTFIT_PARALLEL_TRIALS", [&] {
    campaign.max_parallel_trials =
        static_cast<std::size_t>(config.parallel_trials);
  });
  knobs.apply("FASTFIT_JOURNAL", [&] { options.journal = config.journal; });
  knobs.apply("FASTFIT_MAX_TRIAL_RETRIES", [&] {
    campaign.max_trial_retries =
        static_cast<std::uint32_t>(config.max_trial_retries);
  });
  knobs.apply("FASTFIT_SHARD",
              [&] { campaign.shard = core::parse_shard(config.shard); });
  knobs.apply("FASTFIT_PASSES", [&] {
    auto chain = core::parse_pass_list(config.passes);
    if (chain.ml && !options.use_ml) {
      throw ConfigError("the pass chain selects 'ml' but ML is disabled");
    }
    campaign.pruning_passes = std::move(chain.structural);
    options.use_ml = chain.ml;
  });
  knobs.apply("FASTFIT_FAULT_MODELS", [&] {
    campaign.fault_models = inject::parse_fault_models(config.fault_models);
  });
  knobs.apply("FASTFIT_REPAIR", [&] { campaign.repair = config.repair; });
  knobs.apply("FASTFIT_ISOLATION", [&] {
    campaign.isolation = core::parse_isolation_mode(config.isolation);
  });
  knobs.apply("FASTFIT_SNAPSHOTS",
              [&] { campaign.snapshots = config.snapshots; });
}

/// Reads the numeric flag `--flag`, or `fallback` when it is absent: a
/// decimal in [0, max]. An error names the flag.
template <typename T>
T parse_number_flag(const Args& args, const std::string& flag, T fallback,
                    T max) {
  if (!args.has(flag)) return fallback;
  const std::string value = args.get(flag, "");
  const char* end = value.data() + value.size();
  T out{};
  const auto parsed = std::from_chars(value.data(), end, out);
  if (parsed.ec != std::errc{} || parsed.ptr != end || !(out >= T{}) ||
      out > max) {
    std::ostringstream range;
    range << max;
    throw ConfigError("--" + flag + ": expected a number in [0, " +
                      range.str() + "], got '" + value + "'");
  }
  return out;
}

/// --ranks N, checked.
int parse_ranks(const Args& args) {
  return parse_number_flag(args, "ranks", 16,
                           std::numeric_limits<int>::max());
}

/// Writes one output file named on the command line, reporting either
/// "wrote PATH" on stdout or the failure on stderr. Returns whether it
/// wrote: the command goes on to write its other outputs, then exits 1,
/// as it does for an unwritable --json.
bool write_output(const std::string& path, const std::string& text,
                  const char* what) {
  if (!telemetry::write_text_file(path, text)) {
    std::fprintf(stderr, "error: failed to write %s: %s\n", what,
                 path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Writes the recorder's metrics snapshot: JSON for a ".json" path, else
/// Prometheus text.
bool write_metrics(const std::string& path) {
  const auto snapshot = telemetry::Recorder::instance().metrics();
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  return write_output(path,
                      json ? telemetry::to_metrics_json(snapshot)
                           : telemetry::to_prometheus(snapshot),
                      "metrics");
}

/// Prints the outcome table (one row per collective kind, then ALL) and
/// the campaign health table.
void print_outcomes(const core::StudyResult& result) {
  std::vector<std::pair<std::string,
                        std::array<double, inject::kNumOutcomes>>>
      rows;
  for (auto kind : core::kinds_present(result.measured)) {
    rows.emplace_back(mpi::to_string(kind),
                      core::outcome_distribution(result.measured, kind));
  }
  rows.emplace_back("ALL", core::outcome_distribution(result.measured));
  std::printf("%s\n",
              core::render_outcome_table(rows, result.extended_outcomes)
                  .c_str());
  std::printf("%s", core::render_health(result.health).c_str());
}

/// Writes the --csv, --json and --fragment files the command line asked
/// for.
void write_reports(const Args& args, const core::StudyResult& result) {
  if (args.has("csv")) {
    core::write_file(args.get("csv", ""),
                     core::to_csv(result.measured, result.extended_outcomes));
    std::printf("wrote %s\n", args.get("csv", "").c_str());
  }
  if (args.has("json")) {
    core::write_file(args.get("json", ""), core::to_json(result));
    std::printf("wrote %s\n", args.get("json", "").c_str());
  }
  if (args.has("fragment")) {
    core::write_file(args.get("fragment", ""),
                     core::to_shard_fragment(result));
    std::printf("wrote %s\n", args.get("fragment", "").c_str());
  }
}

int cmd_list() {
  std::printf("workloads:      %s\n",
              join(apps::workload_names(), ", ").c_str());
  std::printf("models:         %s\n",
              join(ml::classifier_names(), ", ").c_str());
  std::string fault_models;
  for (std::size_t m = 0; m < inject::kNumFaultModels; ++m) {
    if (m) fault_models += ", ";
    fault_models += to_string(static_cast<inject::FaultModel>(m));
  }
  std::printf("fault models:   %s\n", fault_models.c_str());
  std::string triggers;
  for (std::size_t t = 0; t < inject::kNumFaultTriggers; ++t) {
    if (t) triggers += ", ";
    triggers += to_string(static_cast<inject::FaultTrigger>(t));
  }
  std::printf("fault triggers: %s  (spec: model[@trigger[=param]])\n",
              triggers.c_str());
  return 0;
}

int cmd_profile(const std::string& workload_name, const Args& args,
                const Knobs& knobs) {
  const auto workload = apps::make_workload(workload_name);
  core::StudyOptions options;
  options.campaign.nranks = parse_ranks(args);
  options.use_ml = false;
  apply_knobs(knobs, options);
  core::StudyDriver driver(*workload, std::move(options));
  driver.profile();
  auto& campaign = driver.campaign();

  std::printf("%s\n", profile::mpip_report(campaign.profiler()).c_str());
  const auto& s = campaign.stats();
  std::printf("equivalence classes: %zu of %d ranks\n",
              s.equivalence_classes, s.nranks);
  std::printf("injection points:    %llu total -> %llu after semantic "
              "pruning (%s) -> %llu after context pruning (%s)\n",
              static_cast<unsigned long long>(s.total_points),
              static_cast<unsigned long long>(s.after_semantic),
              percent(s.semantic_reduction()).c_str(),
              static_cast<unsigned long long>(s.after_context),
              percent(s.context_reduction()).c_str());
  if (args.has("save")) {
    core::write_file(args.get("save", ""),
                     core::to_text(campaign.enumeration()));
    std::printf("saved enumeration to %s\n", args.get("save", "").c_str());
  }
  return 0;
}

int cmd_study(const std::string& workload_name, const Args& args,
              const Knobs& knobs) {
  const auto workload = apps::make_workload(workload_name);
  core::StudyOptions options;
  options.campaign.nranks = parse_ranks(args);
  options.campaign.trials_per_point = 12;
  options.campaign.seed = 258398418711ULL;
  options.use_ml = !args.has("no-ml");
  options.ml.accuracy_threshold =
      parse_number_flag(args, "threshold", 0.65, 1.0);
  options.resume = args.has("resume");
  apply_knobs(knobs, options);
  if (options.resume && options.journal.empty()) {
    throw ConfigError("--resume requires --journal (or FASTFIT_JOURNAL)");
  }
  if (options.campaign.shard.sharded() && options.use_ml &&
      !knobs.source.count("FASTFIT_PASSES")) {
    // A sharded study needs a static point set; rather than erroring on
    // the CLI's use_ml default, drop the ML stage the way --no-ml would.
    // An explicit "--passes ...,ml" together with --shard still errors.
    std::fprintf(stderr,
                 "note: --shard implies --no-ml (the ML stage resolves "
                 "points adaptively)\n");
    options.use_ml = false;
  }

  // Telemetry sinks: any sink enables the recorder (it is off, and
  // free, otherwise).
  const auto& config = knobs.config;
  auto& recorder = telemetry::Recorder::instance();
  std::unique_ptr<telemetry::ProgressMeter> meter;
  if (config.telemetry_requested()) {
    recorder.enable();
    telemetry::Recorder::bind_thread(telemetry::Track::Main, -1,
                                     "campaign-main");
    if (config.progress ||
        (config.metrics_interval_ms > 0 && !config.metrics_out.empty())) {
      telemetry::ProgressMeter::Options meter_opts;
      meter_opts.live_line = config.progress;
      meter_opts.metrics_path = config.metrics_out;
      meter_opts.metrics_interval =
          std::chrono::milliseconds(config.metrics_interval_ms);
      meter = std::make_unique<telemetry::ProgressMeter>(meter_opts);
    }
  }

  core::StudyDriver study(*workload, std::move(options));
  const auto result = study.run();
  if (meter) meter->stop();

  const auto& s = result.stats;
  std::printf("pruning: %llu -> %llu (%s) -> %llu (%s); ML predicted %s; "
              "total reduction %s\n\n",
              static_cast<unsigned long long>(s.total_points),
              static_cast<unsigned long long>(s.after_semantic),
              percent(s.semantic_reduction()).c_str(),
              static_cast<unsigned long long>(s.after_context),
              percent(s.context_reduction()).c_str(),
              percent(result.ml_reduction).c_str(),
              percent(result.total_reduction()).c_str());
  print_outcomes(result);

  // Always-on stderr report: outcome totals + health, telemetry or not —
  // a campaign's counts must never be only an exit code.
  std::fprintf(stderr, "%s%s",
               core::render_outcome_totals(result.measured).c_str(),
               core::render_health(result.health).c_str());

  bool wrote = true;
  if (!config.trace_out.empty()) {
    wrote &= write_output(config.trace_out,
                          telemetry::to_chrome_trace(recorder.drain_events(),
                                                     recorder.bound_threads()),
                          "trace");
  }
  if (!config.metrics_out.empty()) wrote &= write_metrics(config.metrics_out);
  write_reports(args, result);
  if (!wrote) return 1;
  return result.health.clean() ? 0 : 2;
}

/// Reads a whole file, throwing ConfigError on I/O failure (the merge
/// counterpart of core::write_file).
std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read fragment: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw ConfigError("error reading fragment: " + path);
  }
  return buffer.str();
}

int cmd_merge(const Args& args) {
  const auto& paths = args.positional;
  if (paths.empty()) {
    std::fprintf(stderr, "error: merge needs at least one fragment file\n");
    return usage();
  }

  std::vector<std::string> fragments;
  fragments.reserve(paths.size());
  for (const auto& path : paths) fragments.push_back(read_text_file(path));
  const auto result = core::merge_fragments(fragments);

  const auto& s = result.stats;
  std::printf("merged %zu fragments: %llu -> %llu (%s) -> %llu (%s), "
              "%zu measured points\n\n",
              fragments.size(),
              static_cast<unsigned long long>(s.total_points),
              static_cast<unsigned long long>(s.after_semantic),
              percent(s.semantic_reduction()).c_str(),
              static_cast<unsigned long long>(s.after_context),
              percent(s.context_reduction()).c_str(),
              result.measured.size());
  print_outcomes(result);
  write_reports(args, result);
  if (args.has("metrics-out")) {
    // Synthesize the trial counters a single-process run would have
    // reported, so merged metrics diff cleanly against an unsharded
    // run's snapshot. Same names, help, and labels as TelemetrySink.
    auto& recorder = telemetry::Recorder::instance();
    recorder.enable();
    std::array<std::uint64_t, inject::kNumOutcomes> totals{};
    for (const auto& point : result.measured) {
      for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
        totals[o] += point.counts[o];
      }
    }
    for (std::size_t o = 0;
         o < inject::active_outcomes(result.extended_outcomes); ++o) {
      const std::string labels =
          "outcome=\"" +
          std::string(inject::to_string(static_cast<inject::Outcome>(o))) +
          '"';
      recorder
          .counter("fastfit_trials_total",
                   "Trial outcomes recorded (incl. journal replays)", labels)
          .add(totals[o]);
    }
    if (result.health.replayed_trials > 0) {
      recorder
          .counter("fastfit_trials_replayed_total",
                   "Trials served from the journal")
          .add(result.health.replayed_trials);
    }
    if (result.health.quarantined_points > 0) {
      recorder
          .counter("fastfit_quarantined_points_total",
                   "Points the trial guard gave up on")
          .add(result.health.quarantined_points);
    }
    if (!write_metrics(args.get("metrics-out", ""))) return 1;
  }
  return result.health.clean() ? 0 : 2;
}

int cmd_p2p(const std::string& workload_name, const Args& args,
            const Knobs& knobs) {
  const auto workload = apps::make_workload(workload_name);
  core::StudyOptions options;
  options.campaign.nranks = parse_ranks(args);
  options.campaign.trials_per_point = 8;
  options.use_ml = false;
  apply_knobs(knobs, options);
  // Fail fast on the fault-model axis, before the profiling run: a p2p
  // site takes one exact-point parameter mutation, so any other model,
  // trigger or a second model is an error, not silently dropped.
  knobs.apply("FASTFIT_FAULT_MODELS", [&] {
    const auto& models = options.campaign.fault_models;
    for (const auto& spec : models) inject::check_p2p_fault_model(spec);
    if (models.size() > 1) {
      throw ConfigError("the p2p study injects one fault model; got '" +
                        inject::canonical_fault_models(models) + "'");
    }
  });
  const auto trials = options.campaign.trials_per_point;
  const std::size_t cap = parse_number_flag<std::size_t>(
      args, "points", 60, std::numeric_limits<std::uint32_t>::max());

  core::StudyDriver driver(*workload, std::move(options));
  driver.profile();
  auto& campaign = driver.campaign();

  const auto e = campaign.enumerate(mpi::SiteFamily::P2p);
  std::printf("p2p exploration space: %llu -> %llu (semantic) -> %llu "
              "(context)\n",
              static_cast<unsigned long long>(e.stats.total_points),
              static_cast<unsigned long long>(e.stats.after_semantic),
              static_cast<unsigned long long>(e.stats.after_context));
  if (e.points.empty()) {
    std::printf("%s uses no point-to-point communication\n",
                workload_name.c_str());
    return 0;
  }
  const std::span<const core::InjectionPoint> points(
      e.points.data(), std::min(e.points.size(), cap));
  const auto results = campaign.measure_many(points, trials);
  std::vector<std::pair<std::string,
                        std::array<double, inject::kNumOutcomes>>>
      rows;
  for (auto param : {mpi::P2pParam::Buffer, mpi::P2pParam::Count,
                     mpi::P2pParam::Datatype, mpi::P2pParam::Peer,
                     mpi::P2pParam::Tag}) {
    rows.emplace_back(to_string(param),
                      core::outcome_distribution(
                          results, [param](const core::InjectionPoint& p) {
                            return p.p2p_param == param;
                          }));
  }
  std::printf("%s", core::render_outcome_table(rows).c_str());
  return campaign.health().clean() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[1];
  try {
    if (name == "--help" || name == "-h" || name == "help") {
      std::printf("%s", usage_text().c_str());
      return 0;
    }
    if (name == "list") return cmd_list();
    const auto& table = commands();
    const auto command =
        std::find_if(table.begin(), table.end(),
                     [&name](const Command& c) { return c.name == name; });
    if (command == table.end()) {
      std::fprintf(stderr, "unknown command: %s\n", name.c_str());
      return usage();
    }
    // Every command but merge takes its workload as the first argument.
    const int first = command->positional ? 2 : 3;
    if (argc < first) return usage();
    Args args;
    if (!args.parse(argc, argv, first, *command)) return usage();
    const auto knobs = resolve_knobs(*command, args);
    if (name == "merge") return cmd_merge(args);
    if (name == "profile") return cmd_profile(argv[2], args, knobs);
    if (name == "p2p") return cmd_p2p(argv[2], args, knobs);
    return cmd_study(argv[2], args, knobs);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Internal failures inside trials are retried and quarantined by the
    // campaign itself (exit 2 via cmd_study); anything that escapes to
    // here is fatal.
    std::fprintf(stderr, "execution failed: %s\n", e.what());
    return 1;
  }
}
