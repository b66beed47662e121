#pragma once

// Campaign configuration, mirroring the paper's Table II.
//
// FastFIT's injection phase is driven by a small set of parameters the
// paper exposes as environment variables:
//
//   NUM_INJ   - number of injected faults (trials) per injection point
//   INV_ID    - id of the injected invocation
//   CALL_ID   - id of the injected MPI collective call site
//   RANK_ID   - id of the injected rank
//   PARAM_ID  - id of the injected parameter
//
// InjectionConfig reads them either from the process environment (like the
// original tool) or from an explicit key/value map: the fastfit CLI builds
// one from its flags and the variables of the knobs a command applies.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>

namespace fastfit {

/// One configuration knob: the environment variable, its CLI long-flag
/// alias, the value placeholder, and a one-line description. The single
/// table (config_knobs) drives from_environment() and the CLI's flags,
/// its resolver and its --help, so the views can never drift apart.
struct ConfigKnob {
  const char* env;   ///< environment variable name
  const char* flag;  ///< CLI long flag without "--" ("" = library only)
  const char* arg;   ///< value placeholder, e.g. "N", "FILE" ("" = switch)
  const char* help;  ///< one-line description
};

/// Every knob InjectionConfig understands, in display order.
std::span<const ConfigKnob> config_knobs();

/// One fault-injection configuration (paper Table II). Fields left
/// unset select "all" / "chosen by the campaign planner".
struct InjectionConfig {
  /// Trials per injection point, in [1, 2^32) (--trials on the CLI).
  std::uint64_t num_inj = 100;
  std::optional<std::uint32_t> inv_id;    ///< target invocation (3 decimal digits in the paper)
  std::optional<std::uint32_t> call_id;   ///< target collective call site
  std::optional<std::uint32_t> rank_id;   ///< target rank
  std::optional<std::uint8_t> param_id;   ///< target parameter (1 digit)
  std::uint64_t seed = 0x5eedfa57f17ULL;  ///< campaign master seed
  /// Max concurrently executing trials (our extension, not in Table II).
  /// 0 = auto (hardware_concurrency), 1 = serial.
  std::uint64_t parallel_trials = 0;
  /// Durable trial journal path (FASTFIT_JOURNAL); empty = no journal.
  std::string journal;
  /// Internal-failure retries per trial before the point is quarantined
  /// (FASTFIT_MAX_TRIAL_RETRIES); 0 disables retries.
  std::uint64_t max_trial_retries = 2;
  /// Chrome trace-event JSON output path (FASTFIT_TRACE); empty = no
  /// trace. A non-empty path enables the telemetry recorder.
  std::string trace_out;
  /// Metrics snapshot output path (FASTFIT_METRICS); ".json" suffix
  /// selects JSON, anything else Prometheus text exposition. Empty = no
  /// metrics file. A non-empty path enables the telemetry recorder.
  std::string metrics_out;
  /// Live single-line progress report on stderr (FASTFIT_PROGRESS);
  /// enables the telemetry recorder.
  bool progress = false;
  /// Periodic metrics re-export interval in ms
  /// (FASTFIT_METRICS_INTERVAL_MS); 0 = only at campaign end.
  std::uint64_t metrics_interval_ms = 0;
  /// Deterministic shard selector "i/N" (FASTFIT_SHARD); empty = the
  /// whole study. Kept as raw text here — the partition semantics live
  /// in core/shard.hpp, which validates the format.
  std::string shard;
  /// Comma-separated pruning pass chain (FASTFIT_PASSES), e.g.
  /// "semantic,context" or "context,semantic,ml"; empty = the default
  /// chain. Validated by core::parse_pass_list downstream.
  std::string passes;
  /// Comma-separated fault-model specs (FASTFIT_FAULT_MODELS), each
  /// "model[@trigger[=param]]", e.g.
  /// "single-bit-flip,rank-death,message-drop@prob=0.01". Empty = the
  /// default exact-point single bit flip. Validated by
  /// inject::parse_fault_models downstream.
  std::string fault_models;
  /// ULFM-style shrink-and-continue repair for fail-stop rank death
  /// (FASTFIT_REPAIR=on|off|0|1); off (default): a death poisons the
  /// world and classifies RANK_DEAD.
  bool repair = false;
  /// Trial execution backend (FASTFIT_ISOLATION): "thread" (default,
  /// in-process on the scheduler lane's thread) or "process" (fork-server
  /// workers; real signals become classifiable as SEG_FAULT, and rank
  /// code that never yields can be killed). Kept as validated text here;
  /// the mode enum lives in core/procpool.hpp.
  std::string isolation = "thread";
  /// Prefix-replay world snapshots (FASTFIT_SNAPSHOTS=on|off); on by
  /// default.
  bool snapshots = true;

  /// True when any telemetry sink is requested (trace, metrics, or the
  /// live progress line) and the recorder must therefore be enabled.
  bool telemetry_requested() const noexcept {
    return !trace_out.empty() || !metrics_out.empty() || progress;
  }

  /// Parses a config from a key/value map using the Table II names and
  /// the FASTFIT_* extensions — exactly the environment variables listed
  /// by config_knobs(). Unknown keys are rejected; malformed values
  /// raise ConfigError.
  static InjectionConfig from_map(
      const std::map<std::string, std::string>& kv);

  /// Parses a config from the process environment (the original tool's
  /// deployment mode): reads every variable named in config_knobs().
  /// Missing variables keep their defaults.
  static InjectionConfig from_environment();
};

}  // namespace fastfit
