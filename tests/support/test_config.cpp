#include "support/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "support/error.hpp"

namespace fastfit {
namespace {

TEST(Config, Defaults) {
  const auto cfg = InjectionConfig::from_map({});
  EXPECT_EQ(cfg.num_inj, 100u);
  EXPECT_FALSE(cfg.inv_id.has_value());
  EXPECT_FALSE(cfg.call_id.has_value());
  EXPECT_FALSE(cfg.rank_id.has_value());
  EXPECT_FALSE(cfg.param_id.has_value());
}

TEST(Config, ParsesAllTableTwoVariables) {
  const auto cfg = InjectionConfig::from_map({{"NUM_INJ", "250"},
                                              {"INV_ID", "17"},
                                              {"CALL_ID", "3"},
                                              {"RANK_ID", "31"},
                                              {"PARAM_ID", "4"},
                                              {"FASTFIT_SEED", "99"}});
  EXPECT_EQ(cfg.num_inj, 250u);
  EXPECT_EQ(cfg.inv_id, 17u);
  EXPECT_EQ(cfg.call_id, 3u);
  EXPECT_EQ(cfg.rank_id, 31u);
  EXPECT_EQ(cfg.param_id, 4);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(Config, RejectsUnknownKey) {
  EXPECT_THROW(InjectionConfig::from_map({{"BOGUS", "1"}}), ConfigError);
}

TEST(Config, RejectsNonNumeric) {
  EXPECT_THROW(InjectionConfig::from_map({{"NUM_INJ", "ten"}}), ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"NUM_INJ", ""}}), ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"NUM_INJ", "-5"}}), ConfigError);
}

TEST(Config, RejectsZeroTrials) {
  EXPECT_THROW(InjectionConfig::from_map({{"NUM_INJ", "0"}}), ConfigError);
}

TEST(Config, EnforcesTableTwoFieldWidths) {
  // The paper allots 3 decimal digits to INV_ID / CALL_ID and 1 to PARAM_ID.
  EXPECT_NO_THROW(InjectionConfig::from_map({{"INV_ID", "999"}}));
  EXPECT_THROW(InjectionConfig::from_map({{"INV_ID", "1000"}}), ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"CALL_ID", "1000"}}), ConfigError);
  EXPECT_NO_THROW(InjectionConfig::from_map({{"PARAM_ID", "9"}}));
  EXPECT_THROW(InjectionConfig::from_map({{"PARAM_ID", "10"}}), ConfigError);
  // NUM_INJ is the CLI's --trials: a campaign counts trials in 32 bits.
  EXPECT_NO_THROW(InjectionConfig::from_map({{"NUM_INJ", "4294967295"}}));
  EXPECT_THROW(InjectionConfig::from_map({{"NUM_INJ", "4294967296"}}),
               ConfigError);
}

TEST(Config, RejectsOverflow) {
  EXPECT_THROW(InjectionConfig::from_map({{"NUM_INJ", "99999999999999999999"}}),
               ConfigError);
}

TEST(Config, ParallelTrialsDefaultsToAuto) {
  const auto cfg = InjectionConfig::from_map({});
  EXPECT_EQ(cfg.parallel_trials, 0u);  // 0 = auto-sized pool
}

TEST(Config, ParsesAndValidatesParallelTrials) {
  const auto cfg =
      InjectionConfig::from_map({{"FASTFIT_PARALLEL_TRIALS", "4"}});
  EXPECT_EQ(cfg.parallel_trials, 4u);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_PARALLEL_TRIALS", "-1"}}),
               ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_PARALLEL_TRIALS", "two"}}),
               ConfigError);
  EXPECT_THROW(
      InjectionConfig::from_map({{"FASTFIT_PARALLEL_TRIALS", "5000"}}),
      ConfigError);
}

TEST(Config, ResilienceKnobDefaults) {
  const auto cfg = InjectionConfig::from_map({});
  EXPECT_TRUE(cfg.journal.empty());       // no journal unless asked for
  EXPECT_EQ(cfg.max_trial_retries, 2u);
}

TEST(Config, ParsesJournalPath) {
  const auto cfg =
      InjectionConfig::from_map({{"FASTFIT_JOURNAL", "/tmp/run.jsonl"}});
  EXPECT_EQ(cfg.journal, "/tmp/run.jsonl");
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_JOURNAL", ""}}),
               ConfigError);
}

TEST(Config, ParsesAndValidatesMaxTrialRetries) {
  const auto cfg =
      InjectionConfig::from_map({{"FASTFIT_MAX_TRIAL_RETRIES", "0"}});
  EXPECT_EQ(cfg.max_trial_retries, 0u);  // 0 = quarantine on first failure
  EXPECT_EQ(InjectionConfig::from_map({{"FASTFIT_MAX_TRIAL_RETRIES", "100"}})
                .max_trial_retries,
            100u);
  EXPECT_THROW(
      InjectionConfig::from_map({{"FASTFIT_MAX_TRIAL_RETRIES", "101"}}),
      ConfigError);
  EXPECT_THROW(
      InjectionConfig::from_map({{"FASTFIT_MAX_TRIAL_RETRIES", "many"}}),
      ConfigError);
}

TEST(Config, ResilienceKnobsReadFromEnvironment) {
  ::setenv("FASTFIT_JOURNAL", "/tmp/env.jsonl", 1);
  ::setenv("FASTFIT_MAX_TRIAL_RETRIES", "7", 1);
  const auto cfg = InjectionConfig::from_environment();
  EXPECT_EQ(cfg.journal, "/tmp/env.jsonl");
  EXPECT_EQ(cfg.max_trial_retries, 7u);
  ::unsetenv("FASTFIT_JOURNAL");
  ::unsetenv("FASTFIT_MAX_TRIAL_RETRIES");
}

TEST(Config, TelemetryKnobDefaultsAreOff) {
  const auto cfg = InjectionConfig::from_map({});
  EXPECT_TRUE(cfg.trace_out.empty());
  EXPECT_TRUE(cfg.metrics_out.empty());
  EXPECT_FALSE(cfg.progress);
  EXPECT_EQ(cfg.metrics_interval_ms, 0u);
  EXPECT_FALSE(cfg.telemetry_requested());
}

TEST(Config, ParsesTelemetryPathsAndRejectsEmpty) {
  const auto cfg =
      InjectionConfig::from_map({{"FASTFIT_TRACE", "trace.json"},
                                 {"FASTFIT_METRICS", "metrics.prom"}});
  EXPECT_EQ(cfg.trace_out, "trace.json");
  EXPECT_EQ(cfg.metrics_out, "metrics.prom");
  EXPECT_TRUE(cfg.telemetry_requested());
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_TRACE", ""}}),
               ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_METRICS", ""}}),
               ConfigError);
}

TEST(Config, ParsesAndValidatesProgressFlag) {
  EXPECT_TRUE(InjectionConfig::from_map({{"FASTFIT_PROGRESS", "1"}}).progress);
  EXPECT_FALSE(
      InjectionConfig::from_map({{"FASTFIT_PROGRESS", "0"}}).progress);
  EXPECT_TRUE(InjectionConfig::from_map({{"FASTFIT_PROGRESS", "1"}})
                  .telemetry_requested());
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_PROGRESS", "2"}}),
               ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_PROGRESS", "yes"}}),
               ConfigError);
}

TEST(Config, ParsesAndValidatesMetricsInterval) {
  EXPECT_EQ(InjectionConfig::from_map({{"FASTFIT_METRICS_INTERVAL_MS", "500"}})
                .metrics_interval_ms,
            500u);
  // Beyond one hour means "at campaign end", which 0 already requests.
  EXPECT_THROW(
      InjectionConfig::from_map({{"FASTFIT_METRICS_INTERVAL_MS", "3600001"}}),
      ConfigError);
}

TEST(Config, TelemetryKnobsReadFromEnvironment) {
  ::setenv("FASTFIT_TRACE", "/tmp/env-trace.json", 1);
  ::setenv("FASTFIT_PROGRESS", "1", 1);
  ::setenv("FASTFIT_METRICS_INTERVAL_MS", "100", 1);
  const auto cfg = InjectionConfig::from_environment();
  EXPECT_EQ(cfg.trace_out, "/tmp/env-trace.json");
  EXPECT_TRUE(cfg.progress);
  EXPECT_EQ(cfg.metrics_interval_ms, 100u);
  ::unsetenv("FASTFIT_TRACE");
  ::unsetenv("FASTFIT_PROGRESS");
  ::unsetenv("FASTFIT_METRICS_INTERVAL_MS");
}

TEST(Config, FromEnvironmentReadsTableTwoNames) {
  ::setenv("NUM_INJ", "33", 1);
  ::setenv("RANK_ID", "5", 1);
  const auto cfg = InjectionConfig::from_environment();
  EXPECT_EQ(cfg.num_inj, 33u);
  EXPECT_EQ(cfg.rank_id, 5u);
  ::unsetenv("NUM_INJ");
  ::unsetenv("RANK_ID");
}

TEST(Config, KnobTableIsCompleteAndConsistent) {
  // Every knob the table advertises must be a key from_map accepts: the
  // table drives both from_environment() and the CLI's --help, so an
  // entry from_map rejects would be a documented lie.
  const std::map<std::string, std::string> sample_values = {
      {"NUM_INJ", "10"},
      {"INV_ID", "1"},
      {"CALL_ID", "1"},
      {"RANK_ID", "1"},
      {"PARAM_ID", "1"},
      {"FASTFIT_SEED", "1"},
      {"FASTFIT_PARALLEL_TRIALS", "1"},
      {"FASTFIT_JOURNAL", "j.jsonl"},
      {"FASTFIT_MAX_TRIAL_RETRIES", "1"},
      {"FASTFIT_SHARD", "1/2"},
      {"FASTFIT_PASSES", "semantic,context"},
      {"FASTFIT_TRACE", "t.json"},
      {"FASTFIT_METRICS", "m.prom"},
      {"FASTFIT_PROGRESS", "1"},
      {"FASTFIT_METRICS_INTERVAL_MS", "100"},
      {"FASTFIT_SNAPSHOTS", "on"},
      {"FASTFIT_FAULT_MODELS", "single-bit-flip,rank-death"},
      {"FASTFIT_REPAIR", "1"},
      {"FASTFIT_ISOLATION", "process"},
  };
  std::set<std::string> envs;
  std::set<std::string> flags;
  for (const auto& knob : config_knobs()) {
    EXPECT_TRUE(envs.insert(knob.env).second)
        << "duplicate env " << knob.env;
    if (knob.flag[0] != '\0') {
      EXPECT_TRUE(flags.insert(knob.flag).second)
          << "duplicate flag " << knob.flag;
    }
    EXPECT_NE(knob.help[0], '\0') << knob.env << " has no help text";
    const auto sample = sample_values.find(knob.env);
    ASSERT_NE(sample, sample_values.end())
        << "knob " << knob.env << " missing from this test's sample table "
        << "(new knob? add a sample value here)";
    EXPECT_NO_THROW(InjectionConfig::from_map({*sample})) << knob.env;
  }
  // And the reverse: every key from_map accepts is in the table.
  for (const auto& [env, value] : sample_values) {
    EXPECT_TRUE(envs.count(env)) << env << " accepted but not in the table";
  }
}

TEST(Config, IsolationKnobValidates) {
  const auto cfg =
      InjectionConfig::from_map({{"FASTFIT_ISOLATION", "process"}});
  EXPECT_EQ(cfg.isolation, "process");
  EXPECT_EQ(InjectionConfig{}.isolation, "thread");
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_ISOLATION", "fork"}}),
               ConfigError);
}

TEST(Config, SnapshotKnobsValidate) {
  const auto cfg = InjectionConfig::from_map({{"FASTFIT_SNAPSHOTS", "off"}});
  EXPECT_FALSE(cfg.snapshots);
  EXPECT_TRUE(InjectionConfig{}.snapshots);  // on by default
  EXPECT_TRUE(
      InjectionConfig::from_map({{"FASTFIT_SNAPSHOTS", "on"}}).snapshots);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_SNAPSHOTS", "maybe"}}),
               ConfigError);
  // `auto` is not a value: it is rejected, not read as `on`.
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_SNAPSHOTS", "auto"}}),
               ConfigError);
}

TEST(Config, FaultModelKnobsValidate) {
  const auto cfg = InjectionConfig::from_map({
      {"FASTFIT_FAULT_MODELS", "rank-death@nth=2,message-drop"},
      {"FASTFIT_REPAIR", "1"},
  });
  // Raw text: inject::parse_fault_models owns the grammar.
  EXPECT_EQ(cfg.fault_models, "rank-death@nth=2,message-drop");
  EXPECT_TRUE(cfg.repair);
  EXPECT_EQ(InjectionConfig{}.fault_models, "");
  EXPECT_FALSE(InjectionConfig{}.repair);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_FAULT_MODELS", ""}}),
               ConfigError);
  // --repair and FASTFIT_REPAIR share these rules: on|off|0|1.
  EXPECT_TRUE(InjectionConfig::from_map({{"FASTFIT_REPAIR", "on"}}).repair);
  EXPECT_FALSE(InjectionConfig::from_map({{"FASTFIT_REPAIR", "off"}}).repair);
  EXPECT_FALSE(InjectionConfig::from_map({{"FASTFIT_REPAIR", "0"}}).repair);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_REPAIR", "yes"}}),
               ConfigError);
}

TEST(Config, ShardAndPassesAreStoredRaw) {
  // Raw text here; core/shard.hpp and core/enumerate.hpp own the
  // semantics (and the CLI parses through them).
  const auto cfg = InjectionConfig::from_map(
      {{"FASTFIT_SHARD", "2/4"}, {"FASTFIT_PASSES", "context,semantic"}});
  EXPECT_EQ(cfg.shard, "2/4");
  EXPECT_EQ(cfg.passes, "context,semantic");
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_SHARD", ""}}),
               ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_PASSES", ""}}),
               ConfigError);
}

TEST(Config, ShardAndPassesReadFromEnvironment) {
  ::setenv("FASTFIT_SHARD", "3/4", 1);
  ::setenv("FASTFIT_PASSES", "semantic,context", 1);
  const auto cfg = InjectionConfig::from_environment();
  EXPECT_EQ(cfg.shard, "3/4");
  EXPECT_EQ(cfg.passes, "semantic,context");
  ::unsetenv("FASTFIT_SHARD");
  ::unsetenv("FASTFIT_PASSES");
}

}  // namespace
}  // namespace fastfit
