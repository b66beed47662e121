// Campaign trial throughput: serial loop vs the scheduler's lanes at
// several pool sizes. The whole evaluation suite (bench binaries, the ML loop,
// traditional mode) sits on Campaign::measure_many, so trials/sec here is
// the multiplier on everything downstream. Emits
// BENCH_campaign_throughput.json so later changes can track the perf
// trajectory.
//
// Scale knobs (see bench_common.hpp): FASTFIT_BENCH_RANKS defaults to 4
// here — small worlds keep every section short enough to repeat. The
// "cut vs replay" section is the exception: it runs LU, EP and miniMD at
// FASTFIT_BENCH_CUT_RANKS (default 32,256) and takes most of the
// binary's run time; FASTFIT_BENCH_CUT_RANKS=32 shortens it.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "apps/lu.hpp"
#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "trace/rank_context.hpp"
#include "core/export.hpp"
#include "inject/fault_model.hpp"
#include "inject/outcome.hpp"
#include "telemetry/recorder.hpp"

namespace {

using fastfit::core::InjectionPoint;
using fastfit::core::PointResult;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median and quartiles of a sample (linear interpolation between ranks).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const auto at = [&values](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

long peak_rss_kb() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

}  // namespace

int main() {
  using namespace fastfit;

  ::setenv("FASTFIT_BENCH_RANKS", "4", /*overwrite=*/0);
  const int ranks = bench::bench_ranks();
  const std::uint32_t trials = bench::bench_trials();
  const auto max_points =
      static_cast<std::size_t>(bench::env_u64("FASTFIT_BENCH_POINTS", 10));

  bench::banner("micro_campaign_throughput",
                "(no figure) trials/sec of the campaign loop, serial vs "
                "parallel scheduler lanes",
                "workload EP; identical PointResults at every pool size");

  core::CampaignOptions options;
  options.nranks = ranks;
  options.trials_per_point = trials;
  options.seed = bench::bench_seed();
  // The executor/journal/shard/hang sections measure *those* subsystems;
  // prefix replay would fold its own speedup into every number, so it is
  // pinned off here and gets its own on/off section below.
  options.snapshots = false;
  const auto workload = apps::make_workload("EP");
  const auto driver = bench::profiled_driver(*workload, options);
  auto& campaign = driver->campaign();

  auto points = campaign.enumeration().points;
  if (points.size() > max_points) points.resize(max_points);
  const auto total_trials =
      static_cast<double>(points.size()) * static_cast<double>(trials);

  // Warm-up (untimed): one full pass so first-touch costs — page faults,
  // allocator growth, lazily-built golden baselines — land here instead
  // of on the serial baseline, which every later section is compared
  // against.
  for (const auto& point : points) (void)campaign.measure(point);

  // Baseline: the plain serial measure() loop.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<PointResult> serial;
  for (const auto& point : points) serial.push_back(campaign.measure(point));
  const double serial_sec = seconds_since(t0);
  const double serial_tps = total_trials / serial_sec;
  std::printf("%-28s %8.1f trials/sec  (%.2fs, %zu points x %u trials)\n",
              "serial measure()", serial_tps, serial_sec, points.size(),
              trials);
  // Each trial occupies one lane thread, so the achievable speedup is
  // ~min(pool, cores); on a single-core host the honest parallel path can
  // only break even (results must not change, so contention-slowed trials
  // run to completion instead of being clipped by the watchdog).

  // Telemetry overhead: the identical serial batch with the recorder
  // live — trial/world/classify spans, outcome counters, the latency
  // histogram, and per-rank span buffers all active. The contract in
  // docs/observability.md is < 2% throughput cost when enabled (and
  // zero when disabled, asserted by the tests, so the baseline above
  // already is the "off" number).
  bool identical = true;
  auto& recorder = telemetry::Recorder::instance();
  const bool telemetry_was_on = recorder.enabled();
  recorder.enable();
  recorder.reset();
  telemetry::Recorder::bind_thread(telemetry::Track::Main, -1, "bench-main");
  const auto t_tel = std::chrono::steady_clock::now();
  std::vector<PointResult> telemetered;
  for (const auto& point : points) {
    telemetered.push_back(campaign.measure(point));
  }
  const double telemetry_sec = seconds_since(t_tel);
  const double telemetry_tps = total_trials / telemetry_sec;
  const std::size_t events_recorded = recorder.drain_events().size();
  const std::uint64_t events_dropped = recorder.dropped_events();
  recorder.reset();
  if (!telemetry_was_on) recorder.disable();
  const double telemetry_overhead =
      (serial_tps - telemetry_tps) / serial_tps;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (telemetered[i].counts != serial[i].counts) {
      identical = false;
      std::printf("  telemetry mismatch at point %zu\n", i);
    }
  }
  std::printf("%-28s %8.1f trials/sec  (%.2fs, %.1f%% overhead, "
              "%zu events)\n",
              "serial + telemetry", telemetry_tps, telemetry_sec,
              100.0 * telemetry_overhead, events_recorded);

  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> pools{1, 2, 4};
  if (hw > 4) pools.push_back(hw);

  std::ostringstream json;
  json << "{\n  \"bench\": \"campaign_throughput\",\n"
       << "  \"workload\": \"EP\",\n"
       << "  \"ranks\": " << ranks << ",\n"
       << "  \"points\": " << points.size() << ",\n"
       << "  \"trials_per_point\": " << trials << ",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"serial_trials_per_sec\": " << serial_tps << ",\n"
       << "  \"parallel\": [";

  for (std::size_t p = 0; p < pools.size(); ++p) {
    campaign.set_max_parallel_trials(pools[p]);
    const auto before = campaign.trials_run();
    const auto t1 = std::chrono::steady_clock::now();
    const auto results = campaign.measure_many(points);
    const double sec = seconds_since(t1);
    const double tps = total_trials / sec;
    // Executions beyond the job count are watchdog-confirmation re-runs.
    const auto confirmations =
        campaign.trials_run() - before - static_cast<std::uint64_t>(total_trials);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].counts != serial[i].counts) {
        identical = false;
        std::printf("  mismatch at point %zu (%s %s): serial", i,
                    mpi::to_string(results[i].point.kind),
                    mpi::to_string(results[i].point.param));
        for (auto c : serial[i].counts) std::printf(" %u", c);
        std::printf("  pool=%zu", pools[p]);
        for (auto c : results[i].counts) std::printf(" %u", c);
        std::printf("\n");
      }
    }
    std::printf("%-28s %8.1f trials/sec  (%.2fs, speedup %.2fx, "
                "%llu confirmations)\n",
                ("measure_many(pool=" + std::to_string(pools[p]) + ")")
                    .c_str(),
                tps, sec, tps / serial_tps,
                static_cast<unsigned long long>(confirmations));
    if (p) json << ",";
    json << "\n    {\"max_parallel_trials\": " << pools[p]
         << ", \"trials_per_sec\": " << tps
         << ", \"speedup\": " << tps / serial_tps
         << ", \"timeout_confirmations\": " << confirmations << "}";
  }
  // Journal write-through overhead: the same serial batch with a durable
  // trial journal attached (every outcome fsync-batched to disk), then a
  // pure replay pass where every trial is served from the journal instead
  // of executed — the resume-path fast case. One pass is a fraction of a
  // second, so the off/on/replay passes alternate over several samples
  // and the overhead is reported as the median of the per-sample ratios
  // with its interquartile spread.
  campaign.set_max_parallel_trials(1);
  constexpr std::size_t kJournalSamples = 5;
  const std::string journal_path = "BENCH_campaign_journal.jsonl";
  std::vector<double> off_tps, on_tps, replay_tps, overheads;
  for (std::size_t sample = 0; sample < kJournalSamples; ++sample) {
    const auto t_off = std::chrono::steady_clock::now();
    (void)campaign.measure_many(points);
    off_tps.push_back(total_trials / seconds_since(t_off));

    std::remove(journal_path.c_str());
    campaign.attach_journal(journal_path, core::JournalMode::Create);
    const auto t_on = std::chrono::steady_clock::now();
    const auto journaled = campaign.measure_many(points);
    on_tps.push_back(total_trials / seconds_since(t_on));
    const auto t_replay = std::chrono::steady_clock::now();
    const auto replayed = campaign.measure_many(points);
    replay_tps.push_back(total_trials / seconds_since(t_replay));
    campaign.detach_journal();
    overheads.push_back((off_tps.back() - on_tps.back()) / off_tps.back());
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (journaled[i].counts != serial[i].counts ||
          replayed[i].counts != serial[i].counts) {
        identical = false;
        std::printf("  journal mismatch at point %zu\n", i);
      }
    }
  }
  std::remove(journal_path.c_str());
  const Quartiles journal_overhead = quartiles(overheads);
  const double journal_tps = quartiles(on_tps).median;
  const double journal_replay_tps = quartiles(replay_tps).median;
  std::printf("%-28s %8.1f trials/sec  (median of %zu; overhead vs "
              "journal-off %.1f%%, IQR %.1f%%..%.1f%%)\n",
              "serial + journal", journal_tps, kJournalSamples,
              100.0 * journal_overhead.median, 100.0 * journal_overhead.q1,
              100.0 * journal_overhead.q3);
  std::printf("%-28s %8.1f trials/sec  (median of %zu, pure replay)\n",
              "serial + journal replay", journal_replay_tps,
              kJournalSamples);

  // Shard scaling: the same batch split into 1/2/4 deterministic shards
  // (the --shard i/N partition), each shard measured on its own, plus
  // the `fastfit merge` reassembly cost — charged separately, since in a
  // real sharded study the shards run on N machines and only the merge
  // is serial. The wall-clock of a sharded study is max(shard) + merge.
  json << "\n  ],\n  \"shard_scaling\": [";
  bool shard_identical = true;
  for (std::size_t si = 0; si < 3; ++si) {
    const std::size_t nshards = std::size_t{1} << si;
    std::vector<std::string> fragments;
    std::vector<double> shard_secs;
    double max_shard_sec = 0.0;
    for (std::size_t index = 1; index <= nshards; ++index) {
      const core::ShardSpec spec{index, nshards};
      core::StudyResult part;
      part.stats = campaign.stats();
      // The bench measures a truncated point set; fragments only need to
      // agree among themselves, so the post-pruning count is the batch.
      part.stats.after_context = points.size();
      part.golden_digest = campaign.golden_digest();
      part.shard = spec;
      std::vector<InjectionPoint> own;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (core::shard_owns(spec, points[i])) {
          part.shard_ordinals.push_back(i);
          own.push_back(points[i]);
        }
      }
      const auto t_shard = std::chrono::steady_clock::now();
      part.measured = campaign.measure_many(own);
      const double sec = seconds_since(t_shard);
      shard_secs.push_back(sec);
      max_shard_sec = std::max(max_shard_sec, sec);
      fragments.push_back(core::to_shard_fragment(part));
    }
    const auto t_merge = std::chrono::steady_clock::now();
    const auto merged = core::merge_fragments(fragments);
    const double merge_sec = seconds_since(t_merge);
    for (std::size_t i = 0; i < merged.measured.size(); ++i) {
      if (merged.measured[i].counts != serial[i].counts) {
        shard_identical = false;
        identical = false;
        std::printf("  shard mismatch at point %zu (%zu shards)\n", i,
                    nshards);
      }
    }
    std::printf("%-28s %8.2fs max shard  (+%.3fs merge, %zu shards)\n",
                ("sharded study (" + std::to_string(nshards) + ")").c_str(),
                max_shard_sec, merge_sec, nshards);
    if (si) json << ",";
    json << "\n    {\"shards\": " << nshards << ", \"shard_seconds\": [";
    for (std::size_t i = 0; i < shard_secs.size(); ++i) {
      if (i) json << ", ";
      json << shard_secs[i];
    }
    json << "], \"max_shard_seconds\": " << max_shard_sec
         << ", \"merge_seconds\": " << merge_sec
         << ", \"merged_identical\": "
         << (shard_identical ? "true" : "false") << "}";
  }

  // Hang-heavy section: time-to-classify INF_LOOP. A bit flip at bench
  // scale almost never hangs (a flipped root or handle is usually
  // rejected as MPI_ERR), so the section injects message drops instead:
  // every dropped collective message leaves its receiver waiting
  // forever, and each such hang is proven at quiescence in microseconds,
  // long before the watchdog.
  constexpr std::uint32_t kHangTrials = 3;
  constexpr std::size_t kHangPoints = 3;
  constexpr std::uint64_t kHangWatchdogMs = 250;
  core::CampaignOptions hang_options = options;
  hang_options.fault_models = inject::parse_fault_models("message-drop");
  hang_options.trials_per_point = kHangTrials;
  hang_options.watchdog = std::chrono::milliseconds(kHangWatchdogMs);

  const auto hang_driver = bench::profiled_driver(*workload, hang_options);
  auto& hang_campaign = hang_driver->campaign();
  auto hang_points = hang_campaign.enumeration().points;
  if (hang_points.size() > kHangPoints) hang_points.resize(kHangPoints);
  const std::size_t hang_trials = hang_points.size() * kHangTrials;
  const auto t4 = std::chrono::steady_clock::now();
  const auto hang_results = hang_campaign.measure_many(hang_points);
  const double hang_sec = seconds_since(t4);
  std::uint64_t hang_inf = 0;
  for (const auto& r : hang_results) {
    hang_inf += r.counts[static_cast<std::size_t>(inject::Outcome::InfLoop)];
  }
  const std::uint64_t deterministic_deadlocks =
      hang_campaign.health().deterministic_deadlocks;
  const double ms_per_inf =
      hang_inf ? 1000.0 * hang_sec / static_cast<double>(hang_inf) : 0.0;
  std::printf("%-28s %8.2fs  (%llu INF_LOOP of %zu trials, %llu proven, "
              "%.2f ms/INF_LOOP)\n",
              "hang campaign", hang_sec,
              static_cast<unsigned long long>(hang_inf), hang_trials,
              static_cast<unsigned long long>(deterministic_deadlocks),
              ms_per_inf);
  // The section exists to time proven hangs: every dropped message must
  // classify INF_LOOP, and every INF_LOOP must be a proof, not a
  // watchdog expiry.
  const bool hangs_proven = hang_trials > 0 && hang_inf == hang_trials &&
                            deterministic_deadlocks == hang_inf;
  if (!hangs_proven) {
    std::printf("  hang section: %llu INF_LOOP of %zu trials, %llu "
                "proven; want all of them\n",
                static_cast<unsigned long long>(hang_inf), hang_trials,
                static_cast<unsigned long long>(deterministic_deadlocks));
  }

  // Prefix-replay snapshots on a wide study (default: 32-rank LU). From-scratch
  // trials pay the whole pre-injection prefix in live rendezvous; with
  // snapshots on, the recording is built once and every trial clones
  // it, executing only the post-injection suffix. Two point subsets:
  // "mix" strides across the whole enumeration (the study's blend of
  // early and late cuts — early-cut trials still run their suffix live,
  // so Amdahl bounds the blended speedup), and "suffix" takes the
  // End-phase (verification) points whose prefix is the entire
  // computation — the trials the fast path exists for.
  const int snap_ranks =
      static_cast<int>(bench::env_u64("FASTFIT_BENCH_SNAP_RANKS", 32));
  const auto snap_max_points = static_cast<std::size_t>(
      bench::env_u64("FASTFIT_BENCH_SNAP_POINTS", 6));
  const auto snap_trials = static_cast<std::uint32_t>(
      bench::env_u64("FASTFIT_BENCH_SNAP_TRIALS", 8));
  apps::LuConfig snap_lu_config;
  // Small per-rank grid, many iterations: prefix time is rendezvous-
  // dominated (what replay eliminates), not compute-dominated (what it
  // must re-run).
  snap_lu_config.npoints = static_cast<int>(bench::env_u64(
      "FASTFIT_BENCH_SNAP_NPOINTS",
      static_cast<std::uint64_t>(4 * snap_ranks)));
  snap_lu_config.iterations =
      static_cast<int>(bench::env_u64("FASTFIT_BENCH_SNAP_ITERS", 64));
  const apps::MiniLU snap_workload(snap_lu_config);

  core::CampaignOptions snap_options;
  snap_options.nranks = snap_ranks;
  snap_options.trials_per_point = snap_trials;
  snap_options.seed = bench::bench_seed();

  constexpr std::size_t kSnapModes = 2;
  struct SnapSubset {
    const char* name;
    std::vector<InjectionPoint> points{};
    double sec[kSnapModes] = {0.0, 0.0};
    double tps[kSnapModes] = {0.0, 0.0};
    std::vector<core::PointResult> results[kSnapModes] = {};
  };
  SnapSubset snap_subsets[2] = {{"mix"}, {"suffix"}};
  struct SnapMode {
    const char* mode;
    bool setting;
    core::SnapshotCache::Stats stats{};
    long rss_kb = 0;
  };
  SnapMode snap_modes[kSnapModes] = {{"off", false}, {"on", true}};
  for (std::size_t m = 0; m < kSnapModes; ++m) {
    snap_options.snapshots = snap_modes[m].setting;
    const auto snap_driver =
        bench::profiled_driver(snap_workload, snap_options);
    auto& snap_campaign = snap_driver->campaign();
    if (snap_subsets[0].points.empty()) {
      const auto& all = snap_campaign.enumeration().points;
      const std::size_t stride =
          std::max<std::size_t>(1, all.size() / snap_max_points);
      for (std::size_t i = 0;
           i < all.size() && snap_subsets[0].points.size() < snap_max_points;
           i += stride) {
        snap_subsets[0].points.push_back(all[i]);
      }
      for (const auto& point : all) {
        if (point.phase == trace::ExecPhase::End &&
            snap_subsets[1].points.size() < snap_max_points) {
          snap_subsets[1].points.push_back(point);
        }
      }
    }
    for (auto& subset : snap_subsets) {
      const auto t5 = std::chrono::steady_clock::now();
      subset.results[m] = snap_campaign.measure_many(
          std::span<const InjectionPoint>(subset.points.data(),
                                          subset.points.size()),
          snap_trials);
      subset.sec[m] = seconds_since(t5);
      const double total =
          static_cast<double>(subset.points.size()) * snap_trials;
      subset.tps[m] = subset.sec[m] > 0.0 ? total / subset.sec[m] : 0.0;
    }
    snap_modes[m].stats = snap_campaign.snapshot_stats();
    snap_modes[m].rss_kb = peak_rss_kb();
    std::printf("%-28s mix %6.2fs %7.1f t/s | suffix %6.2fs %7.1f t/s  "
                "(%llu clones, %llu fallbacks, rss %ld KiB)\n",
                ("snapshots " + std::string(snap_modes[m].mode) + " (LU, " +
                 std::to_string(snap_ranks) + "r)")
                    .c_str(),
                snap_subsets[0].sec[m], snap_subsets[0].tps[m],
                snap_subsets[1].sec[m], snap_subsets[1].tps[m],
                static_cast<unsigned long long>(snap_modes[m].stats.clones),
                static_cast<unsigned long long>(
                    snap_modes[m].stats.fallbacks),
                snap_modes[m].rss_kb);
  }
  bool snap_identical = true;
  for (auto& subset : snap_subsets) {
    for (std::size_t m = 1; m < kSnapModes; ++m) {
      for (std::size_t i = 0; i < subset.points.size(); ++i) {
        if (subset.results[m][i].counts != subset.results[0][i].counts) {
          snap_identical = false;
          identical = false;
          std::printf("  snapshot mismatch: %s point %zu (%s vs off)\n",
                      subset.name, i, snap_modes[m].mode);
        }
      }
    }
  }
  const double snap_speedup_mix =
      snap_subsets[0].sec[1] > 0.0
          ? snap_subsets[0].sec[0] / snap_subsets[0].sec[1]
          : 0.0;
  const double snap_speedup_suffix =
      snap_subsets[1].sec[1] > 0.0
          ? snap_subsets[1].sec[0] / snap_subsets[1].sec[1]
          : 0.0;
  std::printf("snapshot replay speedup: %.1fx study mix, %.1fx "
              "suffix-dominated trials (target >= 10x), counts %s\n",
              snap_speedup_mix, snap_speedup_suffix,
              snap_identical ? "identical" : "DIVERGED");

  // Fork at the cut vs op-log replay (ROADMAP, "Checkpoint at the cut"):
  // per-trial lane time of one serial lane for each way a trial reaches
  // its cut, on LU, EP and miniMD at each of FASTFIT_BENCH_CUT_RANKS, over
  // "mix" and "suffix" point sets chosen as above (suffix = End-phase
  // points, topped up with the last enumerated points where a workload
  // has too few). The default single bit flip runs from scratch (process
  // isolation, snapshots off), by op-log replay in each fresh worker child
  // (process isolation, default snapshots: what a process-isolated study
  // does for it) and by op-log replay in-process. Replay refuses message
  // faults, so the same points under message-drop run from scratch and
  // forked at the cut (process isolation, default snapshots). Each cell
  // is the median and IQR of kCutSamples measure_many calls after an
  // untimed one-trial warm-up; a process-isolated sample includes its
  // lane spawn and one template per point, amortized over kCutTrials
  // trials as in a study. Outcome counts are compared with
  // the same model's from-scratch run but do not gate the exit code:
  // these studies use the calibrated wall-clock watchdog.
  constexpr std::size_t kCutPoints = 2;
  constexpr std::uint32_t kCutTrials = 16;
  constexpr std::size_t kCutSamples = 5;
  struct CutMechanism {
    const char* name;
    const char* model;
    core::IsolationMode isolation;
    bool snapshots;
    std::size_t scratch;  ///< the same model's from-scratch mechanism
  };
  constexpr std::size_t kCutMechanisms = 5;
  const CutMechanism cut_mechanisms[kCutMechanisms] = {
      {"scratch", "single-bit-flip", core::IsolationMode::Process, false, 0},
      {"worker_replay", "single-bit-flip", core::IsolationMode::Process, true,
       0},
      {"replay", "single-bit-flip", core::IsolationMode::Thread, true, 0},
      {"drop_scratch", "message-drop", core::IsolationMode::Process, false,
       3},
      {"cut", "message-drop", core::IsolationMode::Process, true, 3}};
  struct CutCell {
    std::string workload;
    int ranks = 0;
    const char* subset = "";
    std::size_t points = 0;
    Quartiles ms[kCutMechanisms];
    bool identical = true;
  };
  std::vector<int> cut_ranks;
  {
    const char* env = std::getenv("FASTFIT_BENCH_CUT_RANKS");
    std::istringstream list(env != nullptr ? env : "32,256");
    for (std::string item; std::getline(list, item, ',');) {
      if (!item.empty()) cut_ranks.push_back(std::stoi(item));
    }
  }
  std::vector<CutCell> cut_cells;
  for (const char* cut_app : {"LU", "EP", "miniMD"}) {
    const auto cut_workload = apps::make_workload(cut_app);
    for (const int cut_rank_count : cut_ranks) {
      core::CampaignOptions cut_options;
      cut_options.nranks = cut_rank_count;
      cut_options.trials_per_point = kCutTrials;
      cut_options.seed = bench::bench_seed();
      cut_options.max_parallel_trials = 1;
      CutCell cells[2];
      std::vector<InjectionPoint> subsets[2];
      std::vector<core::PointResult> results[2][kCutMechanisms];
      for (std::size_t m = 0; m < kCutMechanisms; ++m) {
        const auto fault = inject::FaultModelSpec::parse(cut_mechanisms[m].model);
        cut_options.fault_models = {fault};
        cut_options.isolation = cut_mechanisms[m].isolation;
        cut_options.snapshots = cut_mechanisms[m].snapshots;
        const auto cut_driver = bench::profiled_driver(*cut_workload, cut_options);
        auto& cut_campaign = cut_driver->campaign();
        if (m == 0) {
          const auto& all = cut_campaign.enumeration().points;
          const std::size_t stride =
              std::max<std::size_t>(1, all.size() / kCutPoints);
          for (std::size_t i = 0;
               i < all.size() && subsets[0].size() < kCutPoints; i += stride) {
            subsets[0].push_back(all[i]);
          }
          for (const auto& point : all) {
            if (point.phase == trace::ExecPhase::End &&
                subsets[1].size() < kCutPoints) {
              subsets[1].push_back(point);
            }
          }
          for (std::size_t i = all.size(); i > 0 && subsets[1].size() < kCutPoints;
               --i) {
            if (all[i - 1].phase != trace::ExecPhase::End) {
              subsets[1].push_back(all[i - 1]);
            }
          }
        }
        for (std::size_t k = 0; k < 2; ++k) {
          std::vector<InjectionPoint> batch = subsets[k];
          for (auto& point : batch) point.fault = fault;
          (void)cut_campaign.measure_many(batch, 1);
          std::vector<double> per_trial_ms;
          for (std::size_t sample = 0; sample < kCutSamples; ++sample) {
            const auto t6 = std::chrono::steady_clock::now();
            results[k][m] = cut_campaign.measure_many(batch, kCutTrials);
            per_trial_ms.push_back(
                seconds_since(t6) * 1e3 /
                (static_cast<double>(batch.size()) * kCutTrials));
          }
          cells[k].ms[m] = quartiles(std::move(per_trial_ms));
        }
      }
      for (std::size_t k = 0; k < 2; ++k) {
        auto& cell = cells[k];
        cell.workload = cut_app;
        cell.ranks = cut_rank_count;
        cell.subset = k == 0 ? "mix" : "suffix";
        cell.points = subsets[k].size();
        for (std::size_t m = 0; m < kCutMechanisms; ++m) {
          const auto& baseline = results[k][cut_mechanisms[m].scratch];
          for (std::size_t i = 0; i < subsets[k].size(); ++i) {
            if (results[k][m][i].counts != baseline[i].counts) {
              cell.identical = false;
            }
          }
        }
        std::string line;
        char buf[96];
        for (std::size_t m = 0; m < kCutMechanisms; ++m) {
          const auto& q = cell.ms[m];
          const double scratch_ms = cell.ms[cut_mechanisms[m].scratch].median;
          std::snprintf(buf, sizeof buf, "  %s %.2f [%.2f, %.2f]",
                        cut_mechanisms[m].name, q.median, q.q1, q.q3);
          line += buf;
          if (cut_mechanisms[m].scratch != m && q.median > 0.0) {
            std::snprintf(buf, sizeof buf, " (%.1fx)", scratch_ms / q.median);
            line += buf;
          }
        }
        std::printf("cut vs replay %-6s %3dr %-6s  ms/trial%s%s\n", cut_app,
                    cut_rank_count, cell.subset, line.c_str(),
                    cell.identical ? "" : "  (counts differ)");
        cut_cells.push_back(std::move(cell));
      }
    }
  }

  json << "\n  ],\n  \"snapshots\": {"
       << "\"workload\": \"LU\", \"ranks\": " << snap_ranks
       << ", \"lu_npoints\": " << snap_lu_config.npoints
       << ", \"lu_iterations\": " << snap_lu_config.iterations
       << ", \"trials_per_point\": " << snap_trials
       << ", \"replay_speedup_mix\": " << snap_speedup_mix
       << ", \"replay_speedup_suffix\": " << snap_speedup_suffix
       << ", \"identical\": " << (snap_identical ? "true" : "false")
       << ",\n    \"modes\": [";
  for (std::size_t m = 0; m < kSnapModes; ++m) {
    const auto& run = snap_modes[m];
    const auto& s = run.stats;
    const double lookups =
        static_cast<double>(s.hits) + static_cast<double>(s.snapshot_builds);
    if (m) json << ",";
    json << "\n      {\"mode\": \"" << run.mode << "\"";
    for (const auto& subset : snap_subsets) {
      json << ", \"" << subset.name << "_points\": " << subset.points.size()
           << ", \"" << subset.name << "_seconds\": " << subset.sec[m]
           << ", \"" << subset.name
           << "_trials_per_sec\": " << subset.tps[m];
    }
    json << ", \"recording_builds\": " << s.recording_builds
         << ", \"snapshot_builds\": " << s.snapshot_builds
         << ", \"cache_hits\": " << s.hits
         << ", \"cache_hit_rate\": "
         << (lookups > 0.0 ? static_cast<double>(s.hits) / lookups : 0.0)
         << ", \"clones\": " << s.clones
         << ", \"fallbacks\": " << s.fallbacks
         << ", \"recording_bytes\": " << s.recording_bytes
         << ", \"cached_bytes\": " << s.cached_bytes
         << ", \"peak_rss_kb\": " << run.rss_kb << "}";
  }
  json << "\n    ]},\n  \"cut_vs_replay\": {\"trials_per_point\": "
       << kCutTrials << ", \"samples\": " << kCutSamples << ", \"cells\": [";
  for (std::size_t c = 0; c < cut_cells.size(); ++c) {
    const auto& cell = cut_cells[c];
    if (c) json << ",";
    json << "\n    {\"workload\": \"" << cell.workload
         << "\", \"ranks\": " << cell.ranks << ", \"subset\": \""
         << cell.subset << "\", \"points\": " << cell.points;
    for (std::size_t m = 0; m < kCutMechanisms; ++m) {
      json << ", \"" << cut_mechanisms[m].name << "_ms\": {\"median\": "
           << cell.ms[m].median << ", \"q1\": " << cell.ms[m].q1
           << ", \"q3\": " << cell.ms[m].q3 << "}";
    }
    json << ", \"identical\": " << (cell.identical ? "true" : "false") << "}";
  }
  json << "\n  ]},\n  \"telemetry\": {"
       << "\"off_trials_per_sec\": " << serial_tps
       << ", \"on_trials_per_sec\": " << telemetry_tps
       << ", \"overhead\": " << telemetry_overhead
       << ", \"events_recorded\": " << events_recorded
       << ", \"events_dropped\": " << events_dropped << "},\n"
       << "  \"journal\": {"
       << "\"samples\": " << kJournalSamples
       << ", \"off_trials_per_sec\": " << quartiles(off_tps).median
       << ", \"on_trials_per_sec\": " << journal_tps
       << ", \"replay_trials_per_sec\": " << journal_replay_tps
       << ", \"write_through_overhead\": " << journal_overhead.median
       << ", \"write_through_overhead_q1\": " << journal_overhead.q1
       << ", \"write_through_overhead_q3\": " << journal_overhead.q3
       << "},\n"
       << "  \"hangs\": {"
       << "\"fault_model\": \"message-drop\""
       << ", \"points\": " << hang_points.size()
       << ", \"trials_per_point\": " << kHangTrials
       << ", \"watchdog_ms\": " << kHangWatchdogMs
       << ", \"inf_loops\": " << hang_inf
       << ", \"deterministic_deadlocks\": " << deterministic_deadlocks
       << ", \"seconds\": " << hang_sec
       << ", \"trials_per_sec\": "
       << (hang_sec > 0.0 ? static_cast<double>(hang_trials) / hang_sec : 0.0)
       << ", \"ms_per_inf_loop\": " << ms_per_inf << "},\n"
       << "  \"results_identical_to_serial\": "
       << (identical ? "true" : "false") << "\n}\n";

  std::printf("results identical to serial: %s\n", identical ? "yes" : "NO");
  core::write_file("BENCH_campaign_throughput.json", json.str());
  std::printf("wrote BENCH_campaign_throughput.json\n");
  return identical && hangs_proven ? 0 : 1;
}
