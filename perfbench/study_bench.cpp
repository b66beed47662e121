// study_bench: one sample of the study benchmark per process.
//
//   study_bench study  <workload> <seed> <workdir> [trace]
//       One whole study through core::StudyDriver: times set-up
//       (profile()), measurement (run()) and the report, and prints the
//       counts the correctness gate checks. With `trace` the telemetry
//       recorder is on and the per-layer numbers are derived from its
//       spans and counters.
//   study_bench setup  <workload> <seed>
//       Set-up only: times StudyDriver::profile().
//   study_bench probes <seed>
//       Times public calls of single layers at the workloads' 32 ranks.
//
// Each mode prints one JSON object on stdout. perfbench/run.py starts a
// fresh process per sample: the golden-run memo and the fiber stack pool
// are process-wide, so a second study in one process would skip work and
// inherit the first one's memory high-water mark.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/registry.hpp"
#include "core/export.hpp"
#include "core/study.hpp"
#include "inject/fault_model.hpp"
#include "minimpi/mpi.hpp"
#include "support/rng.hpp"
#include "telemetry/recorder.hpp"
#include "trace/rank_context.hpp"
#include "trace/shadow_stack.hpp"

namespace {

using namespace fastfit;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 32;
constexpr std::uint32_t kTrialsPerPoint = 100;

/// The benchmark's workloads (README.md gives the reason for each).
struct WorkloadSpec {
  const char* name;
  const char* app;
  bool ml;
  std::size_t pool;
  const char* fault_models;  ///< empty = the default single bit flip
  bool process_isolation;
  bool journal;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"lu-replay", "LU", false, 1, "", false, false},
    {"minimd-ml", "miniMD", true, 4, "", false, false},
    // No single bit flip: it is replayable, and on EP some of its trials
    // end within the wall-clock watchdog or not depending on host load.
    {"ep-faults", "EP", false, 4, "message-drop,rank-death,sigsegv", true,
     true},
};

const WorkloadSpec& find_workload(std::string_view name) {
  for (const auto& spec : kWorkloads) {
    if (name == spec.name) return spec;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

core::StudyOptions study_options(const WorkloadSpec& spec, std::uint64_t seed,
                                 std::string journal) {
  core::StudyOptions options;
  options.campaign.nranks = kRanks;
  options.campaign.trials_per_point = kTrialsPerPoint;
  options.campaign.seed = seed;
  options.campaign.max_parallel_trials = spec.pool;
  if (spec.fault_models[0] != '\0') {
    options.campaign.fault_models =
        inject::parse_fault_models(spec.fault_models);
  }
  if (spec.process_isolation) {
    options.campaign.isolation = core::IsolationMode::Process;
  }
  options.use_ml = spec.ml;
  options.journal = std::move(journal);
  return options;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Flat JSON object writer; values are numbers or pre-rendered JSON.
class JsonObject {
 public:
  void count(std::string_view key, std::uint64_t value) {
    open(key);
    out_ += std::to_string(value);
  }
  void real(std::string_view key, double value) {
    open(key);
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out_ += buffer;
  }
  void raw(std::string_view key, const std::string& json) {
    open(key);
    out_ += json;
  }
  std::string str() const { return "{" + out_ + "}"; }

 private:
  void open(std::string_view key) {
    if (!out_.empty()) out_ += ", ";
    out_ += '"';
    out_ += key;
    out_ += "\": ";
  }
  std::string out_;
};

/// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
/// does not carry over the parent's high-water mark across exec.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---------------------------------------------------------------- study

int run_study(const WorkloadSpec& spec, std::uint64_t seed,
              const std::string& workdir, bool traced) {
  auto& recorder = telemetry::Recorder::instance();
  if (traced) {
    recorder.enable();
    telemetry::Recorder::bind_thread(telemetry::Track::Main, -1,
                                     "study-bench");
  }
  std::string journal;
  if (spec.journal) {
    std::filesystem::create_directories(workdir);
    journal = workdir + "/" + spec.name + ".journal";
    std::filesystem::remove(journal);
    std::filesystem::remove(journal + ".recording");
  }

  const auto workload = apps::make_workload(spec.app);
  const auto t_start = Clock::now();
  core::StudyDriver driver(*workload, study_options(spec, seed, journal));
  const auto t_profile = Clock::now();
  driver.profile();
  const auto t_measure = Clock::now();
  const auto result = driver.run();
  const auto t_report = Clock::now();
  const std::string report = core::to_json(result);
  const auto t_end = Clock::now();

  const auto& campaign = driver.campaign();
  const auto& health = result.health;
  const auto snapshots = campaign.snapshot_stats();
  const double measure_s = seconds_between(t_measure, t_report);

  JsonObject outcomes;
  std::uint64_t reported = 0;
  for (std::size_t o = 0; o < inject::active_outcomes(result.extended_outcomes);
       ++o) {
    std::uint64_t n = 0;
    for (const auto& point : result.measured) n += point.counts[o];
    outcomes.count(inject::to_string(static_cast<inject::Outcome>(o)), n);
    reported += n;
  }
  const std::uint64_t attempted =
      static_cast<std::uint64_t>(result.measured.size()) * kTrialsPerPoint;
  const std::uint64_t failed =
      health.total_retries + health.quarantined_points * kTrialsPerPoint;
  const std::uint64_t journal_bytes =
      journal.empty() || !std::filesystem::exists(journal)
          ? 0
          : static_cast<std::uint64_t>(std::filesystem::file_size(journal));

  JsonObject out;
  out.raw("workload", "\"" + std::string(spec.name) + "\"");
  out.count("seed", seed);
  out.real("setup_s", seconds_between(t_profile, t_measure));
  out.real("measure_s", measure_s);
  out.real("study_wall_s", seconds_between(t_start, t_end));
  out.count("peak_rss_kb", peak_rss_kb());
  out.count("report_bytes", report.size());
  out.count("trials_reported", reported);
  out.count("trials_attempted", attempted);
  out.count("trials_failed", failed);
  out.count("trials_executed", campaign.trials_run());
  out.raw("outcomes", outcomes.str());
  out.count("points_total", result.stats.total_points);
  out.count("after_semantic", result.stats.after_semantic);
  out.count("after_context", result.stats.after_context);
  out.count("measured_points", result.measured.size());
  out.count("predicted_points", result.predicted.size());
  out.count("ml_rounds", result.ml_rounds);
  out.real("ml_accuracy", result.final_accuracy);
  out.count("retries", health.total_retries);
  out.count("quarantined_points", health.quarantined_points);
  out.count("watchdog_confirmations", health.watchdog_confirmations);
  out.count("deterministic_deadlocks", health.deterministic_deadlocks);
  out.count("worker_deaths", health.worker_deaths);
  out.count("worker_lease_kills", health.worker_lease_kills);
  out.count("snapshot_clones", snapshots.clones);
  out.count("journal_bytes", journal_bytes);

  if (traced) {
    // Span durations by name. `rank-main` is left out on purpose: rank
    // fibers interleave on one thread and concurrent trials share rank
    // lanes, so those spans overlap and sum to more than the wall time.
    std::map<std::string, std::vector<double>> spans_us;
    const auto events = recorder.drain_events();
    for (const auto& event : events) {
      if (event.dur_us < 0 || std::string_view(event.name) == "rank-main") {
        continue;
      }
      spans_us[event.name].push_back(static_cast<double>(event.dur_us));
    }
    const auto span = [&spans_us](const char* name) -> std::vector<double> {
      const auto it = spans_us.find(name);
      return it == spans_us.end() ? std::vector<double>{} : it->second;
    };
    const auto metrics = recorder.metrics();
    JsonObject counter_outcomes;
    for (std::size_t o = 0;
         o < inject::active_outcomes(result.extended_outcomes); ++o) {
      const char* name = inject::to_string(static_cast<inject::Outcome>(o));
      counter_outcomes.count(
          name, metrics.counter_value("fastfit_trials_total",
                                      "outcome=\"" + std::string(name) + '"'));
    }
    out.raw("counter_outcomes", counter_outcomes.str());

    const auto trial = span("trial");
    const double lanes = static_cast<double>(campaign.parallel_trials());
    const double executed = static_cast<double>(campaign.trials_run());
    const auto lookups = snapshots.hits + snapshots.snapshot_builds;
    JsonObject layers;
    layers.real("core.trial_ms.p50", percentile(trial, 0.50) / 1e3);
    layers.real("core.trial_ms.p99", percentile(trial, 0.99) / 1e3);
    layers.real("core.world_run_ratio", ratio(sum(span("world-run")), sum(trial)));
    layers.real("core.classify_us.p50", percentile(span("classify"), 0.50));
    layers.real("core.queue_wait_ms.p50",
                percentile(span("queue-wait"), 0.50) / 1e3);
    layers.real("core.lane_busy_ratio",
                ratio(sum(trial) / 1e6, lanes * measure_s));
    layers.count("core.trials_executed", campaign.trials_run());
    layers.real("core.useful_trial_ratio",
                ratio(static_cast<double>(reported), executed));
    layers.real("core.trial_fail_ratio",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)));
    layers.count("core.watchdog_confirmations", health.watchdog_confirmations);
    layers.count("core.deterministic_deadlocks", health.deterministic_deadlocks);
    layers.count("core.retries", health.total_retries);
    layers.count("core.quarantined_points", health.quarantined_points);

    layers.count("pipeline.points_total", result.stats.total_points);
    layers.count("pipeline.after_semantic", result.stats.after_semantic);
    layers.count("pipeline.after_context", result.stats.after_context);
    layers.count("pipeline.measured_points", result.measured.size());
    layers.count("pipeline.predicted_points", result.predicted.size());
    layers.real("pipeline.golden_run_ms", sum(span("golden-run")) / 1e3);
    layers.real("pipeline.profiling_run_ms", sum(span("profiling-run")) / 1e3);
    layers.real("pipeline.enumerate_ms", sum(span("enumerate-points")) / 1e3);

    layers.real("snapshot.recording_ms", sum(span("snapshot-build")) / 1e3);
    layers.count("snapshot.builds", snapshots.snapshot_builds);
    layers.real("snapshot.hit_ratio",
                ratio(static_cast<double>(snapshots.hits),
                      static_cast<double>(lookups)));
    layers.count("snapshot.clones", snapshots.clones);
    layers.count("snapshot.fallbacks", snapshots.fallbacks);
    layers.real("snapshot.cached_mb",
                static_cast<double>(snapshots.cached_bytes) / (1 << 20));
    layers.real("snapshot.clone_us.p50",
                percentile(span("snapshot-clone"), 0.50));

    const auto fsync = span("journal-fsync");
    layers.count("journal.fsync_batches", fsync.size());
    layers.real("journal.fsync_ms.p50", percentile(fsync, 0.50) / 1e3);
    layers.count("journal.bytes", journal_bytes);

    layers.count("procpool.spawns",
                 metrics.counter_sum("fastfit_worker_spawns_total"));
    layers.count("procpool.signal_deaths",
                 metrics.counter_sum("fastfit_worker_deaths_total"));
    layers.count("procpool.lease_kills",
                 metrics.counter_sum("fastfit_worker_lease_kills_total"));

    layers.count("ml.rounds", result.ml_rounds);
    layers.real("ml.train_ms", sum(span("ml-train")) / 1e3);
    layers.real("ml.verify_s", sum(span("ml-verify")) / 1e6);
    layers.real("ml.predict_ms", sum(span("ml-predict")) / 1e3);
    layers.real("ml.accuracy", result.final_accuracy);

    layers.count("telemetry.events", events.size());
    layers.count("telemetry.dropped_events", recorder.dropped_events());
    out.raw("layers", layers.str());
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int run_setup(const WorkloadSpec& spec, std::uint64_t seed) {
  const auto workload = apps::make_workload(spec.app);
  core::StudyDriver driver(*workload, study_options(spec, seed, {}));
  const auto t0 = Clock::now();
  driver.profile();
  const auto t1 = Clock::now();
  JsonObject out;
  out.real("setup_s", seconds_between(t0, t1));
  out.count("after_context", driver.campaign().stats().after_context);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// --------------------------------------------------------------- probes

double median(std::vector<double> values) { return percentile(values, 0.5); }

/// Median over `samples` calls of `fn`, which returns one timing.
double median_of(int samples, const std::function<double()>& fn) {
  std::vector<double> values;
  for (int i = 0; i < samples; ++i) values.push_back(fn());
  return median(std::move(values));
}

mpi::WorldOptions probe_world(std::uint64_t seed,
                              mpi::CollectiveAlgorithms algorithms = {}) {
  mpi::WorldOptions options;
  options.nranks = kRanks;
  options.seed = seed;
  options.watchdog = std::chrono::seconds(10);
  options.algorithms = algorithms;
  return options;
}

/// Microseconds to construct a world and run `body` on every rank; the
/// world must end cleanly.
double world_us(const mpi::WorldOptions& options,
                const std::function<void(mpi::Mpi&)>& body) {
  const auto t0 = Clock::now();
  mpi::World world(options);
  const auto result = world.run(body);
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  if (!result.clean()) {
    throw std::runtime_error("probe world failed: " + result.event->message);
  }
  return us;
}

using CollectiveCall =
    std::function<void(mpi::Mpi&, double* send, double* recv)>;

/// Microseconds per call of a collective in a 32-rank world: the median
/// world time with `reps` calls minus the median with none, over `reps`.
double collective_us(std::uint64_t seed, mpi::CollectiveAlgorithms algorithms,
                     const CollectiveCall& call) {
  constexpr int kReps = 64;
  constexpr int kSamples = 9;
  const auto options = probe_world(seed, algorithms);
  const auto timed = [&](int reps) {
    return median_of(kSamples, [&] {
      return world_us(options, [&](mpi::Mpi& mpi) {
        mpi::RegisteredBuffer<double> send(mpi.registry(), 8 * kRanks, 1.0);
        mpi::RegisteredBuffer<double> recv(mpi.registry(), 8 * kRanks);
        for (int i = 0; i < reps; ++i) call(mpi, send.data(), recv.data());
      });
    });
  };
  return std::max(0.0, (timed(kReps) - timed(0)) / kReps);
}

int run_probes(std::uint64_t seed) {
  using Allreduce = mpi::CollectiveAlgorithms::Allreduce;
  using Bcast = mpi::CollectiveAlgorithms::Bcast;
  JsonObject out;

  out.real("minimpi.world_spinup_us", median_of(31, [&] {
             return world_us(probe_world(seed), [](mpi::Mpi&) {});
           }));

  {
    constexpr int kRoundTrips = 1000;
    const auto pingpong = [&](int trips) {
      return median_of(9, [&] {
        return world_us(probe_world(seed), [trips](mpi::Mpi& mpi) {
          mpi::RegisteredBuffer<double> buf(mpi.registry(), 1, 1.0);
          const int rank = mpi.rank();
          for (int i = 0; i < trips && rank < 2; ++i) {
            if (rank == 0) {
              mpi.send(buf.data(), 1, mpi::kDouble, 1, 7);
              mpi.recv(buf.data(), 1, mpi::kDouble, 1, 7);
            } else {
              mpi.recv(buf.data(), 1, mpi::kDouble, 0, 7);
              mpi.send(buf.data(), 1, mpi::kDouble, 0, 7);
            }
          }
        });
      });
    };
    out.real("minimpi.p2p_pingpong_us",
             std::max(0.0, (pingpong(kRoundTrips) - pingpong(0)) / kRoundTrips));
  }

  const mpi::CollectiveAlgorithms defaults;
  mpi::CollectiveAlgorithms chain;
  chain.bcast = Bcast::Chain;
  mpi::CollectiveAlgorithms reduce_bcast;
  reduce_bcast.allreduce = Allreduce::ReduceBcast;
  const CollectiveCall bcast = [](mpi::Mpi& mpi, double* send, double*) {
    mpi.bcast(send, 8, mpi::kDouble, 0);
  };
  const CollectiveCall allreduce = [](mpi::Mpi& mpi, double* send,
                                      double* recv) {
    mpi.allreduce(send, recv, 8, mpi::kDouble, mpi::kSum);
  };
  out.real("minimpi.barrier_us",
           collective_us(seed, defaults,
                         [](mpi::Mpi& mpi, double*, double*) { mpi.barrier(); }));
  out.real("minimpi.bcast_us.binomial", collective_us(seed, defaults, bcast));
  out.real("minimpi.bcast_us.chain", collective_us(seed, chain, bcast));
  out.real("minimpi.allreduce_us.recursive_doubling",
           collective_us(seed, defaults, allreduce));
  out.real("minimpi.allreduce_us.reduce_bcast",
           collective_us(seed, reduce_bcast, allreduce));
  out.real("minimpi.reduce_us",
           collective_us(seed, defaults, [](mpi::Mpi& mpi, double* send,
                                            double* recv) {
             mpi.reduce(send, recv, 8, mpi::kDouble, mpi::kSum, 0);
           }));
  out.real("minimpi.alltoall_us",
           collective_us(seed, defaults, [](mpi::Mpi& mpi, double* send,
                                            double* recv) {
             mpi.alltoall(send, 8, mpi::kDouble, recv, 8, mpi::kDouble);
           }));
  out.real("minimpi.allgather_us",
           collective_us(seed, defaults, [](mpi::Mpi& mpi, double* send,
                                            double* recv) {
             mpi.allgather(send, 8, mpi::kDouble, recv, 8, mpi::kDouble);
           }));

  // Ranks disagree on the bcast root: every rank waits for a message
  // nobody sends, and run() returns once the deadlock is proven.
  out.real("minimpi.deadlock_verdict_us", median_of(9, [&] {
             const auto t0 = Clock::now();
             mpi::World world(probe_world(seed));
             const auto result = world.run([](mpi::Mpi& mpi) {
               mpi::RegisteredBuffer<double> buf(mpi.registry(), 8, 1.0);
               mpi.bcast(buf.data(), 8, mpi::kDouble, mpi.rank() == 0 ? 1 : 0);
             });
             const double us = std::chrono::duration<double, std::micro>(
                                   Clock::now() - t0)
                                   .count();
             if (!result.event || result.event->type != mpi::EventType::Timeout ||
                 !result.autopsy || !result.autopsy->deterministic) {
               throw std::runtime_error(
                   "deadlock probe: run() did not return a proven deadlock");
             }
             return us;
           }));

  for (const auto& [key, app] :
       {std::pair{"apps.golden_ms.lu", "LU"},
        std::pair{"apps.golden_ms.minimd", "miniMD"},
        std::pair{"apps.golden_ms.ep", "EP"}}) {
    const auto workload = apps::make_workload(app);
    out.real(key, median_of(5, [&] {
               trace::ContextRegistry contexts(kRanks);
               const auto t0 = Clock::now();
               const auto job = apps::run_job(*workload, probe_world(seed),
                                              nullptr, contexts);
               const double ms = std::chrono::duration<double, std::milli>(
                                     Clock::now() - t0)
                                     .count();
               if (!job.world.clean()) {
                 throw std::runtime_error(std::string("golden run of ") + app +
                                          " failed");
               }
               return ms;
             }));
  }

  double sink = 0.0;
  out.real("support.rng_stream_us", median_of(5, [&] {
             constexpr int kStreams = 20000;
             const auto t0 = Clock::now();
             for (int i = 0; i < kStreams; ++i) {
               RngStream stream(seed, "lu-rank", static_cast<std::uint64_t>(i));
               sink += stream.uniform();
             }
             return std::chrono::duration<double, std::micro>(Clock::now() -
                                                              t0)
                        .count() /
                    kStreams;
           }));
  out.real("trace.shadow_stack_enter_ns", median_of(5, [&] {
             constexpr int kPairs = 1000000;
             trace::ShadowStack stack;
             const auto t0 = Clock::now();
             for (int i = 0; i < kPairs; ++i) {
               stack.enter("compute_rhs");
               sink += static_cast<double>(stack.depth());
               stack.leave();
             }
             return std::chrono::duration<double, std::nano>(Clock::now() -
                                                             t0)
                        .count() /
                    kPairs;
           }));
  out.real("checksum", sink);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: study_bench study <workload> <seed> <workdir> [trace]\n"
               "       study_bench setup <workload> <seed>\n"
               "       study_bench probes <seed>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() >= 2 && args[0] == "probes") {
      return run_probes(std::stoull(args[1]));
    }
    if (args.size() >= 3 && args[0] == "setup") {
      return run_setup(find_workload(args[1]), std::stoull(args[2]));
    }
    if (args.size() >= 4 && args[0] == "study") {
      return run_study(find_workload(args[1]), std::stoull(args[2]), args[3],
                       args.size() >= 5 && args[4] == "trace");
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "study_bench: %s\n", e.what());
    return 1;
  }
}
