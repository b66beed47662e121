#pragma once

// Process-isolated trial execution: a fork-server worker pool.
//
// The paper's outcome taxonomy includes SEG_FAULT, but an in-process
// trial can only *simulate* it — a genuine signal would kill the whole
// campaign. ProcPool makes real crashes classifiable: the supervisor
// pre-forks one warm fork-server per lane and ships each (point, spec,
// trial) work item over a length-prefixed pipe, and a fresh single-use
// child runs each trial and writes its serialized result back. The
// process that forked the child consolidates that result with its
// waitpid status + rusage into exactly one reply frame.
//
// The fork-server is a zygote: it never reads a work item. It forks one
// *point server* at a time, and the point server reads the lane's
// command pipe, forks each trial child and writes each consolidated
// frame to the result pipe itself. Its first item is its point:
//   * an exact-trigger item whose fault cannot replay an op log (a
//     message, fail-stop or signal model), with a template function set,
//     makes it run the point's world fault-free up to the cut (the
//     instant the fault would fire) and fork each trial child there, so
//     a trial executes only its suffix. Parked inside a rank fiber, it
//     serves only that point's items;
//   * any other item, or a template that ends before its cut, makes it
//     serve every from-scratch item and the later items of its point.
// An item the point server must not serve goes back to the zygote on a
// handoff pipe, and the zygote forks the next point server with it.
// Lane i serves one caller (scheduler lane i), and the scheduler keeps
// that lane on one point until the point runs dry, so each point's
// template is built about once per study, not once per lane.
//
//   supervisor ──cmd pipe──▶ point server ──fork──▶ trial child
//       ▲                         │    ▲                  │
//       └──────result pipe────────┘    └───trial pipe─────┘
//
//   zygote ──fork──▶ point server ──handoff pipe──▶ zygote
//
// Death taxonomy (docs/process_isolation.md):
//   * child killed by SIGSEGV/SIGBUS/SIGFPE/SIGABRT → SignalDeath, a
//     *datum* (the campaign classifies it SEG_FAULT with the signal
//     number and rusage in the forensic field);
//   * child (or server) wedged past the lease deadline → the whole lane
//     process group is SIGKILLed and reaped → LeaseExpired (the campaign
//     routes it through the existing retry-with-quarantine guard);
//   * zygote or point server death / protocol corruption → LaneFailure
//     (the zygote exits whenever its point server ends without a
//     handoff, and a point server dies with its zygote); the lane is
//     respawned on next use until the respawn budget runs out, after
//     which the pool reports degraded() and the campaign falls back to
//     in-process execution (recorded in CampaignHealth).
//
// The default `thread` isolation mode never constructs a ProcPool, so
// pre-existing behaviour is preserved bit for bit.

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "inject/fault_spec.hpp"
#include "inject/outcome.hpp"

namespace fastfit::core {

/// The --isolation / FASTFIT_ISOLATION knob: where trials execute.
enum class IsolationMode : std::uint8_t {
  Thread,   ///< in-process on the scheduler lane's thread (default)
  Process,  ///< fork-server workers; real signals become classifiable
};

/// Parses "thread" / "process" (throws ConfigError otherwise).
IsolationMode parse_isolation_mode(const std::string& text);
const char* to_string(IsolationMode mode) noexcept;

namespace procpool {

/// One trial on the wire: the fault it injects (site family included)
/// and its watchdog. The per-trial RNG identity is a pure function of
/// (seed, point, trial) via FaultSpec::stream_index, so shipping only the
/// spec preserves bit-identical results across isolation modes.
struct WorkItem {
  inject::FaultSpec spec;
  std::uint64_t watchdog_ms = 0;
};

/// What the trial child reports back on success-or-contained-error. A
/// child that dies before writing this is reported by its server via the
/// waitpid status instead.
struct TrialReply {
  bool ok = false;                     ///< false = `error` holds the cause
  inject::TrialForensics forensics;    ///< valid when ok
  std::string error;                   ///< valid when !ok
};

/// Runs one trial inside the forked worker child. Must not throw — a
/// contained failure is reported through TrialReply::error.
using TrialFn = std::function<TrialReply(const WorkItem&)>;

/// Fork at the cut, called by a template world at its cut: returns only
/// inside a forked trial child, with the work item that child serves.
using Park = std::function<const WorkItem&()>;

/// Runs `point`'s world fault-free up to its cut and calls `park` there;
/// in the trial child park() returns, and the function finishes that
/// trial and returns its reply. Returning without ever parking means the
/// world ended before its cut, and the item is served from scratch.
/// Must not throw, like TrialFn.
using TemplateFn =
    std::function<TrialReply(const WorkItem& point, const Park& park)>;

/// Runs once inside each freshly forked server (e.g. to disable the
/// telemetry recorder, whose mutexes may have been mid-lock in another
/// thread of the supervisor at fork time).
using ChildInit = std::function<void()>;

}  // namespace procpool

/// Supervisor-side handle to the fork-server pool. Lanes are bound to
/// callers: run() on lane i comes from scheduler lane i only (lane 0
/// also from the scheduling thread while the lanes are idle), so calls
/// on distinct lanes run concurrently and a lane never waits for
/// another's caller.
class ProcPool {
 public:
  struct Options {
    std::size_t lanes = 1;
    /// How many lane *respawns* (after a lease kill or server death) are
    /// allowed before the pool declares itself degraded. The initial
    /// per-lane spawns are free.
    std::size_t respawn_budget = 4;
    procpool::ChildInit child_init;
    /// Fork at the cut for exact-trigger items of the message, fail-stop
    /// and signal models; empty = every trial runs in a fresh child.
    procpool::TemplateFn cut_template;
  };

  struct Result {
    enum class Kind : std::uint8_t {
      Completed,     ///< trial ran; `reply` holds outcome or contained error
      SignalDeath,   ///< child killed by a signal: `signal` + rusage
      LeaseExpired,  ///< lane SIGKILLed for blowing the lease deadline
      LaneFailure,   ///< server died / protocol error / pool degraded
    };
    Kind kind = Kind::LaneFailure;
    procpool::TrialReply reply;  ///< Completed
    int signal = 0;              ///< SignalDeath
    std::uint64_t user_us = 0;   ///< SignalDeath: rusage user time
    std::uint64_t sys_us = 0;    ///< SignalDeath: rusage system time
    std::uint64_t maxrss_kb = 0; ///< SignalDeath: rusage peak RSS
    std::string error;           ///< LaneFailure / LeaseExpired detail
    bool at_cut = false;         ///< the trial child was forked at the cut
  };

  struct Stats {
    std::uint64_t servers_spawned = 0;  ///< initial spawns + respawns
    std::uint64_t respawns = 0;         ///< spawns after a lane loss
    std::uint64_t trials_dispatched = 0;
    std::uint64_t signal_deaths = 0;
    std::uint64_t lease_kills = 0;
    std::uint64_t lane_failures = 0;
    std::uint64_t cut_servers = 0;  ///< point servers that forked at a cut
    std::uint64_t cut_trials = 0;   ///< trials forked at the cut
  };

  /// Forks all lane servers eagerly. Call from as quiet a moment as
  /// possible (before the trial pool spawns threads): every later worker
  /// child inherits the supervisor's memory image as of this fork.
  /// Throws InternalError when no lane can be spawned at all.
  ProcPool(Options options, procpool::TrialFn fn);
  ~ProcPool();

  ProcPool(const ProcPool&) = delete;
  ProcPool& operator=(const ProcPool&) = delete;

  /// Dispatches one trial to lane `lane` and waits for its consolidated
  /// reply, up to `lease`. On lease expiry the lane's process group is
  /// SIGKILLed. Never throws for worker-side conditions — every failure
  /// mode is a Result kind the campaign maps onto its retry ladder.
  /// Throws InternalError for a lane out of range or one that already
  /// has a caller in run().
  Result run(const procpool::WorkItem& item, std::chrono::milliseconds lease,
             std::size_t lane);

  /// True once the respawn budget is exhausted: callers should stop
  /// dispatching and fall back to in-process execution.
  bool degraded() const noexcept;

  std::size_t lanes() const noexcept { return lanes_.size(); }
  Stats stats() const;

  /// Live fork-server (zygote) pids (0 for lanes awaiting respawn), which
  /// are also the lanes' process-group ids. Tests use this to SIGKILL a
  /// lane mid-trial.
  std::vector<int> server_pids() const;

 private:
  struct Lane {
    int pid = 0;         ///< zygote pid (0 = dead, respawn on next use)
    int cmd_fd = -1;     ///< supervisor → point server work items
    int result_fd = -1;  ///< point server → supervisor consolidated replies
    std::uint64_t seq = 0;
    bool busy = false;  ///< a run() call owns the lane
  };

  bool spawn_locked(Lane& lane, bool is_respawn);
  void kill_lane_locked(Lane& lane);

  Options options_;
  procpool::TrialFn fn_;
  mutable std::mutex mutex_;
  std::vector<Lane> lanes_;
  std::size_t respawns_used_ = 0;
  bool degraded_ = false;
  Stats stats_;
};

/// The journal's forensic line for a signal death: signal name + number
/// and the child's rusage, e.g.
/// "worker killed by SIGSEGV (signal 11); rusage: user=3ms sys=1ms
/// maxrss=2048KiB".
std::string describe_worker_death(int signo, std::uint64_t user_us,
                                  std::uint64_t sys_us,
                                  std::uint64_t maxrss_kb);

}  // namespace fastfit::core
