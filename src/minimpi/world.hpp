#pragma once

// The World: a simulated MPI job.
//
// A World runs an SPMD rank function on N ranks, each a resumable fiber
// with its own mailbox (transport endpoint) and memory registry
// (simulated address space), all multiplexed on the ONE thread that calls
// run() — a world never creates an OS thread. It is the failure-
// containment boundary of a fault-injection trial: the first FaultEvent
// any rank raises is captured, the world is poisoned so every other rank
// unwinds promptly with WorldAborted, and run() returns a WorldResult
// describing the initiating event — never letting a "segfault" or "hang"
// escape the process. A rank that has not started when its world is
// poisoned never runs its rank function at all. A trial world
// (WorldOptions::trial_arena) does not unwind its other ranks either: it
// drops them where they stand, and their memory goes with the thread's
// rank arena.
//
// Every MiniMPI wait is a cooperative yield point, so the scheduler always
// knows when no rank can run: if no blocked rank's awaited message is
// queued either, the world is provably deadlocked and INF_LOOP is
// declared at once, with a per-rank autopsy (minimpi/progress.hpp).
// Genuine livelock (a compute loop that never reaches a wait) still
// falls back to the watchdog through check_deadline(). Rank code that
// never calls into MiniMPI at all cannot be preempted; contain it with
// process isolation (core/procpool.hpp). WorldResult also carries a
// post-trial audit of the memory registries and mailbox queues.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "minimpi/hooks.hpp"
#include "minimpi/mailbox.hpp"
#include "minimpi/memory.hpp"
#include "minimpi/progress.hpp"
#include "minimpi/snapshot.hpp"
#include "minimpi/types.hpp"
#include "support/error.hpp"

namespace fastfit::mpi {

class Mpi;
class FiberScheduler;

/// Algorithm selection per collective family, mirroring how production
/// MPIs pick among several implementations. Fault *behaviour* differs by
/// algorithm (e.g. a divergent root stalls a chain pipeline differently
/// from a binomial tree), which bench/ablation_algorithms measures.
struct CollectiveAlgorithms {
  enum class Allreduce : std::uint8_t {
    RecursiveDoubling,  ///< MPICH short-vector algorithm (default)
    ReduceBcast,        ///< binomial reduce to rank 0 + binomial bcast
  };
  enum class Bcast : std::uint8_t {
    Binomial,  ///< binomial tree (default)
    Chain,     ///< pipeline through consecutive ranks
  };
  Allreduce allreduce = Allreduce::RecursiveDoubling;
  Bcast bcast = Bcast::Binomial;
};

struct WorldOptions {
  int nranks = 32;
  /// Watchdog: a world still running after this long is declared hung
  /// (paper Table I: INF_LOOP). Must comfortably exceed the fault-free
  /// runtime of the workload. Structural deadlocks are proven the moment
  /// no rank can run, long before it expires; the watchdog ends livelock
  /// (compute loops that poll check_deadline).
  std::chrono::milliseconds watchdog{500};
  std::uint64_t seed = 0x5eedULL;
  CollectiveAlgorithms algorithms;
  /// When set, every rank logs its MPI ops and transport payloads here —
  /// the campaign's one fault-free run in Campaign::profile()
  /// (minimpi/snapshot.hpp).
  std::shared_ptr<PrefixRecorder> recorder;
  /// When set, each rank replays its recorded prefix with zero rendezvous
  /// up to the snapshot's cut, then switches to live execution. In-flight
  /// messages across the cut are pre-seeded before the ranks start.
  std::shared_ptr<const WorldSnapshot> replay;
  /// ULFM-style shrink-and-continue: when a rank fail-stops, survivors see
  /// RankRevoked (instead of a world poison) and may rebuild a shrunken
  /// communicator via Mpi::shrink_and_continue(). Off = a rank death tears
  /// the world down (outcome RANK_DEAD).
  bool repair = false;
  /// Set by Campaign::execute_trial for its trial worlds. Rank fibers
  /// allocate from the thread's rank arena (minimpi/arena.hpp), and a
  /// poisoned world drops its remaining fibers instead of resuming each
  /// to unwind. The arena is released when the next such world starts on
  /// the thread, so nothing a rank allocated may be used after that. A
  /// thread that can get no arena runs the world as if this were unset.
  bool trial_arena = false;
};

/// How a rank failed, for outcome classification (maps onto Table I).
enum class EventType : std::uint8_t {
  AppDetected,  ///< application's own error handling aborted
  MpiErr,       ///< MiniMPI validation rejected a parameter
  SegFault,     ///< memory-registry bounds violation
  Timeout,      ///< watchdog fired or deadlock proven: the job hung
  RankDead,     ///< fail-stop fault killed a rank mid-run
};

const char* to_string(EventType type) noexcept;

/// The first (initiating) failure observed in a world.
struct CapturedEvent {
  EventType type{};
  int rank = -1;
  std::string message;
  std::optional<MpiErrc> mpi_code;
};

/// Result of one world execution. `clean()` does not imply SUCCESS — the
/// trial runner still compares the application's answer against a golden
/// run to distinguish SUCCESS from WRONG_ANS.
struct WorldResult {
  std::optional<CapturedEvent> event;
  /// Forensic snapshot taken when the event was recorded (absent for a
  /// clean run): per-rank phase, heartbeat, pending-op signature.
  std::optional<WorldAutopsy> autopsy;
  /// Post-trial audit: memory-registry regions left registered after all
  /// ranks unwound (0 unless a registration escaped its scope). Ranks a
  /// trial world dropped are not counted: their registries die with it.
  std::size_t leaked_regions = 0;
  /// Post-trial audit: messages still queued in mailboxes. Nonzero is
  /// normal for faulted runs (poison aborts in-flight exchanges) but a
  /// transport leak on a clean run.
  std::size_t undelivered_messages = 0;
  /// At least one rank fail-stopped (the event, if initiating, is
  /// EventType::RankDead).
  bool rank_died = false;
  /// Repair mode was on, a rank died, and *every* survivor completed its
  /// repair hook on the shrunken communicator (outcome REPAIRED).
  bool repaired = false;
  /// A replay world whose every rank left the op at the cut exactly in the
  /// recorded state, with its tools vouching for their mutations: the
  /// suffix would have been the golden one, so it was not run and the
  /// trial classifies SUCCESS (docs/snapshot.md).
  bool reconverged = false;

  bool clean() const noexcept { return !event.has_value(); }
};

/// All state shared between the rank fibers and the controlling World.
/// The Mpi facade talks to this class, not to World. Every member is a
/// plain field: only the world's own thread ever touches it
/// (minimpi/fiber.hpp).
class WorldState {
 public:
  explicit WorldState(const WorldOptions& options);

  const WorldOptions& options() const noexcept { return options_; }
  int size() const noexcept { return options_.nranks; }

  // The accessors an operation calls several times each are inline.
  Mailbox& mailbox(int world_rank) {
    return mailboxes_.at(static_cast<std::size_t>(world_rank));
  }
  MemoryRegistry& registry(int world_rank) {
    return registries_.at(static_cast<std::size_t>(world_rank));
  }
  ProgressTable& progress() noexcept { return progress_; }
  PoisonState& poison() noexcept { return poison_; }
  bool poisoned() const noexcept { return poison_.poisoned(); }
  /// The watchdog deadline, by reference: a parked receive re-reads it
  /// on every resume, so a rebase reaches waits already in progress.
  const std::chrono::steady_clock::time_point& deadline() const noexcept {
    return deadline_;
  }
  ToolHooks* tools() const noexcept { return tools_; }

  /// Fork-at-cut: a world parked at its cut in a template process resumes
  /// in a forked trial child. Re-aims the watchdog so the child gets the
  /// budget `watchdog` minus what the world had spent by `cut`, counted
  /// from now — time the template spent parked never counts.
  void rebase_deadline(std::chrono::milliseconds watchdog,
                       std::chrono::steady_clock::time_point cut) noexcept;

  /// Records the initiating failure (first wins; WorldAborted never
  /// initiates), snapshots the progress table into the autopsy, and
  /// poisons the world.
  void report_event(int rank, const FaultEvent& event);

  /// Fail-stop path: records the death (EventType::RankDead, first-wins),
  /// marks the rank Dead in the progress table, and either poisons the
  /// world (repair off) or revokes every pre-death communicator and wakes
  /// all waiters so survivors observe RankRevoked (repair on).
  void report_rank_death(int rank, const RankKilled& event);

  /// Marks `world_rank` doomed: its next transport wait, deadline check,
  /// or collective dispatch raises RankKilled on its own fiber. The
  /// injector's rank-death manifestation and tests use this primitive;
  /// call it from a rank fiber of this world.
  void kill_rank(int world_rank);

  /// Whether kill_rank / a fail-stop fault has doomed this rank (polled by
  /// the rank itself at cancellation points).
  bool rank_doomed(int world_rank) const noexcept {
    return doomed_[static_cast<std::size_t>(world_rank)];
  }

  /// Whether this rank's death has been reported.
  bool rank_dead(int world_rank) const noexcept {
    return dead_[static_cast<std::size_t>(world_rank)];
  }

  /// World ranks whose death has not been reported, in rank order: the
  /// membership of a shrink_and_continue communicator.
  std::vector<int> alive_members() const;

  /// Whether `comm` was revoked by a fail-stop under repair mode.
  /// Communicators registered after the revocation (the shrunken one) are
  /// exempt; everything older raises RankRevoked at its next operation.
  bool comm_revoked(Comm comm) const noexcept {
    return poison_.revoked() && handle_index(raw(comm)) < revoked_comm_limit_;
  }

  /// A survivor completed its repair hook; when every survivor has, the
  /// world result reports repaired=true (outcome REPAIRED).
  void mark_repaired() noexcept { ++repaired_count_; }

  /// Reconvergence at the cut: a rank's first live collective left it in
  /// the recorded state. When every rank has, and no event was captured,
  /// the world is reconverged and torn down; returns true to the rank
  /// whose report completed the count.
  bool note_reconverged_rank();

  /// Communicator registry. A communicator is a list of world ranks.
  /// `register_comm` is idempotent on `key`: all members of a new
  /// communicator derive the same creation key (parent handle, per-parent
  /// split sequence, color), so each obtains the same handle without any
  /// global ordering.
  Comm register_comm(const std::string& key, std::vector<int> members);

  /// Group of a communicator; throws MpiError(InvalidComm) for a handle
  /// that does not name a live communicator of this world.
  const std::vector<int>& group_of(Comm comm) const {
    return comm == kCommWorld ? world_members_ : group_of_registered(comm);
  }

  /// Rank of `world_rank` within `comm`, or -1 if not a member.
  int comm_rank_of(Comm comm, int world_rank) const {
    if (comm == kCommWorld) {
      return world_rank >= 0 && world_rank < options_.nranks ? world_rank : -1;
    }
    return comm_rank_of_registered(comm, world_rank);
  }

 private:
  friend class World;

  const std::vector<int>& group_of_registered(Comm comm) const;
  int comm_rank_of_registered(Comm comm, int world_rank) const;

  /// First-wins event capture with an explicit autopsy (the deadlock
  /// verdict); nullopt snapshots the live table instead. `poison` = false
  /// records the event without tearing the world down (the repair path:
  /// survivors must keep running).
  void capture_event(int rank, const FaultEvent& event,
                     std::optional<WorldAutopsy> autopsy, bool poison = true);

  /// Poison + mailbox wake storm (idempotent); a trial-arena world drops
  /// its remaining fibers instead of waking them.
  void poison_and_wake();

  /// Builds the deterministic-deadlock autopsy from the all-blocked
  /// progress table and captures it as the world's INF_LOOP event.
  void declare_deadlock();

  /// The scheduler's idle handler: invoked when no fiber is runnable.
  /// Wakes satisfiable or doomed waits; with nothing to wake, quiescence
  /// ("no runnable fiber, no queued message") IS the structural deadlock,
  /// declared unconditionally.
  void fiber_idle(FiberScheduler& sched);

  WorldOptions options_;
  PoisonState poison_;
  std::vector<Mailbox> mailboxes_;
  std::vector<MemoryRegistry> registries_;  ///< never resized after build
  ProgressTable progress_;
  std::chrono::steady_clock::time_point started_{};
  std::chrono::steady_clock::time_point deadline_{};

  std::optional<CapturedEvent> event_;
  std::optional<WorldAutopsy> autopsy_;

  struct CommEntry {
    std::vector<int> members;
  };
  std::vector<CommEntry> comms_;
  /// Creation keys of the registered communicators; the world
  /// communicator is not registered by key (no rank derives one for it).
  std::map<std::string, RawHandle> comm_keys_;
  /// Members of the world communicator (every rank, in order), resolved
  /// without a table lookup: nearly every operation names it.
  std::vector<int> world_members_;

  ToolHooks* tools_ = nullptr;

  // Fail-stop bookkeeping: doomed_ is the kill signal a rank polls at its
  // cancellation points; dead_ records reported deaths;
  // revoked_comm_limit_ is the size of the communicator table at
  // revocation time (older handles are revoked, newer — the shrunken comm
  // — are exempt).
  std::unique_ptr<bool[]> doomed_;
  std::unique_ptr<bool[]> dead_;
  int repaired_count_ = 0;
  std::size_t revoked_comm_limit_ = 0;

  int reconverged_count_ = 0;
  bool reconverged_ = false;

  // Internal (non-fault) exception escaping a rank fiber.
  std::exception_ptr internal_error_;

  // The running scheduler of a trial-arena world, which a poison tells to
  // drop its remaining fibers.
  FiberScheduler* drop_ = nullptr;
};

/// Thin single-use handle that owns its WorldState. Stack-allocatable (as
/// every test does).
class World {
 public:
  explicit World(WorldOptions options);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs `rank_main` on every rank, each as a fiber on the calling
  /// thread, and returns once all of them have finished or unwound.
  /// Callable once per World. Exceptions that are not FaultEvents
  /// (library bugs) are re-thrown to the caller.
  WorldResult run(const std::function<void(Mpi&)>& rank_main);

  const WorldOptions& options() const noexcept { return state_->options(); }
  int size() const noexcept { return state_->size(); }

  /// Installs the tool chain every collective dispatches through.
  void set_tools(ToolHooks* tools) noexcept;
  ToolHooks* tools() const noexcept { return state_->tools(); }

  /// The world's state (used by tests that poke at mailboxes/registries
  /// directly).
  WorldState& state() noexcept { return *state_; }

 private:
  std::unique_ptr<WorldState> state_;
  bool ran_ = false;
};

}  // namespace fastfit::mpi
