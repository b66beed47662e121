#pragma once

// Point-to-point transport: one mailbox per rank.
//
// Collectives in MiniMPI are built from real message exchanges over these
// mailboxes (binomial trees, recursive doubling, pairwise exchange), so a
// corrupted parameter that makes ranks disagree about the communication
// schedule — e.g. a flipped `root` — produces a genuine unmatched
// send/recv. A receive that has to wait parks the calling rank fiber
// (minimpi/fiber.hpp); when the deadline passes the rank raises
// SimTimeout (the job "hangs", paper: INF_LOOP), and when another rank
// has already failed, the world poison wakes every waiter with
// WorldAborted so trials finish promptly (a trial world drops its
// waiters instead, minimpi/world.hpp).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <vector>

namespace fastfit::mpi {

class FiberScheduler;

/// The clock in-world deadline checks read: CLOCK_MONOTONIC_COARSE, as a
/// steady_clock time point (both count from the same epoch). It costs no
/// hardware timer read, and it lags the precise clock by at most one tick
/// (4 ms on common Linux hosts; clock_getres reports it), so a watchdog
/// verdict can come up to one tick late. Deadlines themselves are set on
/// the precise clock.
inline std::chrono::steady_clock::time_point deadline_clock() noexcept {
#if defined(CLOCK_MONOTONIC_COARSE)
  timespec now;
  clock_gettime(CLOCK_MONOTONIC_COARSE, &now);
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::seconds(now.tv_sec) +
          std::chrono::nanoseconds(now.tv_nsec)));
#else
  return std::chrono::steady_clock::now();
#endif
}

/// A delivered message. `tag` encodes (communicator, collective sequence,
/// phase) for collective traffic; plain p2p uses user tags.
struct Message {
  int source = -1;
  std::uint64_t tag = 0;
  std::vector<std::byte> payload;
};

/// Flags that tear down a world once any rank fails. Every waiter is a
/// fiber of the same world that rechecks them each time it is resumed,
/// so there is no sleeper to notify.
class PoisonState {
 public:
  void poison() noexcept { poisoned_ = true; }
  void revoke() noexcept { revoked_ = true; }
  bool poisoned() const noexcept { return poisoned_; }
  bool revoked() const noexcept { return revoked_; }

 private:
  bool poisoned_ = false;
  /// ULFM-style revocation: set (instead of poison) when a rank fail-stops
  /// with repair enabled. Waiters on pre-death communicators observe it
  /// and raise RankRevoked; post-repair communicators are exempt.
  bool revoked_ = false;
};

/// Unbounded mailbox with (source, tag) matching and deadline waits. Its
/// senders are the other rank fibers of the same world.
class Mailbox {
 public:
  explicit Mailbox(PoisonState& poison) : poison_(&poison) {}

  /// Enqueues a message (called by the sending rank's fiber).
  void deliver(Message message);

  /// Returns the first message matching (source, tag). With none queued
  /// the calling rank fiber parks (FiberScheduler::block_current) until a
  /// delivery or wake resumes it; the deadline passing throws SimTimeout
  /// and a poisoned world throws WorldAborted. Matching is exact;
  /// out-of-order arrivals with other tags stay queued. When `revocable`
  /// is set, a world revocation wakes the wait with RankRevoked (receives
  /// on post-repair communicators pass revocable=false and keep waiting).
  /// A doomed owner (World::kill_rank or a fail-stop fault on this rank)
  /// raises RankKilled instead. A receive that would have to wait outside
  /// a fiber throws InternalError: only a World's ranks can park.
  /// `deadline` is re-read on every resume (World passes its own, which
  /// a fork-at-cut trial rebases while ranks are parked).
  Message receive(int source, std::uint64_t tag,
                  const std::chrono::steady_clock::time_point& deadline,
                  bool revocable = true);

  /// Arms the fail-stop kill signal for this mailbox's owning rank:
  /// receive() polls `doomed` and raises RankKilled once it latches.
  void set_doom(int owner_rank, const bool* doomed) {
    doom_rank_ = owner_rank;
    doom_ = doomed;
  }

  /// Number of queued (unmatched) messages; used by tests and the
  /// post-trial transport audit.
  std::size_t pending() const;

  /// Whether a message matching (source, tag) is queued right now. Used
  /// by the world's idle scan: a blocked rank whose awaited message is
  /// already here is about to make progress, so the world is not
  /// deadlocked.
  bool has_match(int source, std::uint64_t tag) const;

  /// Marks the owning fiber ready so it rechecks poison, doom, and
  /// revocation. Called by the world during teardown and by kill_rank.
  void wake();

  /// Wake routing: deliveries and wakes mark `owner_rank`'s fiber ready
  /// on `sched` (FiberScheduler::make_ready, which rejects a wake from
  /// another thread). Installed by the world before the scheduler starts
  /// and cleared after it drains, so a wake after the world has run never
  /// observes a dangling scheduler.
  void set_fiber_waker(FiberScheduler* sched, int owner_rank);

 private:
  /// Unmatched messages in arrival order. A vector, not a deque: it
  /// allocates nothing until the first delivery, and a world builds one
  /// mailbox per rank for every trial.
  std::vector<Message> queue_;
  PoisonState* poison_;
  int doom_rank_ = -1;
  const bool* doom_ = nullptr;
  FiberScheduler* fiber_sched_ = nullptr;
  int fiber_rank_ = -1;
};

}  // namespace fastfit::mpi
