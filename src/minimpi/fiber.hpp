#pragma once

// Stackful rank fibers: the execution contexts of every World's ranks.
//
// A FiberScheduler multiplexes N resumable rank contexts onto the ONE
// OS thread that calls run() — a World therefore never creates a thread
// of its own, and a campaign's total thread count is bounded by the
// executor's worker-pool width no matter how many ranks each trial
// simulates. Fibers are resumable contexts on heap-allocated stacks; a
// context switch is a user-space register swap with no kernel
// involvement (fastfit_ctx_swap on x86-64, ucontext elsewhere), so a
// world pays no thread spawn, join, or kernel scheduling.
//
// Scheduling is cooperative and deterministic: the ready queue is FIFO,
// seeded in rank order, and every yield point is a mailbox rendezvous
// (minimpi/mailbox.cpp) — rank code never observes preemption. On the
// fast-switch path a fiber that parks while another is ready switches to
// it directly (one switch instead of two through the scheduler, same
// order). Because MiniMPI matching is exact on (source, tag), the
// schedule cannot change any rank's observable execution, which is why
// a trial's result does not depend on which executor lane runs it
// (enforced by the pool parity suite).
//
// A World is single-threaded by contract: every wake (message delivery,
// poison, revocation, kill_rank) is made by a fiber of the same
// scheduler or by its idle handler, never by another OS thread. A fiber
// therefore cannot be woken between a mailbox's last readiness check
// and its park, and the idle handler never waits for an outside event:
// with no fiber ready and none it can wake, the world is deadlocked.
// Every wake enters through make_ready(), which enforces the contract;
// the scheduler, and all the world state behind it, are plain fields.
//
// Fibers start in rank order, and a World's rank body checks for poison
// before it runs any rank code: a fiber that has not started when its
// world is poisoned returns on its first resume and unwinds nothing. A
// trial world goes further: once it is poisoned it calls drop_rest(), and
// run() resumes no fiber again. Parked, ready and unstarted fibers are
// abandoned where they stand, their stacks go back to the pool, and what
// they allocated dies with the thread's rank arena (minimpi/arena.hpp),
// which run() routes every fiber's operator new to.
//
// Each fiber keeps its own C++ exception state (the runtime's stack of
// caught exceptions and its uncaught count), so a fiber parked inside a
// catch block still sees its own exception when it resumes, whatever the
// fibers between did. A dropped fiber's caught exceptions are released
// with it.
//
// Sanitizer support: under TSan and ASan every switch is annotated with
// the fiber APIs (__tsan_switch_to_fiber / __sanitizer_start_switch_
// fiber), so the fiber suites run under the sanitizer CI jobs like any
// other code.

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

// Sanitizer fiber-API detection: GCC defines __SANITIZE_THREAD__ /
// __SANITIZE_ADDRESS__; Clang exposes __has_feature. Raw swapcontext
// without these annotations makes TSan report false races (it keeps
// analyzing the old stack) and breaks ASan's fake-stack bookkeeping.
#if defined(__SANITIZE_THREAD__)
#define FASTFIT_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FASTFIT_TSAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define FASTFIT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FASTFIT_ASAN_FIBERS 1
#endif
#endif

// Hot-path switch selection: glibc's swapcontext makes a rt_sigprocmask
// syscall per switch — two kernel round trips per mailbox rendezvous,
// the single largest cost left on the fiber fast path. On x86-64 Linux
// plain builds the scheduler switches with fastfit_ctx_swap (fiber.cpp),
// a ~20-instruction callee-saved register swap with no kernel
// involvement. Sanitizer builds keep ucontext so the fiber annotations
// stay on the well-trodden path, as do other architectures.
#if defined(__x86_64__) && defined(__linux__) &&  \
    !defined(FASTFIT_TSAN_FIBERS) && !defined(FASTFIT_ASAN_FIBERS)
#define FASTFIT_FAST_SWITCH 1
#else
#include <ucontext.h>
#endif

namespace fastfit::mpi {

class RankArena;

class FiberScheduler {
 public:
  /// Default fiber stack: generous for the bundled mini-apps (their rank
  /// functions keep bulk data on the heap), small enough that a 256-rank
  /// world costs tens of MiB, not gigabytes of kernel thread stacks.
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  explicit FiberScheduler(int nfibers,
                          std::size_t stack_bytes = kDefaultStackBytes);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Runs body(i) for every fiber i to completion, multiplexed on the
  /// calling thread. Whenever no fiber is ready and not all have
  /// finished, on_idle() is invoked; it must make a fiber ready (wake a
  /// satisfiable wait, or declare a deadlock and poison) — with every
  /// MiniMPI wait a cancellation point, a blocked fiber always unwinds
  /// once resumed, so run() terminates for every cooperative workload.
  /// With `arena` set, every fiber's operator new serves from it.
  void run(const std::function<void(int)>& body,
           const std::function<void()>& on_idle, RankArena* arena = nullptr);

  /// Ends run() as soon as control is back in the scheduler: the running
  /// fiber (if any) goes on until it switches back, and no fiber is
  /// resumed after that. Called by a poisoned trial world.
  void drop_rest() noexcept { dropping_ = true; }

  /// Whether fiber i's body returned (false for a dropped fiber).
  bool done(int fiber) const noexcept {
    return fibers_[static_cast<std::size_t>(fiber)].state == State::Done;
  }

  /// The scheduler driving the calling thread, or nullptr when the
  /// caller is a plain thread (e.g. a test poking at a mailbox directly).
  /// Mailbox::receive parks the current fiber through it.
  static FiberScheduler* active() noexcept;

  /// Index of the fiber running on this scheduler, -1 between fibers.
  int current() const noexcept { return current_; }

  /// True while the calling thread is executing inside a fiber body.
  bool in_fiber() const noexcept { return current_ >= 0; }

  /// Parks the current fiber and switches away. Returns when some
  /// make_ready(current) resumes it. On the fast-switch path the fiber
  /// hands off straight to the head of the ready queue, exactly the fiber
  /// the scheduler would resume next; it switches to the scheduler only
  /// when no fiber is ready (the idle handler must run) or the world is
  /// dropping its fibers.
  void block_current();

  /// Marks a blocked fiber ready (FIFO). Called from a fiber of this
  /// scheduler (a sender delivering to a parked receiver) or from its
  /// idle handler; a call from any other thread, or while this
  /// scheduler is not running, throws InternalError. Waking a running,
  /// ready or finished fiber is a no-op: a running fiber rechecks its
  /// wait condition before it parks.
  void make_ready(int fiber);

  /// Blocked fibers in rank order — the idle handler's scan set.
  std::vector<int> blocked() const;

  /// Fibers whose body has returned.
  int finished() const noexcept { return finished_; }

  /// First frame of every fiber: runs body_(current_) and reports back.
  /// Public only because the fast-switch entry thunk (an extern "C"
  /// symbol the bootstrap stack frame returns into) must call it.
  static void trampoline();

 private:
  enum class State : std::uint8_t { Ready, Running, Blocked, Done };

  /// The C++ runtime's per-thread exception state, swapped per fiber:
  /// the Itanium C++ ABI's __cxa_eh_globals, whose layout it fixes (the
  /// caught-exception stack, then the uncaught count).
  struct EhState {
    void* caught = nullptr;
    unsigned int uncaught = 0;
  };
  static EhState& thread_eh() noexcept;

  struct Fiber {
#if defined(FASTFIT_FAST_SWITCH)
    void* saved_sp = nullptr;  // parked stack pointer
#else
    ucontext_t context{};
#endif
    EhState eh;
    std::unique_ptr<std::byte[]> stack;
    State state = State::Ready;
#if defined(FASTFIT_TSAN_FIBERS)
    void* tsan_fiber = nullptr;
#endif
  };

  void resume(int fiber);
  void switch_to_scheduler(bool dying);

  const int nfibers_;
  const std::size_t stack_bytes_;
  std::vector<Fiber> fibers_;
#if defined(FASTFIT_FAST_SWITCH)
  void* sched_sp_ = nullptr;  // scheduler's parked stack pointer
#else
  ucontext_t sched_context_{};
#endif

  std::deque<int> ready_;
  int finished_ = 0;
  bool dropping_ = false;
  RankArena* arena_ = nullptr;
  EhState* eh_ = nullptr;  ///< this thread's, looked up once per run()

  int current_ = -1;
  const std::function<void(int)>* body_ = nullptr;
  std::exception_ptr error_;

#if defined(FASTFIT_TSAN_FIBERS)
  void* tsan_sched_fiber_ = nullptr;
#endif
#if defined(FASTFIT_ASAN_FIBERS)
  void* asan_fake_stack_ = nullptr;  // scheduler context's saved fake stack
#endif
};

}  // namespace fastfit::mpi
