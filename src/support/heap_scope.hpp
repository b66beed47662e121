#pragma once

// Arena routing for the global operator new (minimpi/arena.hpp).
//
// While a rank fiber of a trial world runs, the thread's operator new
// serves from the thread's rank arena, which the next trial world on the
// thread frees wholesale. State that a rank fiber allocates first but
// that must outlive the trial (a per-thread cache, a telemetry buffer, a
// lazily registered metric) is allocated under a HeapScope.

#include <utility>

namespace fastfit {

namespace mpi {
class RankArena;
}  // namespace mpi

/// The arena the calling thread's operator new serves from; nullptr means
/// the ordinary heap. FiberScheduler::resume sets it for a rank fiber of
/// an arena world and clears it when the fiber switches back.
inline thread_local constinit mpi::RankArena* t_rank_arena = nullptr;

/// Routes the calling thread's allocations to the ordinary heap for its
/// lifetime. Code under it must not park its fiber.
class HeapScope {
 public:
  HeapScope() noexcept : saved_(std::exchange(t_rank_arena, nullptr)) {}
  ~HeapScope() { t_rank_arena = saved_; }

  HeapScope(const HeapScope&) = delete;
  HeapScope& operator=(const HeapScope&) = delete;

  /// Whether the scope took over from an arena (its caller is a rank
  /// fiber of an arena world).
  bool suspended() const noexcept { return saved_ != nullptr; }

 private:
  mpi::RankArena* saved_;
};

}  // namespace fastfit
