// FiberScheduler: the resume order is the FIFO ready queue's, whether a
// parking fiber switches to the scheduler or hands off to the next ready
// fiber directly, and each fiber keeps its own C++ exception state across
// every switch.

#include "minimpi/fiber.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace fastfit::mpi {
namespace {

/// A scripted run: at step s, fiber f wakes every fiber in wakes[f][s],
/// then parks, or returns after its last step.
using Script = std::vector<std::vector<std::vector<int>>>;
using Trace = std::vector<std::pair<int, int>>;  // (fiber, step) as run

/// The resume order a FIFO ready queue gives, with fibers that park going
/// back through the scheduler: fibers start in index order, a wake queues
/// only a parked fiber, and with nothing ready the idle handler wakes the
/// parked fibers in index order.
Trace fifo_order(const Script& script) {
  enum class S { Ready, Blocked, Done };
  const int n = static_cast<int>(script.size());
  std::vector<S> state(static_cast<std::size_t>(n), S::Ready);
  std::vector<std::size_t> step(static_cast<std::size_t>(n), 0);
  std::deque<int> ready;
  for (int f = 0; f < n; ++f) ready.push_back(f);
  Trace order;
  int done = 0;
  while (done < n) {
    if (ready.empty()) {
      for (int f = 0; f < n; ++f) {
        if (state[static_cast<std::size_t>(f)] == S::Blocked) {
          state[static_cast<std::size_t>(f)] = S::Ready;
          ready.push_back(f);
        }
      }
      continue;
    }
    const int f = ready.front();
    ready.pop_front();
    const auto uf = static_cast<std::size_t>(f);
    const std::size_t s = step[uf];
    order.emplace_back(f, static_cast<int>(s));
    state[uf] = S::Blocked;  // running: a wake is a no-op
    for (int w : script[uf][s]) {
      if (w != f && state[static_cast<std::size_t>(w)] == S::Blocked) {
        state[static_cast<std::size_t>(w)] = S::Ready;
        ready.push_back(w);
      }
    }
    if (++step[uf] == script[uf].size()) {
      state[uf] = S::Done;
      ++done;
    }
  }
  return order;
}

Trace run_script(const Script& script) {
  const int n = static_cast<int>(script.size());
  FiberScheduler sched(n);
  Trace order;
  sched.run(
      [&](int f) {
        const auto& steps = script[static_cast<std::size_t>(f)];
        for (std::size_t s = 0; s < steps.size(); ++s) {
          order.emplace_back(f, static_cast<int>(s));
          for (int w : steps[s]) sched.make_ready(w);
          if (s + 1 < steps.size()) sched.block_current();
        }
      },
      [&sched] {
        for (int f : sched.blocked()) sched.make_ready(f);
      });
  return order;
}

TEST(Fiber, ScriptedWakesResumeInTheReadyQueuesOrder) {
  // Ring passes, fan-outs, self-wakes, wakes of finished fibers and idle
  // rounds, from a fixed generator.
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  const auto next = [&x](int bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<int>(x % static_cast<std::uint64_t>(bound));
  };
  for (int round = 0; round < 40; ++round) {
    const int n = 2 + next(7);
    Script script(static_cast<std::size_t>(n));
    for (int f = 0; f < n; ++f) {
      auto& steps = script[static_cast<std::size_t>(f)];
      steps.resize(static_cast<std::size_t>(1 + next(6)));
      for (auto& wakes : steps) {
        const int count = next(4);
        for (int k = 0; k < count; ++k) wakes.push_back(next(n));
      }
    }
    const Trace expected = fifo_order(script);
    EXPECT_EQ(run_script(script), expected) << "round " << round;
  }
}

TEST(Fiber, RingPassVisitsFibersInQueueOrder) {
  // Each fiber wakes the next and parks: every park has a ready fiber to
  // go to, so (on the fast-switch path) no switch passes the scheduler.
  constexpr int kFibers = 5;
  Script script(kFibers);
  for (int f = 0; f < kFibers; ++f) {
    script[static_cast<std::size_t>(f)].assign(3, {(f + 1) % kFibers});
  }
  const Trace order = run_script(script);
  EXPECT_EQ(order, fifo_order(script));
  ASSERT_EQ(order.size(), 15u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].first, static_cast<int>(i % kFibers)) << i;
  }
}

TEST(Fiber, FiberParkedByAHandoffKeepsItsOwnException) {
  // Fiber 0 parks with a fiber ready and goes straight to fiber 1; fiber 1
  // then parks inside a catch block with nothing ready, so control comes
  // back to the scheduler from a fiber other than the one it resumed. The
  // exception state saved there must be fiber 1's: fiber 0 holds none.
  FiberScheduler sched(2);
  std::vector<std::string> seen(2);
  std::vector<bool> clean_at_resume(2, false);
  sched.run(
      [&](int f) {
        if (f == 0) {
          sched.block_current();
          clean_at_resume[0] = std::current_exception() == nullptr &&
                               std::uncaught_exceptions() == 0;
          return;
        }
        try {
          throw std::runtime_error("fiber 1");
        } catch (const std::runtime_error&) {
          sched.block_current();
          if (const auto own = std::current_exception()) {
            try {
              std::rethrow_exception(own);
            } catch (const std::runtime_error& again) {
              seen[1] = again.what();
            }
          }
        }
        clean_at_resume[1] = std::current_exception() == nullptr;
      },
      [&sched] {
        for (int f : sched.blocked()) sched.make_ready(f);
      });
  EXPECT_TRUE(clean_at_resume[0]);
  EXPECT_EQ(seen[1], "fiber 1");
  EXPECT_TRUE(clean_at_resume[1]);
}

}  // namespace
}  // namespace fastfit::mpi
