// Stress and scale: the substrate is created and destroyed thousands of
// times per campaign; it must not leak synchronization state between
// worlds, and it must hold up at larger rank counts than the benchmarks
// default to.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "minimpi/mpi.hpp"
#include "minimpi/world.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

TEST(Stress, TwoHundredSequentialWorlds) {
  for (int round = 0; round < 200; ++round) {
    WorldOptions o;
    o.nranks = 4;
    o.watchdog = 2000ms;
    o.seed = static_cast<std::uint64_t>(round);
    World world(o);
    const auto result = world.run([round](Mpi& mpi) {
      const auto v = mpi.allreduce_value<std::int32_t>(round, kSum);
      ASSERT_EQ(v, round * 4);
    });
    ASSERT_TRUE(result.clean()) << "round " << round;
  }
}

TEST(Stress, SixtyFourRankCollectives) {
  WorldOptions o;
  o.nranks = 64;
  o.watchdog = 20000ms;
  World world(o);
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    mpi.barrier();
    const auto sum = mpi.allreduce_value<std::int64_t>(mpi.rank(), kSum);
    ASSERT_EQ(sum, static_cast<std::int64_t>(n) * (n - 1) / 2);
    RegisteredBuffer<std::int32_t> mine(mpi.registry(), 1, mpi.rank());
    RegisteredBuffer<std::int32_t> all(mpi.registry(),
                                       static_cast<std::size_t>(n));
    mpi.allgather(mine.data(), 1, kInt32, all.data(), 1, kInt32);
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r)], r);
    }
  }).clean());
}

TEST(Stress, FailuresInConsecutiveWorldsStayContained) {
  // Alternate failing and clean worlds: a poisoned world must not bleed
  // into its successor.
  for (int round = 0; round < 50; ++round) {
    WorldOptions o;
    o.nranks = 4;
    o.watchdog = 500ms;
    World world(o);
    const bool fail_this_round = (round % 2 == 0);
    const auto result = world.run([fail_this_round](Mpi& mpi) {
      if (fail_this_round && mpi.world_rank() == 1) {
        throw AppError("scripted failure");
      }
      mpi.barrier();
    });
    ASSERT_EQ(result.clean(), !fail_this_round) << "round " << round;
  }
}

TEST(Stress, DeepCollectiveSequences) {
  // 500 collectives back to back: the tag sequence space must not
  // collide or wrap into confusion.
  WorldOptions o;
  o.nranks = 4;
  o.watchdog = 20000ms;
  World world(o);
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    for (std::int32_t i = 0; i < 500; ++i) {
      const auto v = mpi.allreduce_value(i, kMax);
      ASSERT_EQ(v, i);
    }
  }).clean());
}

TEST(Stress, TwoFiftySixRankDivergenceAndDeadlockMatrix) {
  // Campaign-scale smoke on the fiber substrate (the default engine):
  // 256 ranks per world, one world per classic divergence shape. The
  // deadlock cells must resolve deterministically — "no runnable rank
  // and no queued message" — without consuming the watchdog budget.
  WorldOptions o;
  o.nranks = 256;
  o.watchdog = 60000ms;

  {  // clean: the control cell.
    World world(o);
    EXPECT_TRUE(world.run([](Mpi& mpi) {
      const auto sum = mpi.allreduce_value<std::int64_t>(mpi.rank(), kSum);
      ASSERT_EQ(sum, static_cast<std::int64_t>(256) * 255 / 2);
    }).clean());
  }

  {  // silent divergence: one corrupted contribution, everyone agrees on
     // the wrong answer — no hang, no error, just a wrong result.
    World world(o);
    std::int64_t sum = -1;
    const auto result = world.run([&sum](Mpi& mpi) {
      const std::int64_t mine =
          mpi.world_rank() == 91 ? mpi.rank() + 1 : mpi.rank();
      const auto v = mpi.allreduce_value<std::int64_t>(mine, kSum);
      if (mpi.world_rank() == 0) sum = v;
    });
    EXPECT_TRUE(result.clean());
    EXPECT_EQ(sum, static_cast<std::int64_t>(256) * 255 / 2 + 1);
  }

  const auto expect_deterministic_deadlock = [](const WorldResult& result,
                                                const char* cell) {
    ASSERT_FALSE(result.clean()) << cell;
    EXPECT_EQ(result.event->type, EventType::Timeout) << cell;
    ASSERT_TRUE(result.autopsy.has_value()) << cell;
    EXPECT_TRUE(result.autopsy->deterministic) << cell;
  };

  {  // divergent root: rank 37's binomial tree waits on a phantom parent.
    const auto t0 = std::chrono::steady_clock::now();
    World world(o);
    expect_deterministic_deadlock(world.run([](Mpi& mpi) {
      const std::int32_t root = mpi.world_rank() == 37 ? 1 : 0;
      (void)mpi.bcast_value<std::int32_t>(7, root);
    }), "divergent-root");
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_LT(ms, 30000.0);
  }

  {  // early exit: rank 200 skips the final collective entirely.
    World world(o);
    expect_deterministic_deadlock(world.run([](Mpi& mpi) {
      mpi.barrier();
      if (mpi.world_rank() == 200) return;
      mpi.barrier();
    }), "early-exit");
  }
}

std::size_t os_threads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(Stress, FiberPoolHoldsOsThreadCountAtLaneWidth) {
  // The substrate's invariant, stated as an OS fact: 256 ranks are fibers
  // multiplexed on their trial's thread, so a pool of 4 lanes running
  // 256-rank worlds holds the whole process at <= baseline + 4 threads —
  // not the 1024+ a thread-per-rank substrate would need.
  // One throwaway thread first: a runtime that starts a helper thread on
  // the process's first pthread_create (ThreadSanitizer does) then has it
  // counted in the baseline instead of charged to the lanes.
  std::thread([] {}).join();
  const std::size_t baseline = os_threads();
  std::atomic<std::size_t> peak{0};
  std::atomic<int> failures{0};
  auto lane = [&peak, &failures] {
    WorldOptions o;
    o.nranks = 256;
    o.watchdog = 60000ms;
    World world(o);
    const auto result = world.run([&peak, &failures](Mpi& mpi) {
      if (mpi.world_rank() == 0) {
        // Sampled mid-flight, from inside a rank fiber.
        std::size_t now = os_threads();
        std::size_t prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
      }
      const auto sum = mpi.allreduce_value<std::int64_t>(mpi.rank(), kSum);
      if (sum != static_cast<std::int64_t>(256) * 255 / 2) {
        failures.fetch_add(1);
      }
    });
    if (!result.clean()) failures.fetch_add(1);
  };
  std::vector<std::thread> lanes;
  lanes.reserve(4);
  for (int i = 0; i < 4; ++i) lanes.emplace_back(lane);
  for (auto& t : lanes) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(peak.load(), 0u);
  EXPECT_LE(peak.load(), baseline + 4);
}

}  // namespace
}  // namespace fastfit::mpi
