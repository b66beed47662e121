// Fail-stop rank death and ULFM-style shrink-and-continue repair.
//
// Covers the fault-model-v2 failure semantics at the MiniMPI layer:
// a killed rank raises RankKilled at its next cancellation point, peers
// observe the death (world poison with repair off, RankRevoked with
// repair on), and survivors can rebuild a shrunken communicator and
// finish a repair protocol that classifies the run as repaired.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "minimpi/mpi.hpp"
#include "minimpi/world.hpp"
#include "support/error.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

WorldOptions small_world(int n, bool repair = false) {
  WorldOptions o;
  o.nranks = n;
  o.watchdog = 2000ms;
  o.repair = repair;
  return o;
}

TEST(FailStop, DeathPoisonsWorldWithoutRepair) {
  World world(small_world(4));
  const auto result = world.run([](Mpi& mpi) {
    if (mpi.world_rank() == 2) {
      throw RankKilled(2, "fail-stop test fault");
    }
    mpi.barrier();
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::RankDead);
  EXPECT_EQ(result.event->rank, 2);
  EXPECT_TRUE(result.rank_died);
  EXPECT_FALSE(result.repaired);
  ASSERT_TRUE(result.autopsy.has_value());
  EXPECT_EQ(result.autopsy->ranks[2].phase, RankPhase::Dead);
}

TEST(FailStop, KillRankUnblocksBlockedReceive) {
  // The victim parks in a transport wait for a message that never comes;
  // kill_rank from rank 0's fiber must wake it and raise RankKilled on
  // the victim's own fiber. Rank 0 first waits for rank 1's hello, so
  // rank 1 is already parked in its receive when the kill lands, and
  // the world is never quiescent before it does.
  World world(small_world(2));
  std::atomic<bool> victim_parked{false};
  const auto result = world.run([&world, &victim_parked](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 1);
    if (mpi.world_rank() == 0) {
      mpi.recv(buf.data(), 1, kDouble, 1, 8);
      EXPECT_EQ(world.state().progress().snapshot(1).phase,
                RankPhase::Blocked);
      victim_parked.store(true);
      world.state().kill_rank(1);
    } else {
      mpi.send(buf.data(), 1, kDouble, 0, 8);
      mpi.recv(buf.data(), 1, kDouble, 0, 7);
    }
  });
  EXPECT_TRUE(victim_parked.load());
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::RankDead);
  EXPECT_EQ(result.event->rank, 1);
  EXPECT_TRUE(result.rank_died);
}

TEST(FailStop, FirstDeathWinsEventCapture) {
  World world(small_world(4));
  const auto result = world.run([](Mpi& mpi) {
    // Every rank dies; exactly one death initiates the captured event and
    // the others are subordinate.
    throw RankKilled(mpi.world_rank(), "mass fail-stop");
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::RankDead);
  EXPECT_GE(result.event->rank, 0);
  EXPECT_LT(result.event->rank, 4);
  EXPECT_TRUE(result.rank_died);
}

TEST(FailStop, RepairModeRevokesSurvivorsAndShrinks) {
  World world(small_world(4, /*repair=*/true));
  std::atomic<int> repaired{0};
  const auto result = world.run([&repaired](Mpi& mpi) {
    try {
      if (mpi.world_rank() == 1) {
        throw RankKilled(1, "fail-stop under repair");
      }
      // Survivors keep collectively communicating until the revocation
      // notice reaches them.
      for (int i = 0; i < 1000; ++i) {
        mpi.allreduce_value(1.0, kSum);
      }
      FAIL() << "revocation never observed on rank " << mpi.world_rank();
    } catch (const RankRevoked&) {
      const Comm survivors = mpi.shrink_and_continue();
      EXPECT_EQ(mpi.size(survivors), 3);
      EXPECT_GE(mpi.rank(survivors), 0);
      // The shrunken communicator postdates the revocation: collectives
      // on it complete instead of re-raising RankRevoked.
      const double members =
          mpi.allreduce_value(1.0, kSum, survivors);
      EXPECT_DOUBLE_EQ(members, 3.0);
      mpi.mark_repaired();
      repaired.fetch_add(1);
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::RankDead);
  EXPECT_EQ(result.event->rank, 1);
  EXPECT_TRUE(result.rank_died);
  EXPECT_TRUE(result.repaired);
  EXPECT_EQ(repaired.load(), 3);
}

TEST(FailStop, DeathAtEntryUnderRepairStillStartsSurvivors) {
  // Under repair a death revokes the world's communicators instead of
  // poisoning it, so ranks that had not started when rank 0 died still
  // start, observe the revocation, shrink and repair.
  World world(small_world(4, /*repair=*/true));
  std::atomic<int> entered{0};
  std::atomic<int> repaired{0};
  const auto result = world.run([&](Mpi& mpi) {
    entered.fetch_add(1);
    if (mpi.world_rank() == 0) throw RankKilled(0, "dies at entry");
    try {
      mpi.barrier();
      FAIL() << "revocation never observed on rank " << mpi.world_rank();
    } catch (const RankRevoked&) {
      const Comm survivors = mpi.shrink_and_continue();
      EXPECT_DOUBLE_EQ(mpi.allreduce_value(1.0, kSum, survivors), 3.0);
      mpi.mark_repaired();
      repaired.fetch_add(1);
    }
  });
  EXPECT_EQ(entered.load(), 4);
  EXPECT_EQ(repaired.load(), 3);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::RankDead);
  EXPECT_EQ(result.event->rank, 0);
  EXPECT_TRUE(result.rank_died);
  EXPECT_TRUE(result.repaired);
}

TEST(FailStop, ShrinkIsIdempotentAcrossSurvivors) {
  World world(small_world(4, /*repair=*/true));
  std::mutex mutex;
  std::vector<Comm> handles;
  const auto result = world.run([&](Mpi& mpi) {
    try {
      if (mpi.world_rank() == 3) {
        throw RankKilled(3, "fail-stop");
      }
      for (int i = 0; i < 1000; ++i) {
        mpi.barrier();
      }
    } catch (const RankRevoked&) {
      const Comm survivors = mpi.shrink_and_continue();
      // Calling again returns the same handle: registration is keyed.
      EXPECT_EQ(mpi.shrink_and_continue(), survivors);
      {
        std::lock_guard lock(mutex);
        handles.push_back(survivors);
      }
      mpi.barrier(survivors);
      mpi.mark_repaired();
    }
  });
  EXPECT_TRUE(result.repaired);
  ASSERT_EQ(handles.size(), 3u);
  EXPECT_EQ(handles[0], handles[1]);
  EXPECT_EQ(handles[1], handles[2]);
}

TEST(FailStop, PartialRepairIsNotRepaired) {
  // One survivor declines to call mark_repaired: the run must stay
  // RANK_DEAD (repaired requires *every* survivor).
  World world(small_world(4, /*repair=*/true));
  const auto result = world.run([](Mpi& mpi) {
    try {
      if (mpi.world_rank() == 0) {
        throw RankKilled(0, "fail-stop");
      }
      for (int i = 0; i < 1000; ++i) {
        mpi.allreduce_value(1.0, kSum);
      }
    } catch (const RankRevoked&) {
      const Comm survivors = mpi.shrink_and_continue();
      mpi.barrier(survivors);
      if (mpi.world_rank() != 3) {
        mpi.mark_repaired();
      }
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::RankDead);
  EXPECT_TRUE(result.rank_died);
  EXPECT_FALSE(result.repaired);
}

TEST(FailStop, NonRepairingClosureUnderRepairModeStaysRankDead) {
  // Repair mode on but the application has no repair hook: survivors let
  // RankRevoked unwind (the thread shim swallows it like WorldAborted)
  // and the run classifies RANK_DEAD, not an internal error.
  World world(small_world(4, /*repair=*/true));
  const auto result = world.run([](Mpi& mpi) {
    if (mpi.world_rank() == 2) {
      throw RankKilled(2, "fail-stop, nobody repairs");
    }
    for (int i = 0; i < 1000; ++i) {
      mpi.allreduce_value(1.0, kSum);
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::RankDead);
  EXPECT_EQ(result.event->rank, 2);
  EXPECT_TRUE(result.rank_died);
  EXPECT_FALSE(result.repaired);
}

TEST(FailStop, SurvivorDeadlockAfterRepairIsProven) {
  // Rank 1 dies under repair mode and the survivors shrink; then rank 3
  // leaves without joining the survivors' barrier, so ranks 0 and 2 stay
  // blocked on the shrunken communicator with the revocation still
  // recorded. The world must prove that deadlock at quiescence — its
  // poison unwinds both with WorldAborted — instead of waiting out the
  // 10 s watchdog until one of them raises SimTimeout. The death stays
  // the initiating event (the first event captured wins).
  auto options = small_world(4, /*repair=*/true);
  options.watchdog = 10000ms;
  World world(options);
  std::atomic<int> aborted{0};
  std::atomic<int> timed_out{0};
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = world.run([&](Mpi& mpi) {
    try {
      if (mpi.world_rank() == 1) {
        throw RankKilled(1, "fail-stop before a broken repair");
      }
      for (int i = 0; i < 1000; ++i) {
        mpi.barrier();
      }
    } catch (const RankRevoked&) {
      const Comm survivors = mpi.shrink_and_continue();
      if (mpi.world_rank() == 3) return;  // never joins the barrier
      try {
        mpi.barrier(survivors);
      } catch (const WorldAborted&) {
        aborted.fetch_add(1);
        throw;
      } catch (const SimTimeout&) {
        timed_out.fetch_add(1);
        throw;
      }
      mpi.mark_repaired();
    }
  });
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5000ms);
  EXPECT_EQ(aborted.load(), 2);
  EXPECT_EQ(timed_out.load(), 0);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::RankDead);
  EXPECT_EQ(result.event->rank, 1);
  EXPECT_TRUE(result.rank_died);
  EXPECT_FALSE(result.repaired);
}

TEST(FailStop, DeadRankVisibleInProgressTable) {
  ProgressTable table(3);
  table.publish_dead(1);
  EXPECT_EQ(table.snapshot(1).phase, RankPhase::Dead);
  // A killed rank's thread still unwinds through the normal exit path;
  // the death verdict must survive the exit publish.
  table.publish_exited(1);
  EXPECT_EQ(table.snapshot(1).phase, RankPhase::Dead);
  table.publish_exited(0);
  EXPECT_EQ(table.snapshot(0).phase, RankPhase::Exited);
}

TEST(FailStop, AliveMembersExcludeTheDead) {
  World world(small_world(4, /*repair=*/true));
  const auto result = world.run([&world](Mpi& mpi) {
    try {
      if (mpi.world_rank() == 1) {
        throw RankKilled(1, "fail-stop");
      }
      for (int i = 0; i < 1000; ++i) {
        mpi.barrier();
      }
    } catch (const RankRevoked&) {
      const auto alive = world.state().alive_members();
      EXPECT_EQ(alive, (std::vector<int>{0, 2, 3}));
      const Comm survivors = mpi.shrink_and_continue();
      EXPECT_EQ(world.state().group_of(survivors), alive);
      mpi.barrier(survivors);
      mpi.mark_repaired();
    }
  });
  EXPECT_TRUE(result.repaired);
}

}  // namespace
}  // namespace fastfit::mpi
