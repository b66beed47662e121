#include "minimpi/world.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "minimpi/mpi.hpp"
#include "support/rng.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

WorldOptions small_world(int n) {
  WorldOptions opts;
  opts.nranks = n;
  opts.watchdog = 2000ms;
  return opts;
}

TEST(World, RunsEveryRankExactlyOnce) {
  World world(small_world(8));
  std::atomic<int> visits{0};
  std::atomic<std::uint32_t> rank_mask{0};
  const auto result = world.run([&](Mpi& mpi) {
    visits.fetch_add(1);
    rank_mask.fetch_or(1u << mpi.world_rank());
  });
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(visits.load(), 8);
  EXPECT_EQ(rank_mask.load(), 0xFFu);
}

TEST(World, RanksAndSizes) {
  World world(small_world(5));
  world.run([&](Mpi& mpi) {
    EXPECT_EQ(mpi.size(), 5);
    EXPECT_EQ(mpi.rank(), mpi.world_rank());
  });
}

TEST(World, RejectsInvalidRankCount) {
  WorldOptions opts;
  opts.nranks = 0;
  EXPECT_THROW(World w(opts), ConfigError);
}

TEST(World, SingleUse) {
  World world(small_world(2));
  world.run([](Mpi&) {});
  EXPECT_THROW(world.run([](Mpi&) {}), InternalError);
}

TEST(World, AppErrorCapturedAsAppDetected) {
  World world(small_world(4));
  const auto result = world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 2) throw AppError("checksum mismatch");
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::AppDetected);
  EXPECT_EQ(result.event->rank, 2);
  EXPECT_NE(result.event->message.find("checksum"), std::string::npos);
}

TEST(World, MpiErrorCapturedWithCode) {
  World world(small_world(2));
  const auto result = world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 0) {
      throw MpiError(MpiErrc::InvalidDatatype, "corrupted");
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::MpiErr);
  ASSERT_TRUE(result.event->mpi_code.has_value());
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidDatatype);
}

TEST(World, SegFaultCaptured) {
  World world(small_world(2));
  const auto result = world.run([&](Mpi& mpi) {
    int unregistered = 0;
    if (mpi.world_rank() == 1) {
      mpi.registry().check(&unregistered, sizeof(int));
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::SegFault);
}

TEST(World, PoisonUnblocksPeersWaitingOnCollective) {
  // Rank 0 dies before the barrier; everyone else is released promptly
  // with the initiating event (not a timeout) reported.
  WorldOptions opts = small_world(4);
  opts.watchdog = 10000ms;  // a hang here would stall the test visibly
  World world(opts);
  const auto start = std::chrono::steady_clock::now();
  const auto result = world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 0) throw AppError("early death");
    mpi.barrier();
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::AppDetected);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5000ms);
}

TEST(World, PoisonedWorldNeverStartsRemainingRanks) {
  // Fibers start in rank order, so rank 0's fault poisons the world
  // before ranks 1..15 have run: they never enter rank_main, and so
  // register nothing, send nothing and throw nothing.
  World world(small_world(16));
  std::atomic<int> entered{0};
  const auto result = world.run([&](Mpi& mpi) {
    entered.fetch_add(1);
    RegisteredBuffer<double> buf(mpi.registry(), 4, 1.0);
    if (mpi.world_rank() == 0) throw AppError("set-up check failed");
    mpi.send(buf.data(), 4, kDouble, 0, 3);
    mpi.barrier();
  });
  EXPECT_EQ(entered.load(), 1);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::AppDetected);
  EXPECT_EQ(result.event->rank, 0);
  EXPECT_EQ(result.leaked_regions, 0u);
  EXPECT_EQ(result.undelivered_messages, 0u);
  for (int r = 0; r < 16; ++r) {
    EXPECT_EQ(world.state().progress().snapshot(r).phase, RankPhase::Exited)
        << "rank " << r;
  }
}

TEST(World, ParkedSurvivorUnwindsWithTheMailboxThrow) {
  // Rank 1 parks in a receive that never matches; rank 0's fault wakes
  // it, and the WorldAborted that reaches rank code is the mailbox's own,
  // not a copy re-thrown with the blocked op prepended.
  World world(small_world(2));
  std::string survivor_saw;
  const auto result = world.run([&](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 1);
    if (mpi.world_rank() == 0) {
      mpi.recv(buf.data(), 1, kDouble, 1, 8);  // rank 1 is parked after this
      throw AppError("late fault");
    }
    mpi.send(buf.data(), 1, kDouble, 0, 8);
    try {
      mpi.recv(buf.data(), 1, kDouble, 0, 9);
    } catch (const WorldAborted& aborted) {
      survivor_saw = aborted.what();
      throw;
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::AppDetected);
  EXPECT_EQ(survivor_saw, "mailbox wait interrupted by world teardown");
  EXPECT_EQ(survivor_saw.find("blocked in"), std::string::npos);
}

TEST(World, TimeoutCapturedAsInfLoop) {
  WorldOptions opts = small_world(2);
  opts.watchdog = 50ms;
  World world(opts);
  const auto result = world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 0) mpi.barrier();  // rank 1 never joins
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
}

TEST(World, FirstEventWins) {
  World world(small_world(4));
  const auto result = world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 3) throw AppError("first");
    // Other ranks fail later (after a barrier attempt that aborts).
    mpi.barrier();
    throw MpiError(MpiErrc::Internal, "should never initiate");
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::AppDetected);
  EXPECT_EQ(result.event->rank, 3);
}

TEST(World, InternalErrorPropagatesToCaller) {
  World world(small_world(2));
  EXPECT_THROW(world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 0) throw InternalError("library bug");
  }),
               InternalError);
}

TEST(World, CheckDeadlineThrowsPastWatchdog) {
  WorldOptions opts = small_world(1);
  opts.watchdog = 1ms;
  World world(opts);
  const auto result = world.run([&](Mpi& mpi) {
    std::this_thread::sleep_for(20ms);
    mpi.check_deadline();
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
}

TEST(World, CommWorldGroupIsEveryone) {
  World world(small_world(6));
  const auto& group = world.state().group_of(kCommWorld);
  ASSERT_EQ(group.size(), 6u);
  for (int r = 0; r < 6; ++r) EXPECT_EQ(group[static_cast<std::size_t>(r)], r);
  EXPECT_EQ(world.state().comm_rank_of(kCommWorld, 4), 4);
}

TEST(World, InvalidCommHandleRejected) {
  World world(small_world(2));
  EXPECT_THROW(world.state().group_of(static_cast<Comm>(0x1234u)), MpiError);
  EXPECT_THROW(world.state().group_of(make_comm(57)), MpiError);
}

TEST(World, RegisterCommIdempotentOnKey) {
  World world(small_world(4));
  const Comm a = world.state().register_comm("sub", {0, 2});
  const Comm b = world.state().register_comm("sub", {0, 2});
  EXPECT_EQ(a, b);
  EXPECT_EQ(world.state().comm_rank_of(a, 2), 1);
  EXPECT_EQ(world.state().comm_rank_of(a, 1), -1);
}

TEST(World, RegisterCommInconsistentGroupIsCommError) {
  World world(small_world(4));
  world.state().register_comm("sub", {0, 2});
  EXPECT_THROW(world.state().register_comm("sub", {0, 3}), MpiError);
}

// Site ids feed injection points, journals and per-trial RNG streams, so
// the key they hash is part of the output format: "<file>:<line>:<kind>"
// for collectives and "<file>:<line>:p2p:<kind>" for point-to-point calls.
TEST(World, SiteIdsHashFileLineAndKind) {
  struct Site {
    std::uint32_t id = 0;
    std::string file;
    int line = 0;
    int kind = -1;
  };
  class SiteRecorder : public ToolHooks {
   public:
    void on_enter(CollectiveCall& call, Mpi& mpi) override {
      if (mpi.world_rank() == 0) {
        collectives.push_back({call.site_id, call.site_file, call.site_line,
                               static_cast<int>(call.kind)});
      }
    }
    void on_exit(const CollectiveCall&, Mpi&) override {}
    void on_p2p(P2pCall& call, Mpi& mpi) override {
      if (mpi.world_rank() == 0) {
        p2p.push_back({call.site_id, call.site_file, call.site_line,
                       static_cast<int>(call.kind)});
      }
    }
    std::vector<Site> collectives;
    std::vector<Site> p2p;
  } recorder;

  World world(small_world(2));
  world.set_tools(&recorder);
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 2, 1.0);
    mpi.barrier();
    mpi.bcast(buf.data(), 2, kDouble, 0);
    if (mpi.rank() == 0) {
      mpi.send(buf.data(), 2, kDouble, 1, 7);
      mpi.recv(buf.data(), 2, kDouble, 1, 8);
    } else {
      mpi.recv(buf.data(), 2, kDouble, 0, 7);
      mpi.send(buf.data(), 2, kDouble, 0, 8);
    }
  });
  ASSERT_TRUE(result.clean());
  ASSERT_EQ(recorder.collectives.size(), 2u);
  ASSERT_EQ(recorder.p2p.size(), 2u);
  for (const auto& site : recorder.collectives) {
    const std::string key = site.file + ':' + std::to_string(site.line) +
                            ':' + std::to_string(site.kind);
    EXPECT_EQ(site.id, static_cast<std::uint32_t>(fnv1a(key))) << key;
  }
  for (const auto& site : recorder.p2p) {
    const std::string key = site.file + ':' + std::to_string(site.line) +
                            ":p2p:" + std::to_string(site.kind);
    EXPECT_EQ(site.id, static_cast<std::uint32_t>(fnv1a(key))) << key;
  }
  EXPECT_NE(recorder.collectives[0].id, recorder.collectives[1].id);
  EXPECT_NE(recorder.p2p[0].id, recorder.p2p[1].id);
}

}  // namespace
}  // namespace fastfit::mpi
