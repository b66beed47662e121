#include "minimpi/world.hpp"

#include <gtest/gtest.h>

#include <malloc.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "minimpi/arena.hpp"
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

TEST(World, SiteIdsSurviveMemoCollisions) {
  // Far more sites than the per-thread memo has slots, so they share
  // slots and evict each other; every id must still be the FNV-1a of its
  // whole key. Two file-name pointers with the same text are two memo
  // keys with one id.
  static const char kFile[] = "src/apps/lu.cpp";
  static const std::string kSameText = kFile;
  struct Site {
    const char* file;
    std::uint32_t line;
    SiteFamily family;
    int kind;
  };
  std::vector<Site> sites;
  for (std::uint32_t line = 1; line <= 80; ++line) {
    for (int kind : {0, 3}) {
      sites.push_back({kFile, line, SiteFamily::Collective, kind});
      sites.push_back({kFile, line, SiteFamily::P2p, kind});
    }
    sites.push_back({kSameText.c_str(), line, SiteFamily::Collective, 1});
  }
  ASSERT_GE(sites.size(), 300u);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const Site& site = sites[(i * (2 * pass + 1)) % sites.size()];
      const std::string key =
          std::string(site.file) + ':' + std::to_string(site.line) + ':' +
          (site.family == SiteFamily::P2p ? "p2p:" : "") +
          std::to_string(site.kind);
      EXPECT_EQ(site_id(site.file, site.line, site.family, site.kind),
                static_cast<std::uint32_t>(fnv1a(key)))
          << key << " pass " << pass;
    }
  }
}

// --- trial worlds: the rank arena and the drop ----------------------------

WorldOptions trial_world(int n) {
  WorldOptions opts = small_world(n);
  opts.trial_arena = true;
  return opts;
}

// Counts destructor runs of an object a rank holds while it parks.
struct Held {
  int* destroyed;
  ~Held() { ++*destroyed; }
};

// Every rank but 0 parks holding a Held and a registered buffer; the last
// one first sends rank 0 the token it waits for, and rank 0 then raises
// an application error.
WorldResult run_poisoned(World& world, int* destroyed) {
  return world.run([destroyed](Mpi& mpi) {
    const int last = mpi.size() - 1;
    RegisteredBuffer<std::int32_t> token(mpi.registry(), 1, 0);
    if (mpi.rank() == 0) {
      mpi.recv(token.data(), 1, kInt32, last, 1);
      throw AppError("rank 0 gives up");
    }
    Held held{destroyed};
    std::vector<unsigned char> big(64 * 1024, 1);  // past the size classes
    if (mpi.rank() == last) mpi.send(token.data(), 1, kInt32, 0, 1);
    mpi.recv(token.data(), 1, kInt32, 0, 2);  // never sent
  });
}

TEST(World, PoisonedTrialWorldDropsParkedRanksWithoutUnwinding) {
  constexpr int kRanks = 8;
  int destroyed = 0;
  World world(trial_world(kRanks));
  const auto result = run_poisoned(world, &destroyed);
  ASSERT_TRUE(result.event.has_value());
  EXPECT_EQ(result.event->type, EventType::AppDetected);
  EXPECT_EQ(result.event->rank, 0);
  EXPECT_EQ(destroyed, 0);  // a world that drains destroys kRanks - 1
  // The dropped ranks' buffers are still registered, and not audited.
  EXPECT_EQ(result.leaked_regions, 0u);
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(world.state().registry(r).region_count(), 1u) << "rank " << r;
  }

  int drained = 0;
  World plain(small_world(kRanks));
  const auto unwound = run_poisoned(plain, &drained);
  EXPECT_EQ(unwound.event->type, EventType::AppDetected);
  EXPECT_EQ(drained, kRanks - 1);
}

TEST(World, ThousandPoisonedTrialWorldsKeepHeapAndArenaFlat) {
  constexpr int kRanks = 32;
  int destroyed = 0;
  const auto run_worlds = [&](int n) {
    for (int i = 0; i < n; ++i) {
      World world(trial_world(kRanks));
      ASSERT_FALSE(run_poisoned(world, &destroyed).clean());
    }
  };
  run_worlds(10);
  RankArena* const arena = RankArena::for_this_thread();
  ASSERT_NE(arena, nullptr);
  const auto heap = mallinfo2().uordblks;
  const auto high_water = arena->high_water();
  run_worlds(990);
  EXPECT_EQ(mallinfo2().uordblks, heap);
  EXPECT_EQ(arena->high_water(), high_water);
  EXPECT_EQ(destroyed, 0);
}

TEST(World, ArenaSlotsComeBackWhenTheirThreadsExit) {
  // Executor lanes are threads that come and go; more of them in turn
  // than there are arena slots must each still get an arena.
  for (int i = 0; i < 100; ++i) {
    std::thread([] {
      ASSERT_NE(RankArena::for_this_thread(), nullptr);
      int destroyed = 0;
      World world(trial_world(4));
      EXPECT_FALSE(run_poisoned(world, &destroyed).clean());
      EXPECT_EQ(destroyed, 0);
    }).join();
  }
}

TEST(World, AbsurdAllocationInATrialWorldFailsAsOnTheHeap) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators abort on a failed malloc";
#endif
  World world(trial_world(2));
  const auto result = world.run([](Mpi& mpi) {
    if (mpi.rank() == 1) {
      void* p = ::operator new(std::size_t{1} << 62);
      ::operator delete(p);
    }
  });
  ASSERT_TRUE(result.event.has_value());
  EXPECT_EQ(result.event->type, EventType::SegFault);
  EXPECT_EQ(result.event->rank, 1);
}

TEST(World, CleanTrialWorldStillDestroysEverything) {
  constexpr int kRanks = 8;
  int destroyed = 0;
  World world(trial_world(kRanks));
  const auto result = world.run([&destroyed](Mpi& mpi) {
    Held held{&destroyed};
    RegisteredBuffer<double> buf(mpi.registry(), 4, 1.0);
    mpi.barrier();
    mpi.bcast(buf.data(), 4, kDouble, 0);
  });
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(destroyed, kRanks);
  EXPECT_EQ(result.leaked_regions, 0u);
}

TEST(World, RankThatReturnsWithARegionStillFailsTheTrialAudit) {
  // Rank 0 returns with a region still registered; rank 1 parks on it,
  // the deadlock verdict poisons the world and rank 1 is dropped holding
  // its own buffer. Only rank 0's region is a leak.
  World world(trial_world(2));
  std::int32_t stray = 0;
  const auto result = world.run([&stray](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.registry().add(&stray, sizeof stray);
      return;
    }
    RegisteredBuffer<std::int32_t> buf(mpi.registry(), 1, 0);
    mpi.recv(buf.data(), 1, kInt32, 0, 3);
  });
  ASSERT_TRUE(result.event.has_value());
  EXPECT_EQ(result.event->type, EventType::Timeout);
  EXPECT_EQ(result.leaked_regions, 1u);
  EXPECT_EQ(world.state().registry(1).region_count(), 1u);
}

TEST(World, RngStreamFirstSeededInARankSurvivesTheNextTrialWorld) {
  // A stream no other test seeds: its engine-cache entry is first made
  // here, inside a rank fiber of a trial world.
  constexpr std::uint64_t kSeed = 0xa4e7a;
  std::uint64_t draw = 0;
  std::thread([&draw] {
    draw = RngStream(kSeed, "arena-escape", 0).uniform_u64(0, ~0ull);
  }).join();
  {
    World world(trial_world(1));
    world.run([&draw](Mpi&) {
      EXPECT_EQ(RngStream(kSeed, "arena-escape", 0).uniform_u64(0, ~0ull),
                draw);
    });
  }
  // The next trial world carves its arena in the same order, so blocks of
  // the cache entry's size land where an arena-allocated entry would
  // have been. A cached engine there would be reseeded over them.
  World world(trial_world(1));
  const auto result = world.run([&draw](Mpi&) {
    std::array<std::vector<unsigned char>, 16> blocks;
    for (auto& block : blocks) block.assign(2520, 0x5a);
    EXPECT_EQ(RngStream(kSeed, "arena-escape", 0).uniform_u64(0, ~0ull),
              draw);
    for (const auto& block : blocks) {
      for (unsigned char byte : block) ASSERT_EQ(byte, 0x5a);
    }
  });
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(RngStream(kSeed, "arena-escape", 0).uniform_u64(0, ~0ull), draw);
}

TEST(World, RanksParkedInHandlersKeepTheirOwnException) {
  // Both ranks park inside a catch block, in interleaved order: each must
  // still see its own exception when it resumes, and end its own catch.
  World world(small_world(2));
  std::array<std::string, 2> seen;
  const auto result = world.run([&seen](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> buf(mpi.registry(), 1, 0);
    const int peer = 1 - mpi.rank();
    try {
      throw std::runtime_error("rank " + std::to_string(mpi.rank()));
    } catch (const std::runtime_error&) {
      if (mpi.rank() == 1) mpi.send(buf.data(), 1, kInt32, peer, 1);
      mpi.recv(buf.data(), 1, kInt32, peer, 1);
      if (mpi.rank() == 0) mpi.send(buf.data(), 1, kInt32, peer, 1);
      try {
        std::rethrow_exception(std::current_exception());
      } catch (const std::runtime_error& again) {
        seen[static_cast<std::size_t>(mpi.rank())] = again.what();
      }
    }
    EXPECT_EQ(std::uncaught_exceptions(), 0);
  });
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(seen[0], "rank 0");
  EXPECT_EQ(seen[1], "rank 1");
}

}  // namespace
}  // namespace fastfit::mpi
