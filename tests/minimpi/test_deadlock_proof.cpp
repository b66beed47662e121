// Deterministic hang detection: injected divergences must be classified
// as deadlocks in milliseconds (no watchdog budget consumed), each with a
// world autopsy naming the divergence; genuine livelock still falls back
// to the watchdog; and a torn-down world leaves nothing behind.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "minimpi/mpi.hpp"
#include "minimpi/progress.hpp"
#include "minimpi/world.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

WorldOptions hang_world(int n) {
  WorldOptions opts;
  opts.nranks = n;
  // Deliberately generous: a detection that consumed the watchdog would
  // blow the elapsed-time assertions below.
  opts.watchdog = 10000ms;
  return opts;
}

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

RankSnapshot blocked_snap(const char* op, std::uint64_t comm,
                          std::uint32_t seq, int root, int wait_world) {
  RankSnapshot snap;
  snap.phase = RankPhase::Blocked;
  snap.has_op = true;
  snap.sig.op = op;
  snap.sig.comm = comm;
  snap.sig.seq = seq;
  snap.sig.root = root;
  snap.sig.wait_source = wait_world;
  snap.sig.wait_source_world = wait_world;
  return snap;
}

// --- analyze_deadlock: verdicts for the classic divergence shapes -------

TEST(DeadlockAnalysis, DivergentRoots) {
  std::vector<RankSnapshot> snaps{blocked_snap("MPI_Bcast", 1, 1, 0, 1),
                                  blocked_snap("MPI_Bcast", 1, 1, 2, 0)};
  const auto verdict = analyze_deadlock(snaps);
  EXPECT_NE(verdict.find("divergent roots"), std::string::npos) << verdict;
  EXPECT_NE(verdict.find("MPI_Bcast"), std::string::npos) << verdict;
}

TEST(DeadlockAnalysis, DivergentCommunicators) {
  std::vector<RankSnapshot> snaps{blocked_snap("MPI_Barrier", 1, 1, -1, 1),
                                  blocked_snap("MPI_Barrier", 7, 1, -1, 0)};
  EXPECT_NE(analyze_deadlock(snaps).find("divergent communicators"),
            std::string::npos);
}

TEST(DeadlockAnalysis, MismatchedSequenceNumbers) {
  std::vector<RankSnapshot> snaps{blocked_snap("MPI_Allreduce", 1, 3, -1, 1),
                                  blocked_snap("MPI_Allreduce", 1, 5, -1, 0)};
  const auto verdict = analyze_deadlock(snaps);
  EXPECT_NE(verdict.find("mismatched collective sequence"), std::string::npos)
      << verdict;
  EXPECT_NE(verdict.find("3..5"), std::string::npos) << verdict;
}

TEST(DeadlockAnalysis, MismatchedOperations) {
  std::vector<RankSnapshot> snaps{blocked_snap("MPI_Bcast", 1, 1, 0, 1),
                                  blocked_snap("MPI_Reduce", 1, 1, 0, 0)};
  EXPECT_NE(analyze_deadlock(snaps).find("mismatched operations"),
            std::string::npos);
}

TEST(DeadlockAnalysis, BlockedOnExitedPeerWinsOverOtherVerdicts) {
  // Divergent roots AND an exited peer: the exited peer is the proximate
  // cause and must be reported first.
  std::vector<RankSnapshot> snaps{blocked_snap("MPI_Bcast", 1, 1, 0, 1),
                                  RankSnapshot{}};
  snaps[1].phase = RankPhase::Exited;
  const auto verdict = analyze_deadlock(snaps);
  EXPECT_NE(verdict.find("already-exited peer"), std::string::npos) << verdict;
  EXPECT_NE(verdict.find("rank 0"), std::string::npos) << verdict;
}

TEST(DeadlockAnalysis, UnmatchedRendezvous) {
  std::vector<RankSnapshot> snaps{blocked_snap("MPI_Allreduce", 1, 1, -1, 1),
                                  blocked_snap("MPI_Allreduce", 1, 1, -1, 0)};
  EXPECT_NE(analyze_deadlock(snaps).find("unmatched rendezvous"),
            std::string::npos);
}

// --- end-to-end: injected divergences classified without the watchdog --

TEST(HangDetection, CorruptedRootIsDeterministicDeadlock) {
  World world(hang_world(4));
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = world.run([](Mpi& mpi) {
    // Rank 2 disagrees about the root: its binomial tree awaits a parent
    // that will never send.
    const std::int32_t root = mpi.world_rank() == 2 ? 1 : 0;
    (void)mpi.bcast_value<std::int32_t>(7, root);
  });
  EXPECT_LT(elapsed_ms(t0), 5000.0);  // 10s watchdog untouched
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
  ASSERT_TRUE(result.autopsy.has_value());
  EXPECT_TRUE(result.autopsy->deterministic);
  EXPECT_NE(result.event->message.find("deterministic deadlock"),
            std::string::npos)
      << result.event->message;
}

TEST(HangDetection, CorruptedCommIsDeterministicDeadlock) {
  World world(hang_world(4));
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = world.run([](Mpi& mpi) {
    // Same membership, different handle: rank 0 synchronizes on the split
    // communicator while everyone else uses the world — every barrier
    // message carries the wrong communicator tag for its receiver.
    const Comm sub = mpi.comm_split(kCommWorld, 0, mpi.world_rank());
    if (mpi.world_rank() == 0) {
      mpi.barrier(sub);
    } else {
      mpi.barrier();
    }
  });
  EXPECT_LT(elapsed_ms(t0), 5000.0);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
  ASSERT_TRUE(result.autopsy.has_value());
  EXPECT_TRUE(result.autopsy->deterministic);
  EXPECT_NE(result.autopsy->verdict.find("communicator"), std::string::npos)
      << result.autopsy->verdict;
}

TEST(HangDetection, MismatchedSequenceIsDeterministicDeadlock) {
  World world(hang_world(3));
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = world.run([](Mpi& mpi) {
    auto v = mpi.allreduce_value<std::int32_t>(1, kSum);
    // Rank 1 stops a collective early; the others enter a second round
    // that can never complete.
    if (mpi.world_rank() != 1) v = mpi.allreduce_value<std::int32_t>(v, kSum);
    (void)v;
  });
  EXPECT_LT(elapsed_ms(t0), 5000.0);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
  ASSERT_TRUE(result.autopsy.has_value());
  EXPECT_TRUE(result.autopsy->deterministic);
}

TEST(HangDetection, OneRankEarlyExitIsDeterministicDeadlock) {
  World world(hang_world(4));
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = world.run([](Mpi& mpi) {
    if (mpi.world_rank() == 0) return;  // never joins the collective
    (void)mpi.allreduce_value<std::int32_t>(1, kSum);
  });
  EXPECT_LT(elapsed_ms(t0), 5000.0);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
  ASSERT_TRUE(result.autopsy.has_value());
  EXPECT_TRUE(result.autopsy->deterministic);
  ASSERT_EQ(result.autopsy->ranks.size(), 4u);
  EXPECT_EQ(result.autopsy->ranks[0].phase, RankPhase::Exited);
  // Satellite: the SimTimeout message names the reporting rank and its
  // pending-operation signature.
  EXPECT_NE(result.event->message.find("MPI_Allreduce"), std::string::npos)
      << result.event->message;
  EXPECT_NE(result.event->message.find("blocked in"), std::string::npos)
      << result.event->message;
}

TEST(HangDetection, GenuineLivelockFallsBackToWatchdog) {
  WorldOptions opts = hang_world(2);
  opts.watchdog = 300ms;
  World world(opts);
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = world.run([](Mpi& mpi) {
    // Never enters a rendezvous: the scheduler never goes idle, so nothing
    // can be declared; only check_deadline() can end this.
    for (;;) {
      mpi.check_deadline();
      std::this_thread::sleep_for(1ms);
    }
  });
  EXPECT_GE(elapsed_ms(t0), 250.0);  // the watchdog budget was consumed
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
  ASSERT_TRUE(result.autopsy.has_value());
  EXPECT_FALSE(result.autopsy->deterministic);
}

TEST(HangDetection, SingleRankDeadlockIsProven) {
  // One rank receives from itself with nothing queued: nobody else can
  // ever send, so the world is quiescent and the deadlock is proven at
  // once, not after the 10 s watchdog.
  World world(hang_world(1));
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 1);
    mpi.recv(buf.data(), 1, kDouble, 0, 7);
  });
  EXPECT_LT(elapsed_ms(t0), 5000.0);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
  EXPECT_EQ(result.event->rank, 0);
  ASSERT_TRUE(result.autopsy.has_value());
  EXPECT_TRUE(result.autopsy->deterministic);
  ASSERT_EQ(result.autopsy->ranks.size(), 1u);
  EXPECT_EQ(result.autopsy->ranks[0].phase, RankPhase::Blocked);
}

// --- teardown audits -----------------------------------------------------

TEST(HangDetection, CleanRunAuditsZeroLeaks) {
  World world(hang_world(4));
  const auto result = world.run([](Mpi& mpi) {
    (void)mpi.allreduce_value<std::int32_t>(mpi.world_rank(), kSum);
  });
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.leaked_regions, 0u);
  EXPECT_EQ(result.undelivered_messages, 0u);
}

}  // namespace
}  // namespace fastfit::mpi
