#include "minimpi/mailbox.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "minimpi/fiber.hpp"
#include "support/error.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

std::chrono::steady_clock::time_point soon(std::chrono::milliseconds d) {
  return std::chrono::steady_clock::now() + d;
}

Message make_msg(int source, std::uint64_t tag, std::size_t bytes = 0) {
  Message m;
  m.source = source;
  m.tag = tag;
  m.payload.resize(bytes);
  return m;
}

// Runs `body` as the single fiber of a scheduler that owns `box`'s wakes,
// the way a World runs a rank: a receive that has to wait parks the fiber,
// and while it is parked the idle handler waits for a cross-thread wake
// or the deadline, then resumes it (the world's watchdog fallback).
void run_as_rank(Mailbox& box, std::chrono::steady_clock::time_point deadline,
                 const std::function<void()>& body) {
  FiberScheduler sched(1);
  box.set_fiber_waker(&sched, 0);
  sched.run([&body](int) { body(); },
            [&sched, deadline] {
              if (sched.wait_for_ready(deadline)) return;
              for (int r : sched.blocked()) sched.make_ready(r);
            });
  box.set_fiber_waker(nullptr, -1);
}

TEST(Mailbox, DeliverThenReceive) {
  PoisonState poison;
  Mailbox box(poison);
  box.deliver(make_msg(3, 42, 16));
  const auto m = box.receive(3, 42, soon(100ms));
  EXPECT_EQ(m.source, 3);
  EXPECT_EQ(m.tag, 42u);
  EXPECT_EQ(m.payload.size(), 16u);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, MatchingIsBySourceAndTag) {
  PoisonState poison;
  Mailbox box(poison);
  box.deliver(make_msg(1, 10));
  box.deliver(make_msg(2, 10));
  box.deliver(make_msg(1, 20));
  const auto m = box.receive(1, 20, soon(100ms));
  EXPECT_EQ(m.source, 1);
  EXPECT_EQ(m.tag, 20u);
  EXPECT_EQ(box.pending(), 2u);  // non-matching stay queued
}

TEST(Mailbox, FifoAmongSameSourceAndTag) {
  PoisonState poison;
  Mailbox box(poison);
  box.deliver(make_msg(1, 5, 1));
  box.deliver(make_msg(1, 5, 2));
  EXPECT_EQ(box.receive(1, 5, soon(100ms)).payload.size(), 1u);
  EXPECT_EQ(box.receive(1, 5, soon(100ms)).payload.size(), 2u);
}

TEST(Mailbox, TimeoutRaisesSimTimeout) {
  PoisonState poison;
  Mailbox box(poison);
  const auto deadline = soon(20ms);
  run_as_rank(box, deadline, [&] {
    EXPECT_THROW(box.receive(0, 1, deadline), SimTimeout);
  });
}

TEST(Mailbox, WaitOutsideAFiberIsAnInternalError) {
  // Only a World's ranks can park; a plain thread has nothing to yield to.
  PoisonState poison;
  Mailbox box(poison);
  EXPECT_THROW(box.receive(0, 1, soon(100ms)), InternalError);
}

TEST(Mailbox, CrossThreadDelivery) {
  PoisonState poison;
  Mailbox box(poison);
  std::thread producer([&] {
    std::this_thread::sleep_for(10ms);
    box.deliver(make_msg(7, 99, 8));
  });
  const auto deadline = soon(2000ms);
  run_as_rank(box, deadline, [&] {
    const auto m = box.receive(7, 99, deadline);
    EXPECT_EQ(m.source, 7);
  });
  producer.join();
}

TEST(Mailbox, PoisonWakesWaiterWithWorldAborted) {
  PoisonState poison;
  Mailbox box(poison);
  std::thread killer([&] {
    std::this_thread::sleep_for(10ms);
    poison.poison();
    box.wake();
  });
  const auto deadline = soon(5000ms);
  const auto start = std::chrono::steady_clock::now();
  run_as_rank(box, deadline, [&] {
    EXPECT_THROW(box.receive(0, 1, deadline), WorldAborted);
  });
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2500ms);
  killer.join();
}

TEST(Mailbox, PoisonedBeforeWaitThrowsImmediately) {
  PoisonState poison;
  poison.poison();
  Mailbox box(poison);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(box.receive(0, 1, soon(5000ms)), WorldAborted);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1000ms);
}

TEST(Mailbox, HasMatchIsExactOnSourceAndTag) {
  PoisonState poison;
  Mailbox box(poison);
  EXPECT_FALSE(box.has_match(1, 10));
  box.deliver(make_msg(1, 10));
  EXPECT_TRUE(box.has_match(1, 10));
  EXPECT_FALSE(box.has_match(1, 11));
  EXPECT_FALSE(box.has_match(2, 10));
  (void)box.receive(1, 10, soon(100ms));
  EXPECT_FALSE(box.has_match(1, 10));
}

TEST(Mailbox, WakeCannotSlipBetweenPoisonCheckAndWait) {
  // Lost-wakeup race on the one wait path: another thread's poison + wake
  // (make_ready) lands anywhere in the waiter's receive — before its
  // poison check, between the check and block_current, or after the park.
  // The scheduler's pending-wake latch must turn every interleaving into
  // a prompt WorldAborted; a lost wake would park the fiber until the 10 s
  // deadline. Runs under TSan in CI.
  for (int i = 0; i < 200; ++i) {
    PoisonState poison;
    Mailbox box(poison);
    const auto deadline = soon(10000ms);
    const auto start = std::chrono::steady_clock::now();
    std::thread waker([&] {
      poison.poison();
      box.wake();
    });
    run_as_rank(box, deadline, [&] {
      EXPECT_THROW(box.receive(0, 1, deadline), WorldAborted);
    });
    waker.join();
    EXPECT_LT(std::chrono::steady_clock::now() - start, 5000ms);
  }
}

}  // namespace
}  // namespace fastfit::mpi
