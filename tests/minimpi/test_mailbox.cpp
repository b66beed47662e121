#include "minimpi/mailbox.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

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

// Runs `bodies[i]` as fiber i of a scheduler that routes `box`'s wakes to
// fiber 0, the way a World runs its ranks: fiber 0 owns the mailbox, and
// a receive that has to wait parks it until another fiber's delivery or
// wake resumes it. With nothing left to run, the idle handler sleeps to
// `deadline` and resumes every parked fiber, so a wait nobody satisfies
// ends in its deadline check.
void run_as_ranks(Mailbox& box, std::chrono::steady_clock::time_point deadline,
                  const std::vector<std::function<void()>>& bodies) {
  FiberScheduler sched(static_cast<int>(bodies.size()));
  box.set_fiber_waker(&sched, 0);
  sched.run([&bodies](int i) { bodies[static_cast<std::size_t>(i)](); },
            [&sched, deadline] {
              std::this_thread::sleep_until(deadline);
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

TEST(Mailbox, EraseFromTheMiddleKeepsArrivalOrderPerSourceAndTag) {
  // The payload size numbers the deliveries.
  PoisonState poison;
  Mailbox box(poison);
  const std::pair<int, std::uint64_t> order[] = {
      {1, 5}, {2, 5}, {1, 6}, {1, 5}, {2, 5}, {1, 6}, {1, 5}};
  for (std::size_t i = 0; i < std::size(order); ++i) {
    box.deliver(make_msg(order[i].first, order[i].second, i));
  }
  EXPECT_EQ(box.receive(1, 6, soon(100ms)).payload.size(), 2u);
  EXPECT_EQ(box.receive(2, 5, soon(100ms)).payload.size(), 1u);
  EXPECT_EQ(box.pending(), 5u);
  EXPECT_EQ(box.receive(1, 5, soon(100ms)).payload.size(), 0u);
  EXPECT_EQ(box.receive(1, 5, soon(100ms)).payload.size(), 3u);
  EXPECT_TRUE(box.has_match(1, 6));
  EXPECT_EQ(box.receive(1, 6, soon(100ms)).payload.size(), 5u);
  EXPECT_FALSE(box.has_match(1, 6));
  EXPECT_EQ(box.receive(2, 5, soon(100ms)).payload.size(), 4u);
  EXPECT_EQ(box.receive(1, 5, soon(100ms)).payload.size(), 6u);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, TimeoutRaisesSimTimeout) {
  PoisonState poison;
  Mailbox box(poison);
  const auto deadline = soon(20ms);
  run_as_ranks(box, deadline, {[&] {
                 EXPECT_THROW(box.receive(0, 1, deadline), SimTimeout);
               }});
}

TEST(Mailbox, WaitOutsideAFiberIsAnInternalError) {
  // Only a World's ranks can park; a plain thread has nothing to yield to.
  PoisonState poison;
  Mailbox box(poison);
  EXPECT_THROW(box.receive(0, 1, soon(100ms)), InternalError);
}

TEST(Mailbox, DeliveryFromAnotherFiberResumesTheWaiter) {
  // Fiber 0 parks in the receive; fiber 1's delivery resumes it.
  PoisonState poison;
  Mailbox box(poison);
  const auto deadline = soon(2000ms);
  bool received = false;
  run_as_ranks(box, deadline,
               {[&] {
                  const auto m = box.receive(7, 99, deadline);
                  EXPECT_EQ(m.source, 7);
                  EXPECT_EQ(m.payload.size(), 8u);
                  received = true;
                },
                [&] {
                  EXPECT_FALSE(received);  // fiber 0 is parked
                  box.deliver(make_msg(7, 99, 8));
                }});
  EXPECT_TRUE(received);
}

TEST(Mailbox, WakeFromAnotherThreadIsAnInternalError) {
  // A world is single-threaded: while its ranks run, a wake made by any
  // other thread is rejected instead of racing the scheduler.
  PoisonState poison;
  Mailbox box(poison);
  std::exception_ptr error;
  run_as_ranks(box, soon(2000ms), {[&] {
                 std::thread([&] {
                   try {
                     box.wake();
                   } catch (...) {
                     error = std::current_exception();
                   }
                 }).join();
               }});
  ASSERT_TRUE(error);
  EXPECT_THROW(std::rethrow_exception(error), InternalError);
}

TEST(Mailbox, PoisonWakesWaiterWithWorldAborted) {
  // Fiber 1 poisons the world and wakes parked fiber 0, which must raise
  // WorldAborted at once instead of sleeping to its 5 s deadline.
  PoisonState poison;
  Mailbox box(poison);
  const auto deadline = soon(5000ms);
  const auto start = std::chrono::steady_clock::now();
  run_as_ranks(box, deadline,
               {[&] { EXPECT_THROW(box.receive(0, 1, deadline), WorldAborted); },
                [&] {
                  poison.poison();
                  box.wake();
                }});
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2500ms);
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

}  // namespace
}  // namespace fastfit::mpi
