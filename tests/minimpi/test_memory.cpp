#include "minimpi/memory.hpp"

#include <gtest/gtest.h>

#include <array>
#include <utility>

#include "support/error.hpp"

namespace fastfit::mpi {
namespace {

TEST(Memory, CoversRegisteredRange) {
  MemoryRegistry reg;
  std::array<double, 16> buf{};
  reg.add(buf.data(), sizeof(buf));
  EXPECT_TRUE(reg.covers(buf.data(), sizeof(buf)));
  EXPECT_TRUE(reg.covers(buf.data() + 4, 8 * sizeof(double)));
  EXPECT_NO_THROW(reg.check(buf.data(), sizeof(buf)));
  reg.remove(buf.data());
}

TEST(Memory, OverrunRaisesSimSegFault) {
  MemoryRegistry reg;
  std::array<double, 16> buf{};
  reg.add(buf.data(), sizeof(buf));
  EXPECT_THROW(reg.check(buf.data(), sizeof(buf) + 1), SimSegFault);
  EXPECT_THROW(reg.check(buf.data() + 8, 9 * sizeof(double)), SimSegFault);
  reg.remove(buf.data());
}

TEST(Memory, UnregisteredPointerFaults) {
  MemoryRegistry reg;
  int x = 0;
  EXPECT_FALSE(reg.covers(&x, sizeof(x)));
  EXPECT_THROW(reg.check(&x, sizeof(x)), SimSegFault);
}

TEST(Memory, ZeroByteAccessAlwaysAllowed) {
  MemoryRegistry reg;
  EXPECT_TRUE(reg.covers(nullptr, 0));
  EXPECT_NO_THROW(reg.check(nullptr, 0));
  int x = 0;
  EXPECT_NO_THROW(reg.check(&x, 0));
}

TEST(Memory, NullWithBytesFaults) {
  MemoryRegistry reg;
  EXPECT_THROW(reg.check(nullptr, 8), SimSegFault);
}

TEST(Memory, RemoveUnknownIsInternalError) {
  MemoryRegistry reg;
  int x = 0;
  EXPECT_THROW(reg.remove(&x), InternalError);
}

TEST(Memory, OverlappingRegistrationRejected) {
  MemoryRegistry reg;
  std::array<char, 64> buf{};
  reg.add(buf.data(), 64);
  EXPECT_THROW(reg.add(buf.data() + 8, 8), InternalError);
  EXPECT_THROW(reg.add(buf.data(), 64), InternalError);
  reg.remove(buf.data());
  EXPECT_NO_THROW(reg.add(buf.data() + 8, 8));
  reg.remove(buf.data() + 8);
}

TEST(MemoryRegistry, OutOfOrderAddsAndMiddleRemovalsKeepEveryRegion) {
  MemoryRegistry reg;
  std::array<char, 1000> buf{};
  char* const p = buf.data();
  // (offset, bytes), registered out of address order.
  const std::pair<int, int> regions[] = {
      {500, 100}, {100, 100}, {800, 50}, {300, 100}, {0, 50}, {650, 100}};
  for (const auto& [at, bytes] : regions) reg.add(p + at, bytes);
  EXPECT_EQ(reg.region_count(), 6u);
  for (const auto& [at, bytes] : regions) {
    EXPECT_TRUE(reg.covers(p + at, bytes)) << at;
    EXPECT_FALSE(reg.covers(p + at, bytes + 1)) << at;
    EXPECT_FALSE(reg.covers(p + at - 1, 2)) << at;
  }
  // Overlaps with a predecessor, a successor, both, or an exact copy.
  EXPECT_THROW(reg.add(p + 40, 20), InternalError);
  EXPECT_THROW(reg.add(p + 250, 60), InternalError);
  EXPECT_THROW(reg.add(p + 150, 400), InternalError);
  EXPECT_THROW(reg.add(p + 300, 100), InternalError);
  EXPECT_THROW(reg.add(p + 310, 10), InternalError);
  EXPECT_EQ(reg.region_count(), 6u);
  // Gaps still take new regions.
  EXPECT_NO_THROW(reg.add(p + 200, 100));
  EXPECT_NO_THROW(reg.add(p + 950, 50));

  reg.remove(p + 300);
  reg.remove(p + 650);
  EXPECT_FALSE(reg.covers(p + 300, 1));
  EXPECT_FALSE(reg.covers(p + 700, 1));
  EXPECT_TRUE(reg.covers(p + 200, 100));
  EXPECT_TRUE(reg.covers(p + 500, 100));
  EXPECT_TRUE(reg.covers(p + 800, 50));
  // Only an exact base removes; an interior pointer or a gone region is
  // unknown.
  EXPECT_THROW(reg.remove(p + 510), InternalError);
  EXPECT_THROW(reg.remove(p + 300), InternalError);
  EXPECT_NO_THROW(reg.add(p + 300, 200));
  EXPECT_EQ(reg.region_count(), 7u);
  for (int at : {0, 100, 200, 300, 500, 800, 950}) reg.remove(p + at);
  EXPECT_EQ(reg.region_count(), 0u);
}

TEST(Memory, AdjacentRegionsDoNotMerge) {
  // A transfer spanning two separately registered buffers is still a
  // violation: real allocators give no such contiguity guarantee.
  MemoryRegistry reg;
  std::array<char, 32> buf{};
  reg.add(buf.data(), 16);
  reg.add(buf.data() + 16, 16);
  EXPECT_TRUE(reg.covers(buf.data(), 16));
  EXPECT_TRUE(reg.covers(buf.data() + 16, 16));
  EXPECT_FALSE(reg.covers(buf.data(), 32));
  reg.remove(buf.data());
  reg.remove(buf.data() + 16);
}

TEST(Memory, SimSegFaultMessageNamesTheAccess) {
  MemoryRegistry reg;
  int x = 0;
  try {
    reg.check(&x, 4, "bcast receive buffer");
    FAIL();
  } catch (const SimSegFault& e) {
    EXPECT_NE(std::string(e.what()).find("bcast receive buffer"),
              std::string::npos);
  }
}

TEST(Memory, RegisteredBufferRaii) {
  MemoryRegistry reg;
  {
    RegisteredBuffer<double> buf(reg, 8, 1.5);
    EXPECT_EQ(reg.region_count(), 1u);
    EXPECT_EQ(buf.size(), 8u);
    EXPECT_DOUBLE_EQ(buf[3], 1.5);
    EXPECT_TRUE(reg.covers(buf.data(), 8 * sizeof(double)));
  }
  EXPECT_EQ(reg.region_count(), 0u);
}

TEST(Memory, RegionCount) {
  MemoryRegistry reg;
  RegisteredBuffer<int> a(reg, 4);
  RegisteredBuffer<int> b(reg, 4);
  EXPECT_EQ(reg.region_count(), 2u);
}

}  // namespace
}  // namespace fastfit::mpi
