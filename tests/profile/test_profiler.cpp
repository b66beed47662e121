// Profiler integration: the mpiP/Callgrind/backtrace stand-ins must record
// what the pruning layers and ML features consume.

#include <gtest/gtest.h>

#include "minimpi/mpi.hpp"
#include "profile/profiler.hpp"
#include "profile/queries.hpp"

namespace fastfit::profile {
namespace {

using namespace std::chrono_literals;

mpi::WorldOptions opts(int n) {
  mpi::WorldOptions o;
  o.nranks = n;
  o.watchdog = 5000ms;
  return o;
}

TEST(Profiler, RecordsSitesInvocationsAndKinds) {
  trace::ContextRegistry contexts(4);
  Profiler profiler(contexts);
  mpi::World world(opts(4));
  world.set_tools(&profiler);
  world.run([&](mpi::Mpi& mpi) {
    auto& ctx = contexts.of(mpi.world_rank());
    for (int i = 0; i < 5; ++i) {
      trace::FunctionScope scope(ctx, "step");
      mpi::RegisteredBuffer<double> buf(mpi.registry(), 4, 1.0);
      mpi.allreduce(buf.data(), buf.data(), 4, mpi::kDouble, mpi::kSum);
    }
    mpi.barrier();
  });

  for (int r = 0; r < 4; ++r) {
    const auto& prof = profiler.rank(r);
    ASSERT_EQ(prof.sites.size(), 2u);
    bool saw_allreduce = false;
    bool saw_barrier = false;
    for (const auto& [id, site] : prof.sites) {
      if (site.kind == mpi::CollectiveKind::Allreduce) {
        saw_allreduce = true;
        EXPECT_EQ(n_invocations(site.invocations), 5u);
        EXPECT_EQ(n_distinct_stacks(site.invocations), 1u);
        EXPECT_DOUBLE_EQ(mean_stack_depth(site.invocations), 1.0);
        EXPECT_EQ(site.invocations.front().bytes, 32u);
      } else {
        saw_barrier = true;
        EXPECT_EQ(site.kind, mpi::CollectiveKind::Barrier);
        EXPECT_EQ(n_invocations(site.invocations), 1u);
      }
    }
    EXPECT_TRUE(saw_allreduce);
    EXPECT_TRUE(saw_barrier);
  }
}

TEST(Profiler, DistinctStacksSeparateRepresentatives) {
  trace::ContextRegistry contexts(2);
  Profiler profiler(contexts);
  mpi::World world(opts(2));
  world.set_tools(&profiler);
  world.run([&](mpi::Mpi& mpi) {
    auto& ctx = contexts.of(mpi.world_rank());
    mpi::RegisteredBuffer<double> buf(mpi.registry(), 1, 1.0);
    const auto call = [&] {
      // One call site (this lambda body), reached from two stacks.
      mpi.allreduce(buf.data(), buf.data(), 1, mpi::kDouble, mpi::kSum);
    };
    {
      trace::FunctionScope a(ctx, "path_a");
      call();
      call();
    }
    {
      trace::FunctionScope b(ctx, "path_b");
      call();
    }
  });
  const auto& prof = profiler.rank(0);
  ASSERT_EQ(prof.sites.size(), 1u);
  const auto& site = prof.sites.begin()->second;
  EXPECT_EQ(n_invocations(site.invocations), 3u);
  EXPECT_EQ(n_distinct_stacks(site.invocations), 2u);
  const auto reps = stack_representatives(site.invocations);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0].invocation, 0u);
  EXPECT_EQ(reps[1].invocation, 2u);
}

TEST(Profiler, PhaseAndErrHalSnapshots) {
  trace::ContextRegistry contexts(2);
  Profiler profiler(contexts);
  mpi::World world(opts(2));
  world.set_tools(&profiler);
  world.run([&](mpi::Mpi& mpi) {
    auto& ctx = contexts.of(mpi.world_rank());
    mpi::RegisteredBuffer<double> buf(mpi.registry(), 1, 1.0);
    ctx.set_phase(trace::ExecPhase::Compute);
    mpi.allreduce(buf.data(), buf.data(), 1, mpi::kDouble, mpi::kSum);
    {
      trace::ErrorHandlingScope errhal(ctx);
      mpi.allreduce(buf.data(), buf.data(), 1, mpi::kDouble, mpi::kMax);
    }
  });
  const auto& prof = profiler.rank(1);
  ASSERT_EQ(prof.sites.size(), 2u);
  int errhal_count = 0;
  for (const auto& [id, site] : prof.sites) {
    EXPECT_EQ(site.invocations.front().phase, trace::ExecPhase::Compute);
    if (site.invocations.front().errhal) ++errhal_count;
  }
  EXPECT_EQ(errhal_count, 1);
}

TEST(Profiler, RootednessRecorded) {
  trace::ContextRegistry contexts(4);
  Profiler profiler(contexts);
  mpi::World world(opts(4));
  world.set_tools(&profiler);
  world.run([&](mpi::Mpi& mpi) {
    mpi::RegisteredBuffer<double> s(mpi.registry(), 1, 1.0);
    mpi::RegisteredBuffer<double> d(mpi.registry(), 1);
    mpi.reduce(s.data(), d.data(), 1, mpi::kDouble, mpi::kSum, 2);
  });
  for (int r = 0; r < 4; ++r) {
    const auto& site = profiler.rank(r).sites.begin()->second;
    EXPECT_EQ(site.is_root_here, r == 2);
    ASSERT_EQ(contexts.of(r).comm_trace().size(), 1u);
    EXPECT_EQ(contexts.of(r).comm_trace().events()[0].is_root, r == 2);
  }
}

TEST(Profiler, MpipReportListsSites) {
  trace::ContextRegistry contexts(2);
  Profiler profiler(contexts);
  mpi::World world(opts(2));
  world.set_tools(&profiler);
  world.run([&](mpi::Mpi& mpi) {
    mpi::RegisteredBuffer<double> buf(mpi.registry(), 2, 1.0);
    mpi.allreduce(buf.data(), buf.data(), 2, mpi::kDouble, mpi::kSum);
    mpi.barrier();
  });
  const auto report = mpip_report(profiler);
  EXPECT_NE(report.find("MPI_Allreduce"), std::string::npos);
  EXPECT_NE(report.find("MPI_Barrier"), std::string::npos);
  EXPECT_NE(report.find("test_profiler.cpp"), std::string::npos);
}

}  // namespace
}  // namespace fastfit::profile
