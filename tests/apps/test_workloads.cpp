// Fault-free workload validation: every bundled workload must run cleanly,
// deterministically, and with the annotations the pruning layers rely on.

#include <gtest/gtest.h>

#include <limits>

#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "profile/profiler.hpp"
#include "profile/queries.hpp"
#include "trace/similarity.hpp"

namespace fastfit::apps {
namespace {

using namespace std::chrono_literals;

mpi::WorldOptions opts(int n) {
  mpi::WorldOptions o;
  o.nranks = n;
  o.watchdog = 20000ms;
  o.seed = 1234;
  return o;
}

class WorkloadSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSweep, RunsCleanAt8Ranks) {
  const auto workload = make_workload(GetParam());
  trace::ContextRegistry contexts(8);
  const auto result = run_job(*workload, opts(8), nullptr, contexts);
  ASSERT_TRUE(result.world.clean())
      << result.world.event->message;
  EXPECT_NE(result.digest, 0u);
}

TEST_P(WorkloadSweep, RunsCleanAt32Ranks) {
  const auto workload = make_workload(GetParam());
  trace::ContextRegistry contexts(32);
  const auto result = run_job(*workload, opts(32), nullptr, contexts);
  ASSERT_TRUE(result.world.clean()) << result.world.event->message;
  EXPECT_NE(result.digest, 0u);
}

TEST_P(WorkloadSweep, DigestIsDeterministic) {
  const auto workload = make_workload(GetParam());
  trace::ContextRegistry c1(8), c2(8);
  const auto r1 = run_job(*workload, opts(8), nullptr, c1);
  const auto r2 = run_job(*workload, opts(8), nullptr, c2);
  ASSERT_TRUE(r1.world.clean());
  ASSERT_TRUE(r2.world.clean());
  EXPECT_EQ(r1.digest, r2.digest);
}

TEST_P(WorkloadSweep, DigestDependsOnInput) {
  const auto workload = make_workload(GetParam());
  trace::ContextRegistry c1(8), c2(8);
  auto o1 = opts(8);
  auto o2 = opts(8);
  o2.seed = 999;
  const auto r1 = run_job(*workload, o1, nullptr, c1);
  const auto r2 = run_job(*workload, o2, nullptr, c2);
  ASSERT_TRUE(r1.world.clean());
  ASSERT_TRUE(r2.world.clean());
  EXPECT_NE(r1.digest, r2.digest);
}

TEST_P(WorkloadSweep, ProfilesWithAnnotations) {
  const auto workload = make_workload(GetParam());
  trace::ContextRegistry contexts(8);
  profile::Profiler profiler(contexts);
  const auto result = run_job(*workload, opts(8), &profiler, contexts);
  ASSERT_TRUE(result.world.clean()) << result.world.event->message;

  // Every rank must have profiled at least one collective site with a
  // stack deeper than main, and the call graph must not be empty.
  for (int r = 0; r < 8; ++r) {
    const auto& prof = profiler.rank(r);
    ASSERT_FALSE(prof.sites.empty()) << "rank " << r;
    bool any_depth = false;
    for (const auto& [id, site] : prof.sites) {
      EXPECT_GT(profile::n_invocations(site.invocations), 0u);
      if (profile::mean_stack_depth(site.invocations) > 0) any_depth = true;
    }
    EXPECT_TRUE(any_depth);
    EXPECT_GT(contexts.of(r).graph().edge_count(), 0u);
    EXPECT_GT(contexts.of(r).comm_trace().size(), 0u);
  }
}

TEST_P(WorkloadSweep, EquivalenceClassesAreFew) {
  // SPMD kernels must collapse to a handful of classes (the semantic
  // pruning premise); root-role asymmetry allows a few extra classes.
  const auto workload = make_workload(GetParam());
  trace::ContextRegistry contexts(16);
  profile::Profiler profiler(contexts);
  const auto result = run_job(*workload, opts(16), &profiler, contexts);
  ASSERT_TRUE(result.world.clean());
  const auto classes = trace::equivalence_classes(contexts);
  EXPECT_GE(classes.size(), 1u);
  EXPECT_LE(classes.size(), 4u) << "pruning premise violated";
  // Classes partition the ranks.
  std::size_t members = 0;
  for (const auto& cls : classes) members += cls.ranks.size();
  EXPECT_EQ(members, 16u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSweep,
                         ::testing::Values("IS", "FT", "MG", "LU", "CG", "EP",
                                           "miniMD"),
                         [](const auto& info) { return info.param; });

TEST(WorkloadRegistry, KnowsAllNamesAndRejectsUnknown) {
  for (const auto& name : workload_names()) {
    EXPECT_EQ(make_workload(name)->name(), name);
  }
  EXPECT_EQ(make_workload("LAMMPS")->name(), "miniMD");
  EXPECT_THROW(make_workload("BT"), ConfigError);
}

TEST(WorkloadDigests, CombineOrderSensitive) {
  EXPECT_NE(combine_digests({1, 2}), combine_digests({2, 1}));
  EXPECT_EQ(combine_digests({1, 2}), combine_digests({1, 2}));
}

TEST(WorkloadDigests, DoubleQuantization) {
  const std::vector<double> a{1.23456, 7.0};
  const std::vector<double> b{1.23457, 7.0};  // differs at 1e-5
  EXPECT_EQ(digest_doubles(a, 3), digest_doubles(b, 3));
  EXPECT_NE(digest_doubles(a, 6), digest_doubles(b, 6));
}

TEST(WorkloadDigests, NonFiniteValuesNeverAliasFinite) {
  const std::vector<double> nan_v{std::numeric_limits<double>::quiet_NaN()};
  const std::vector<double> zero{0.0};
  const std::vector<double> inf_v{std::numeric_limits<double>::infinity()};
  EXPECT_NE(digest_doubles(nan_v, 2), digest_doubles(zero, 2));
  EXPECT_NE(digest_doubles(inf_v, 2), digest_doubles(zero, 2));
  EXPECT_NE(digest_doubles(inf_v, 2), digest_doubles(nan_v, 2));
}

TEST(WorkloadDigests, NegativeZeroFoldsOntoZero) {
  const std::vector<double> neg{-0.0};
  const std::vector<double> pos{0.0};
  EXPECT_EQ(digest_doubles(neg, 2), digest_doubles(pos, 2));
}

TEST(WorkloadMiniMD, ErrHalFractionIsHigh) {
  // The paper: >40% of LAMMPS' MPI_Allreduce calls are error handling.
  const auto workload = make_workload("miniMD");
  trace::ContextRegistry contexts(8);
  profile::Profiler profiler(contexts);
  ASSERT_TRUE(run_job(*workload, opts(8), &profiler, contexts).world.clean());
  EXPECT_GT(profile::errhal_fraction(profiler, mpi::CollectiveKind::Allreduce),
            0.40);
}

TEST(WorkloadMiniMD, AllreduceDominatesTheMix) {
  // The paper: >84% of LAMMPS' collectives are MPI_Allreduce.
  const auto workload = make_workload("miniMD");
  trace::ContextRegistry contexts(8);
  profile::Profiler profiler(contexts);
  ASSERT_TRUE(run_job(*workload, opts(8), &profiler, contexts).world.clean());
  EXPECT_GT(profile::collective_fraction(profiler,
                                         mpi::CollectiveKind::Allreduce),
            0.5);
}

TEST(WorkloadFT, RootRankFormsItsOwnClass) {
  // FT's MPI_Reduce gives rank 0 a distinct communication trace — the
  // asymmetry Fig 2 of the paper builds on.
  const auto workload = make_workload("FT");
  trace::ContextRegistry contexts(8);
  profile::Profiler profiler(contexts);
  ASSERT_TRUE(run_job(*workload, opts(8), &profiler, contexts).world.clean());
  const auto classes = trace::equivalence_classes(contexts);
  ASSERT_GE(classes.size(), 2u);
  EXPECT_EQ(classes.front().ranks.size(), 1u);
  EXPECT_EQ(classes.front().representative(), 0);
}

// Two ranks that each wait, inside nested frames, for a message the other
// never sends: a deterministic deadlock.
class CrossedReceives : public Workload {
 public:
  std::string name() const override { return "crossed-receives"; }
  std::uint64_t run_rank(AppContext& ctx) const override {
    trace::FunctionScope outer(ctx.trace, "solve");
    const int peer = 1 - ctx.mpi.rank();
    mpi::RegisteredBuffer<std::int32_t> buf(ctx.mpi.registry(), 1, 0);
    if (ctx.mpi.rank() == 0) {
      trace::FunctionScope inner(ctx.trace, "halo_exchange");
      ctx.mpi.recv(buf.data(), 1, mpi::kInt32, peer, 7);
    } else {
      trace::FunctionScope inner(ctx.trace, "residual_norm");
      ctx.mpi.recv(buf.data(), 1, mpi::kInt32, peer, 9);
    }
    return 1;
  }
};

TEST(RunJob, PendingOpNamesItsFrameAfterTheFrameHasClosed) {
  // The signature is published at op entry; the autopsy is read after
  // both ranks unwound out of their frames, so it must hold the frame as
  // it was then, not look at the stack now.
  trace::ContextRegistry contexts(2);
  const auto result = run_job(CrossedReceives(), opts(2), nullptr, contexts);
  ASSERT_FALSE(result.world.clean());
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(contexts.of(r).stack().depth(), 0u);
  }
  ASSERT_TRUE(result.world.autopsy.has_value());
  const auto& ranks = result.world.autopsy->ranks;
  ASSERT_EQ(ranks.size(), 2u);
  ASSERT_TRUE(ranks[0].has_op);
  ASSERT_TRUE(ranks[1].has_op);
  EXPECT_EQ(ranks[0].sig.frame, "halo_exchange");
  EXPECT_EQ(ranks[1].sig.frame, "residual_norm");
  EXPECT_NE(ranks[0].sig.describe().find(" in halo_exchange"),
            std::string::npos)
      << ranks[0].sig.describe();
  EXPECT_NE(ranks[1].sig.describe().find(" in residual_norm"),
            std::string::npos)
      << ranks[1].sig.describe();
}

}  // namespace
}  // namespace fastfit::apps
