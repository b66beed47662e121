// Staged-pipeline parity: the runtime-selectable pruning chain must
// reproduce the pre-pipeline enumerate_points() byte for byte. The
// reference below is an inlined copy of the retired monolithic
// enumerate_impl (one loop nest doing semantic + context pruning in
// place), kept here as the oracle the composable passes are checked
// against on every registered workload.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <tuple>

#include "apps/registry.hpp"
#include "core/enumerate.hpp"
#include "profile/queries.hpp"

namespace fastfit::core {
namespace {

using namespace std::chrono_literals;

// --- The pre-refactor oracle ------------------------------------------

std::string ref_short_location(const profile::SiteProfile& site) {
  std::string name = site.file;
  if (const auto slash = name.rfind('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  return name + ":" + std::to_string(site.line);
}

Enumeration reference_enumerate(const profile::Profiler& profiler,
                                bool context_pruning) {
  Enumeration out;
  out.stats.nranks = profiler.nranks();
  for (int r = 0; r < profiler.nranks(); ++r) {
    for (const auto& [site_id, site] : profiler.rank(r).sites) {
      out.stats.total_points +=
          site.invocations.size() * mpi::injectable_params(site.kind).size();
    }
  }
  out.classes = trace::equivalence_classes(profiler.contexts());
  out.stats.equivalence_classes = out.classes.size();
  for (const auto& cls : out.classes) {
    const int rep = cls.representative();
    for (const auto& [site_id, site] : profiler.rank(rep).sites) {
      out.stats.after_semantic +=
          site.invocations.size() * mpi::injectable_params(site.kind).size();
    }
  }
  for (const auto& cls : out.classes) {
    const int rep = cls.representative();
    for (const auto& [site_id, site] : profiler.rank(rep).sites) {
      const auto representatives = context_pruning
                                       ? profile::stack_representatives(site.invocations)
                                       : site.invocations;
      const auto params = mpi::injectable_params(site.kind);
      const auto n_inv = profile::n_invocations(site.invocations);
      const auto depth = profile::mean_stack_depth(site.invocations);
      const auto n_stacks = profile::n_distinct_stacks(site.invocations);
      for (const auto& inv : representatives) {
        for (mpi::Param param : params) {
          InjectionPoint point;
          point.site_id = site_id;
          point.kind = site.kind;
          point.site_location = ref_short_location(site);
          point.rank = rep;
          point.invocation = inv.invocation;
          point.param = param;
          point.stack = inv.stack;
          point.phase = inv.phase;
          point.errhal = inv.errhal;
          point.n_inv = n_inv;
          point.stack_depth = depth;
          point.n_diff_stack = n_stacks;
          out.points.push_back(point);
        }
      }
    }
  }
  out.stats.after_context = out.points.size();
  return out;
}

// --- Comparison helpers -----------------------------------------------

std::string point_repr(const InjectionPoint& p) {
  std::ostringstream os;
  os << p.site_id << '|' << static_cast<int>(p.kind) << '|'
     << p.site_location << '|' << p.rank << '|' << p.invocation << '|'
     << static_cast<int>(p.param) << '|' << p.stack << '|'
     << static_cast<int>(p.phase) << '|' << p.errhal << '|' << p.n_inv << '|'
     << p.stack_depth << '|' << p.n_diff_stack;
  return os.str();
}

void expect_identical(const Enumeration& got, const Enumeration& want,
                      const std::string& label) {
  EXPECT_EQ(got.stats, want.stats) << label;
  ASSERT_EQ(got.classes.size(), want.classes.size()) << label;
  for (std::size_t i = 0; i < got.classes.size(); ++i) {
    EXPECT_EQ(got.classes[i].ranks, want.classes[i].ranks)
        << label << " class " << i;
  }
  ASSERT_EQ(got.points.size(), want.points.size()) << label;
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    EXPECT_EQ(point_repr(got.points[i]), point_repr(want.points[i]))
        << label << " point " << i;
  }
}

struct ProfiledRun {
  trace::ContextRegistry contexts;
  profile::Profiler profiler;
  explicit ProfiledRun(const std::string& name, int nranks = 8)
      : contexts(nranks), profiler(contexts) {
    const auto workload = apps::make_workload(name);
    mpi::WorldOptions opts;
    opts.nranks = nranks;
    opts.watchdog = 20000ms;
    const auto job = apps::run_job(*workload, opts, &profiler, contexts);
    EXPECT_TRUE(job.world.clean()) << name;
  }
};

// --- The parity pins ---------------------------------------------------

TEST(Pipeline, DefaultChainMatchesPreRefactorEnumerationOnAllWorkloads) {
  for (const auto& name : apps::workload_names()) {
    ProfiledRun run(name);
    const auto want = reference_enumerate(run.profiler, true);
    expect_identical(enumerate_points(run.profiler), want,
                     name + " (enumerate_points)");
    const std::string chain[] = {"semantic", "context"};
    expect_identical(enumerate_with_passes(run.profiler, chain), want,
                     name + " (explicit chain)");
  }
}

TEST(Pipeline, SemanticOnlyEqualsChainWithoutContextPass) {
  for (const auto& name : apps::workload_names()) {
    ProfiledRun run(name);
    const auto want = reference_enumerate(run.profiler, false);
    expect_identical(enumerate_points_semantic_only(run.profiler), want,
                     name + " (semantic only)");
    const std::string chain[] = {"semantic"};
    expect_identical(enumerate_with_passes(run.profiler, chain), want,
                     name + " (semantic chain)");
  }
}

TEST(Pipeline, PassesAreReorderable) {
  // context-then-semantic keeps the same surviving set (context pruning
  // is per (rank, site), independent of which ranks survive), though the
  // intermediate after_semantic accounting naturally differs.
  ProfiledRun run("LU");
  const auto forward =
      enumerate_with_passes(run.profiler,
                            std::vector<std::string>{"semantic", "context"});
  const auto reversed =
      enumerate_with_passes(run.profiler,
                            std::vector<std::string>{"context", "semantic"});
  std::multiset<std::string> a, b;
  for (const auto& p : forward.points) a.insert(point_repr(p));
  for (const auto& p : reversed.points) b.insert(point_repr(p));
  EXPECT_EQ(a, b);
  EXPECT_EQ(forward.stats.after_context, reversed.stats.after_context);
}

TEST(Pipeline, PassesAreRepeatable) {
  // Structural passes are idempotent: applying one twice changes nothing.
  ProfiledRun run("CG");
  const auto once = enumerate_points(run.profiler);
  const auto twice = enumerate_with_passes(
      run.profiler,
      std::vector<std::string>{"semantic", "semantic", "context", "context"});
  ASSERT_EQ(once.points.size(), twice.points.size());
  for (std::size_t i = 0; i < once.points.size(); ++i) {
    EXPECT_EQ(point_repr(once.points[i]), point_repr(twice.points[i]));
  }
}

TEST(Pipeline, UnknownPassIsRejected) {
  EXPECT_THROW(parse_pass_list("wat"), ConfigError);
  ProfiledRun run("EP");
  EXPECT_THROW(enumerate_with_passes(run.profiler,
                                     std::vector<std::string>{"wat"}),
               ConfigError);
}

TEST(Pipeline, MeasuringPassIsRejectedAtEnumerationTime) {
  // "ml" resolves points by running trials; it may only run under a
  // study driver that supplies a measurer.
  ProfiledRun run("EP");
  EXPECT_THROW(
      enumerate_with_passes(run.profiler,
                            std::vector<std::string>{"semantic", "ml"}),
      ConfigError);
}

TEST(Pipeline, ParsePassList) {
  EXPECT_EQ(parse_pass_list("semantic,context,ml"),
            (PassChain{{"semantic", "context"}, true}));
  EXPECT_EQ(parse_pass_list("context"), (PassChain{{"context"}, false}));
  EXPECT_EQ(parse_pass_list("ml"), (PassChain{{}, true}));
  EXPECT_THROW(parse_pass_list(""), ConfigError);
  EXPECT_THROW(parse_pass_list("semantic,,context"), ConfigError);
  EXPECT_THROW(parse_pass_list("semantic,nope"), ConfigError);
  // "ml" runs trials on whatever the structural passes leave, so it
  // may only end the chain.
  EXPECT_THROW(parse_pass_list("semantic,ml,context"), ConfigError);
  EXPECT_THROW(parse_pass_list("ml,ml"), ConfigError);
}

}  // namespace
}  // namespace fastfit::core
