// Injector targeting and outcome classification.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "inject/injector.hpp"
#include "inject/outcome.hpp"
#include "minimpi/mpi.hpp"

namespace fastfit::inject {
namespace {

using namespace std::chrono_literals;

mpi::WorldOptions opts(int n) {
  mpi::WorldOptions o;
  o.nranks = n;
  o.watchdog = 2000ms;
  return o;
}

// A rank main with one allreduce site invoked `reps` times; records the
// recv value of the target rank per invocation.
struct AllreduceLoop {
  int reps = 3;
  void operator()(mpi::Mpi& mpi) const {
    mpi::RegisteredBuffer<double> send(mpi.registry(), 4, 1.0);
    mpi::RegisteredBuffer<double> recv(mpi.registry(), 4);
    for (int i = 0; i < reps; ++i) {
      mpi.allreduce(send.data(), recv.data(), 4, mpi::kDouble, mpi::kSum);
    }
  }
};

std::uint32_t discover_site_id(int nranks) {
  // Run once with a recording hook to learn the site id of the loop above.
  class Recorder : public mpi::ToolHooks {
   public:
    void on_enter(mpi::CollectiveCall& call, mpi::Mpi&) override {
      site.store(call.site_id);
    }
    void on_exit(const mpi::CollectiveCall&, mpi::Mpi&) override {}
    std::atomic<std::uint32_t> site{0};
  } recorder;
  mpi::World world(opts(nranks));
  world.set_tools(&recorder);
  world.run([](mpi::Mpi& mpi) { AllreduceLoop{}(mpi); });
  return recorder.site.load();
}

TEST(Injector, FiresOnlyOnTargetCoordinates) {
  const auto site = discover_site_id(2);
  ASSERT_NE(site, 0u);

  FaultSpec spec;
  spec.site_id = site;
  spec.rank = 1;
  spec.invocation = 2;
  spec.param = mpi::Param::Count;
  spec.trial = 0;

  Injector injector(spec, /*seed=*/42);
  mpi::World world(opts(2));
  world.set_tools(&injector);
  world.run([](mpi::Mpi& mpi) { AllreduceLoop{}(mpi); });
  EXPECT_TRUE(injector.fired());
}

TEST(Injector, DoesNotFireOnWrongSite) {
  FaultSpec spec;
  spec.site_id = 0xDEADBEEF;  // no such site
  spec.rank = 0;
  spec.invocation = 0;
  spec.param = mpi::Param::Count;

  Injector injector(spec, 42);
  mpi::World world(opts(2));
  world.set_tools(&injector);
  const auto result = world.run([](mpi::Mpi& mpi) { AllreduceLoop{}(mpi); });
  EXPECT_TRUE(result.clean());
  EXPECT_FALSE(injector.fired());
}

TEST(Injector, DoesNotFireBeyondLastInvocation) {
  const auto site = discover_site_id(2);
  FaultSpec spec;
  spec.site_id = site;
  spec.rank = 0;
  spec.invocation = 99;  // loop only runs 3 invocations
  spec.param = mpi::Param::Count;

  Injector injector(spec, 42);
  mpi::World world(opts(2));
  world.set_tools(&injector);
  const auto result = world.run([](mpi::Mpi& mpi) { AllreduceLoop{}(mpi); });
  EXPECT_TRUE(result.clean());
  EXPECT_FALSE(injector.fired());
}

TEST(Injector, FiresAtMostOnce) {
  const auto site = discover_site_id(2);
  FaultSpec spec;
  spec.site_id = site;
  spec.rank = 0;
  spec.invocation = 0;
  spec.param = mpi::Param::SendBuf;  // harmless corruption

  Injector injector(spec, 42);
  mpi::World world(opts(2));
  world.set_tools(&injector);
  world.run([](mpi::Mpi& mpi) { AllreduceLoop{}(mpi); });
  EXPECT_TRUE(injector.fired());
  EXPECT_FALSE(injector.fizzled());
}

TEST(Injector, DutyCycleFiresRepeatedlyOnTheSameBit) {
  const auto site = discover_site_id(2);
  ASSERT_NE(site, 0u);

  FaultSpec spec;
  spec.site_id = site;
  spec.rank = 0;
  spec.invocation = 0;  // ignored: the duty trigger counts calls, not points
  spec.param = mpi::Param::SendBuf;
  spec.fault = FaultModelSpec::parse("single-bit-flip@duty=1/2");

  Injector injector(spec, 42);
  mpi::World world(opts(2));
  world.set_tools(&injector);
  // The same manifestation stream re-fires on calls 0 and 2 (duty 1/2),
  // flipping the same send-buffer bit each time: the corruption appears,
  // survives the quiet call, then self-cancels on the second fire.
  std::array<bool, 4> diffs{};
  world.run([&diffs](mpi::Mpi& mpi) {
    mpi::RegisteredBuffer<double> send(mpi.registry(), 4, 1.0);
    mpi::RegisteredBuffer<double> recv(mpi.registry(), 4);
    const std::vector<double> pristine(send.data(), send.data() + 4);
    for (int i = 0; i < 4; ++i) {
      mpi.allreduce(send.data(), recv.data(), 4, mpi::kDouble, mpi::kSum);
      if (mpi.world_rank() == 0) {
        diffs[static_cast<std::size_t>(i)] =
            !std::equal(pristine.begin(), pristine.end(), send.data());
      }
    }
  });
  EXPECT_TRUE(injector.fired());
  EXPECT_FALSE(injector.fizzled());
  EXPECT_TRUE(diffs[0]);   // first fire flips the bit
  EXPECT_TRUE(diffs[1]);   // quiet call leaves it corrupted
  EXPECT_FALSE(diffs[2]);  // second fire hits the SAME bit: flips it back
  EXPECT_FALSE(diffs[3]);
}

TEST(Injector, SpecDescribeMentionsCoordinates) {
  FaultSpec spec;
  spec.site_id = 0xAB;
  spec.rank = 7;
  spec.invocation = 3;
  spec.param = mpi::Param::Op;
  spec.trial = 11;
  const auto text = spec.describe();
  EXPECT_NE(text.find("rank=7"), std::string::npos);
  EXPECT_NE(text.find("inv=3"), std::string::npos);
  EXPECT_NE(text.find("op"), std::string::npos);
}

TEST(Outcome, ClassificationTable) {
  mpi::WorldResult clean;
  EXPECT_EQ(classify(clean, 5, 5), Outcome::Success);
  EXPECT_EQ(classify(clean, 5, 6), Outcome::WrongAns);

  mpi::WorldResult failed;
  failed.event = mpi::CapturedEvent{mpi::EventType::AppDetected, 0, "x", {}};
  EXPECT_EQ(classify(failed, 5, 5), Outcome::AppDetected);
  failed.event->type = mpi::EventType::MpiErr;
  EXPECT_EQ(classify(failed, 5, 5), Outcome::MpiErr);
  failed.event->type = mpi::EventType::SegFault;
  EXPECT_EQ(classify(failed, 5, 5), Outcome::SegFault);
  failed.event->type = mpi::EventType::Timeout;
  EXPECT_EQ(classify(failed, 5, 5), Outcome::InfLoop);
}

TEST(Outcome, ErrorPredicateMatchesPaper) {
  EXPECT_FALSE(is_error(Outcome::Success));
  for (auto o : {Outcome::AppDetected, Outcome::MpiErr, Outcome::SegFault,
                 Outcome::WrongAns, Outcome::InfLoop}) {
    EXPECT_TRUE(is_error(o));
  }
}

TEST(Outcome, NamesMatchTableOne) {
  const auto& names = outcome_names();
  ASSERT_EQ(names.size(), kNumOutcomes);
  EXPECT_EQ(names[0], "SUCCESS");
  EXPECT_EQ(names[1], "APP_DETECTED");
  EXPECT_EQ(names[2], "MPI_ERR");
  EXPECT_EQ(names[3], "SEG_FAULT");
  EXPECT_EQ(names[4], "WRONG_ANS");
  EXPECT_EQ(names[5], "INF_LOOP");
}

}  // namespace
}  // namespace fastfit::inject
