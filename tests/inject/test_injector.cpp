// Injector targeting and outcome classification.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <set>
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

std::uint32_t discover_site_id(
    int nranks,
    const std::function<void(mpi::Mpi&)>& rank_main = AllreduceLoop{}) {
  // Run once with a recording hook to learn the site id of `rank_main`'s
  // (last) collective call site.
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
  world.run(rank_main);
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

// The invocation at which `injector` fires in a 20-call AllreduceLoop, or
// -1 when it never fires.
int fired_at(Injector& injector) {
  class FireLog : public mpi::ToolHooks {
   public:
    explicit FireLog(Injector& inner) : inner_(&inner) {}
    void on_enter(mpi::CollectiveCall& call, mpi::Mpi& mpi) override {
      const bool before = inner_->fired();
      inner_->on_enter(call, mpi);
      if (!before && inner_->fired()) at = static_cast<int>(call.invocation);
    }
    void on_exit(const mpi::CollectiveCall& call, mpi::Mpi& mpi) override {
      inner_->on_exit(call, mpi);
    }
    int at = -1;

   private:
    Injector* inner_;
  } log(injector);
  mpi::World world(opts(2));
  world.set_tools(&log);
  world.run([](mpi::Mpi& mpi) { AllreduceLoop{20}(mpi); });
  return log.at;
}

TEST(Injector, ProbabilisticTriggerFiresOnTheSameCallAfterBindTrial) {
  // A fork-at-cut template binds each trial after construction; the
  // trigger stream it re-seeds must draw as if the trial had been built
  // with that ordinal.
  FaultSpec spec;
  spec.site_id = discover_site_id(2);
  spec.rank = 0;
  spec.param = mpi::Param::SendBuf;
  spec.fault = FaultModelSpec::parse("single-bit-flip@prob=0.2");
  std::set<int> seen;
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    spec.trial = trial;
    Injector built(spec, 42);
    spec.trial = 99;
    Injector bound(spec, 42);
    bound.bind_trial(trial);
    const int at = fired_at(built);
    EXPECT_EQ(fired_at(bound), at) << "trial " << trial;
    seen.insert(at);
  }
  EXPECT_GT(seen.size(), 2u);  // the draws differ from trial to trial
}

// One allreduce of four doubles on two ranks, whose buffers live outside
// the world: after the run their addresses stand in for the write spans
// a replay world would offer the injector at the cut.
struct VouchRig {
  std::array<std::array<double, 4>, 2> send{};
  std::array<std::array<double, 4>, 2> recv{};

  void operator()(mpi::Mpi& mpi) {
    const auto r = static_cast<std::size_t>(mpi.world_rank());
    send[r].fill(1.0);
    recv[r].fill(0.0);
    mpi::ScopedRegistration keep_send(mpi.registry(), send[r].data(),
                                      sizeof send[r]);
    mpi::ScopedRegistration keep_recv(mpi.registry(), recv[r].data(),
                                      sizeof recv[r]);
    mpi.allreduce(send[r].data(), recv[r].data(), 4, mpi::kDouble,
                  mpi::kSum);
  }

  // Fires `spec` (on rank 0, at the allreduce) and returns the injector.
  std::unique_ptr<Injector> fire(FaultSpec spec) {
    auto injector = std::make_unique<Injector>(spec, 42);
    mpi::World world(opts(2));
    world.set_tools(injector.get());
    world.run([this](mpi::Mpi& mpi) { (*this)(mpi); });
    return injector;
  }
};

TEST(Injector, VouchesOnlyForMutationsTheCutOverwrote) {
  VouchRig rig;
  const auto site = discover_site_id(2, [&rig](mpi::Mpi& mpi) { rig(mpi); });
  ASSERT_NE(site, 0u);
  FaultSpec spec;
  spec.site_id = site;
  spec.rank = 0;
  spec.invocation = 0;

  const mpi::WriteSpan recv0{rig.recv[0].data(), sizeof rig.recv[0]};
  const mpi::WriteSpan send0{rig.send[0].data(), sizeof rig.send[0]};
  const mpi::WriteSpan head{rig.recv[0].data(), 2 * sizeof(double)};
  const mpi::WriteSpan tail{rig.recv[0].data() + 2, 2 * sizeof(double)};
  using Spans = std::vector<mpi::WriteSpan>;

  // A rank the fault never touches is always vouched for; the injected
  // rank is not until its exact trigger has fired.
  spec.param = mpi::Param::RecvBuf;
  const Injector unfired(spec, 42);
  EXPECT_TRUE(unfired.vouches_at_cut(1, Spans{}));
  EXPECT_FALSE(unfired.vouches_at_cut(0, Spans{recv0}));

  // A receive-buffer flip is vouched for only when the spans cover its
  // whole range, together if need be.
  auto recvbuf = rig.fire(spec);
  ASSERT_TRUE(recvbuf->fired());
  ASSERT_FALSE(recvbuf->fizzled());
  EXPECT_TRUE(recvbuf->vouches_at_cut(0, Spans{recv0}));
  EXPECT_TRUE(recvbuf->vouches_at_cut(0, Spans{tail, head}));
  EXPECT_FALSE(recvbuf->vouches_at_cut(0, Spans{head}));
  EXPECT_FALSE(recvbuf->vouches_at_cut(0, Spans{send0}));
  EXPECT_FALSE(recvbuf->vouches_at_cut(0, Spans{}));
  EXPECT_TRUE(recvbuf->vouches_at_cut(1, Spans{}));

  // A send-buffer flip lies outside an allreduce's output.
  spec.param = mpi::Param::SendBuf;
  auto sendbuf = rig.fire(spec);
  ASSERT_TRUE(sendbuf->fired());
  EXPECT_FALSE(sendbuf->vouches_at_cut(0, Spans{recv0}));
  EXPECT_TRUE(sendbuf->vouches_at_cut(0, Spans{recv0, send0}));

  // Scalar faults never qualify, whatever the spans cover.
  for (const auto param : {mpi::Param::Count, mpi::Param::Datatype,
                           mpi::Param::Op, mpi::Param::Comm}) {
    spec.param = param;
    auto scalar = rig.fire(spec);
    ASSERT_TRUE(scalar->fired()) << mpi::to_string(param);
    ASSERT_FALSE(scalar->fizzled()) << mpi::to_string(param);
    EXPECT_FALSE(scalar->vouches_at_cut(0, Spans{recv0, send0}))
        << mpi::to_string(param);
  }

  // A fault that fizzled mutated nothing: stuck-at-zero on an all-zero
  // receive buffer.
  spec.param = mpi::Param::RecvBuf;
  spec.fault = FaultModelSpec::parse("stuck-at-zero");
  auto fizzled = rig.fire(spec);
  ASSERT_TRUE(fizzled->fizzled());
  EXPECT_TRUE(fizzled->vouches_at_cut(0, Spans{}));

  // Only an exact-trigger parameter fault qualifies: any other trigger
  // could have fired in the prefix or fire again in the suffix, and a
  // message fault lands in transport state.
  for (const char* model : {"single-bit-flip@nth=1", "message-corrupt"}) {
    spec.fault = FaultModelSpec::parse(model);
    auto other = rig.fire(spec);
    ASSERT_TRUE(other->fired()) << model;
    EXPECT_FALSE(other->vouches_at_cut(0, Spans{recv0, send0})) << model;
    EXPECT_TRUE(other->vouches_at_cut(1, Spans{})) << model;
  }
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

  // A reconverged world stopped at the cut: its digest is meaningless.
  mpi::WorldResult reconverged;
  reconverged.reconverged = true;
  EXPECT_EQ(classify(reconverged, 5, 6), Outcome::Success);

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
