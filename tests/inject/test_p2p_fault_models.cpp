// Point-to-point corruption under every fault model.

#include <gtest/gtest.h>

#include "inject/corrupt.hpp"
#include "minimpi/mpi.hpp"

namespace fastfit::inject {
namespace {

using namespace std::chrono_literals;

template <typename Body>
void with_p2p_call(Body body) {
  mpi::WorldOptions o;
  o.nranks = 2;
  o.watchdog = 2000ms;
  mpi::World world(o);
  world.run([&](mpi::Mpi& mpi) {
    if (mpi.world_rank() != 0) return;
    mpi::RegisteredBuffer<double> buf(mpi.registry(), 8, 2.0);
    mpi::P2pCall call;
    call.kind = mpi::P2pKind::Send;
    call.buffer = buf.data();
    call.count = 8;
    call.datatype = mpi::kDouble;
    call.peer = 1;
    call.tag = 4;
    call.comm = mpi::kCommWorld;
    body(call, mpi, buf);
  });
}

class P2pModelSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(P2pModelSweep, BufferMutationStaysInsideBuffer) {
  const auto model = static_cast<FaultModel>(GetParam());
  with_p2p_call([model](mpi::P2pCall& call, mpi::Mpi& mpi,
                        mpi::RegisteredBuffer<double>& buf) {
    std::vector<double> before(buf.begin(), buf.end());
    RngStream rng(17, "p2p-fm", GetParam());
    const bool changed =
        corrupt_p2p_parameter(call, mpi::P2pParam::Buffer, model, rng, mpi);
    int diffs = 0;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (before[i] != buf[i]) ++diffs;
    }
    if (changed) {
      EXPECT_GE(diffs, 1);
      EXPECT_LE(diffs, 2);  // double-bit may straddle two doubles
    } else {
      EXPECT_EQ(diffs, 0);
    }
  });
}

TEST_P(P2pModelSweep, ScalarParamsMutateOrReportNoOp) {
  const auto model = static_cast<FaultModel>(GetParam());
  with_p2p_call([model](mpi::P2pCall& call, mpi::Mpi& mpi,
                        mpi::RegisteredBuffer<double>&) {
    for (auto param : {mpi::P2pParam::Count, mpi::P2pParam::Datatype,
                       mpi::P2pParam::Peer, mpi::P2pParam::Tag}) {
      auto copy = call;
      RngStream rng(29, "p2p-fm2", GetParam());
      const bool changed =
          corrupt_p2p_parameter(copy, param, model, rng, mpi);
      const bool actually_different =
          copy.count != call.count || copy.datatype != call.datatype ||
          copy.peer != call.peer || copy.tag != call.tag;
      EXPECT_EQ(changed, actually_different)
          << to_string(model) << " " << mpi::to_string(param);
    }
  });
}

// Parameter-mutation models only (indices 0-4): a p2p fault mutates
// call parameters in place, which the message/fail-stop manifestations
// never do.
INSTANTIATE_TEST_SUITE_P(AllModels, P2pModelSweep,
                         ::testing::Range<std::size_t>(0, 5),
                         [](const auto& info) {
                           std::string name =
                               to_string(static_cast<FaultModel>(info.param));
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(P2pCorrupt, NullBufferFizzles) {
  with_p2p_call([](mpi::P2pCall& call, mpi::Mpi& mpi,
                   mpi::RegisteredBuffer<double>&) {
    call.buffer = nullptr;
    RngStream rng(1, "x");
    EXPECT_FALSE(corrupt_p2p_parameter(call, mpi::P2pParam::Buffer,
                                       FaultModel::SingleBitFlip, rng, mpi));
  });
}

TEST(P2pCorrupt, InvalidDatatypeBufferFizzles) {
  // A buffer fault cannot be sized when the datatype is already garbage.
  with_p2p_call([](mpi::P2pCall& call, mpi::Mpi& mpi,
                   mpi::RegisteredBuffer<double>&) {
    call.datatype = static_cast<mpi::Datatype>(0xDEAD);
    RngStream rng(2, "x");
    EXPECT_FALSE(corrupt_p2p_parameter(call, mpi::P2pParam::Buffer,
                                       FaultModel::SingleBitFlip, rng, mpi));
  });
}

}  // namespace
}  // namespace fastfit::inject
