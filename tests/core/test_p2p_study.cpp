// Point-to-point injection (the future-work extension): send and receive
// sites enumerated, pruned and measured as ordinary campaign points.

#include <gtest/gtest.h>

#include <cstring>

#include "apps/registry.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "inject/injector.hpp"
#include "minimpi/mpi.hpp"
#include "support/error.hpp"

namespace fastfit::core {
namespace {

using namespace std::chrono_literals;

CampaignOptions small_options() {
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 6;
  opts.seed = 404;
  return opts;
}

std::vector<std::array<std::uint32_t, inject::kNumOutcomes>> counts_of(
    const std::vector<PointResult>& results) {
  std::vector<std::array<std::uint32_t, inject::kNumOutcomes>> out;
  for (const auto& r : results) out.push_back(r.counts);
  return out;
}

/// LU's first p2p points (every parameter of its first invocations),
/// measured at `pool` lanes under `isolation`.
std::vector<PointResult> measure_lu_prefix(std::size_t pool,
                                           IsolationMode isolation) {
  const auto workload = apps::make_workload("LU");
  auto opts = small_options();
  opts.max_parallel_trials = pool;
  opts.isolation = isolation;
  Campaign campaign(*workload, opts);
  campaign.profile();
  const auto e = campaign.enumerate(mpi::SiteFamily::P2p);
  EXPECT_GE(e.points.size(), 15u);
  const std::span<const InjectionPoint> prefix(
      e.points.data(), std::min<std::size_t>(e.points.size(), 15));
  auto results = campaign.measure_many(prefix, 3);
  EXPECT_TRUE(campaign.health().clean());
  return results;
}

TEST(P2pStudy, ProfilerRecordsP2pSites) {
  // MG and LU use halo-exchange sends/receives.
  const auto workload = apps::make_workload("MG");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  bool any = false;
  for (int r = 0; r < 8; ++r) {
    any = any || !campaign.profiler().rank(r).p2p_sites.empty();
  }
  EXPECT_TRUE(any);
}

TEST(P2pStudy, EnumerationPrunesLikeCollectives) {
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  const auto e = campaign.enumerate(mpi::SiteFamily::P2p);
  EXPECT_GT(e.stats.total_points, 0u);
  EXPECT_LE(e.stats.after_semantic, e.stats.total_points);
  EXPECT_LE(e.stats.after_context, e.stats.after_semantic);
  EXPECT_EQ(e.points.size(), e.stats.after_context);
  for (const auto& p : e.points) {
    EXPECT_EQ(p.family, mpi::SiteFamily::P2p);
    EXPECT_GT(p.n_inv, 0u);
    EXPECT_FALSE(p.site_location.empty());
  }
  // Site ids hash the family: no p2p point shares a collective site.
  for (const auto& c : campaign.enumeration().points) {
    EXPECT_EQ(c.family, mpi::SiteFamily::Collective);
    for (const auto& p : e.points) ASSERT_NE(c.site_id, p.site_id);
  }
}

TEST(P2pStudy, CollectiveOnlyWorkloadHasNoP2pPoints) {
  const auto workload = apps::make_workload("IS");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  const auto e = campaign.enumerate(mpi::SiteFamily::P2p);
  EXPECT_EQ(e.stats.total_points, 0u);
  EXPECT_TRUE(e.points.empty());
}

TEST(P2pStudy, BufferFaultsInHaloExchangeAreMostlyTolerated) {
  // A flipped bit in one halo value perturbs the stencil slightly; the
  // solver smooths it away or the residual check catches divergence.
  const auto workload = apps::make_workload("MG");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  const auto e = campaign.enumerate(mpi::SiteFamily::P2p);
  const auto it = std::find_if(
      e.points.begin(), e.points.end(), [](const InjectionPoint& p) {
        return p.p2p_param == mpi::P2pParam::Buffer;
      });
  ASSERT_NE(it, e.points.end());
  const auto result = campaign.measure(*it, 10);
  EXPECT_EQ(result.trials, 10u);
  // No MPI_ERR/SEG_FAULT from data corruption.
  EXPECT_EQ(result.fraction(inject::Outcome::MpiErr), 0.0);
  EXPECT_EQ(result.fraction(inject::Outcome::SegFault), 0.0);
}

TEST(P2pStudy, TagFaultsHangOrErrorTheJob) {
  // A corrupted tag either goes negative (MPI_ERR) or becomes a valid tag
  // nobody sends on (the receive starves: INF_LOOP).
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  const auto e = campaign.enumerate(mpi::SiteFamily::P2p);
  const auto it = std::find_if(
      e.points.begin(), e.points.end(), [](const InjectionPoint& p) {
        return p.p2p_param == mpi::P2pParam::Tag &&
               p.p2p_kind == mpi::P2pKind::Recv;
      });
  ASSERT_NE(it, e.points.end());
  const auto result = campaign.measure(*it, 8);
  EXPECT_GE(result.fraction(inject::Outcome::MpiErr) +
                result.fraction(inject::Outcome::InfLoop),
            0.99);
}

TEST(P2pStudy, DistributionHelperFilters) {
  std::vector<PointResult> results(2);
  results[0].point.family = mpi::SiteFamily::P2p;
  results[0].point.p2p_kind = mpi::P2pKind::Send;
  results[0].point.p2p_param = mpi::P2pParam::Buffer;
  results[0].record(inject::Outcome::Success);
  results[1].point.family = mpi::SiteFamily::P2p;
  results[1].point.p2p_kind = mpi::P2pKind::Recv;
  results[1].point.p2p_param = mpi::P2pParam::Tag;
  results[1].record(inject::Outcome::InfLoop);

  const auto all = outcome_distribution(results);
  EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(inject::Outcome::Success)],
                   0.5);
  const auto sends =
      outcome_distribution(results, [](const InjectionPoint& p) {
        return p.p2p_kind == mpi::P2pKind::Send;
      });
  EXPECT_DOUBLE_EQ(sends[static_cast<std::size_t>(inject::Outcome::Success)],
                   1.0);
  const auto tags = outcome_distribution(results, [](const InjectionPoint& p) {
    return p.p2p_param == mpi::P2pParam::Tag;
  });
  EXPECT_DOUBLE_EQ(tags[static_cast<std::size_t>(inject::Outcome::InfLoop)],
                   1.0);
}

TEST(P2pStudy, MeasurementIsDeterministic) {
  const auto workload = apps::make_workload("LU");
  Campaign c1(*workload, small_options());
  Campaign c2(*workload, small_options());
  c1.profile();
  c2.profile();
  const auto e = c1.enumerate(mpi::SiteFamily::P2p);
  ASSERT_FALSE(e.points.empty());
  const auto r1 = c1.measure(e.points.front(), 6);
  const auto r2 = c2.measure(e.points.front(), 6);
  EXPECT_EQ(r1.counts, r2.counts);
}

TEST(P2pStudy, PoolSizeDoesNotChangeResults) {
  const auto serial = measure_lu_prefix(1, IsolationMode::Thread);
  const auto pooled = measure_lu_prefix(4, IsolationMode::Thread);
  ASSERT_EQ(serial.size(), 15u);
  EXPECT_EQ(counts_of(serial), counts_of(pooled));
}

TEST(P2pStudy, ProcessIsolationMatchesThread) {
  const auto in_process = measure_lu_prefix(2, IsolationMode::Thread);
  const auto isolated = measure_lu_prefix(2, IsolationMode::Process);
  ASSERT_EQ(in_process.size(), 15u);
  EXPECT_EQ(counts_of(in_process), counts_of(isolated));
}

TEST(P2pStudy, NonParameterFaultModelIsRejectedWithFamilies) {
  // The CLI fails fast at parse time; measuring must give direct API
  // callers the same actionable message, naming the supported parameter
  // families.
  const auto workload = apps::make_workload("LU");
  auto opts = small_options();
  opts.fault_models = {inject::FaultModelSpec::parse("rank-death")};
  Campaign campaign(*workload, opts);
  campaign.profile();
  const auto e = campaign.enumerate(mpi::SiteFamily::P2p);
  ASSERT_FALSE(e.points.empty());
  try {
    campaign.measure(e.points.front(), 1);
    FAIL() << "rank-death must have no p2p manifestation";
  } catch (const ConfigError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("rank-death"), std::string::npos);
    EXPECT_NE(what.find("supported families"), std::string::npos);
    EXPECT_NE(what.find("single-bit-flip"), std::string::npos);
  }
  EXPECT_EQ(campaign.trials_run(), 0u);
}

TEST(P2pStudy, NonExactTriggerIsRejected) {
  const auto workload = apps::make_workload("LU");
  auto opts = small_options();
  opts.fault_models = {inject::FaultModelSpec::parse("single-bit-flip@nth=2")};
  Campaign campaign(*workload, opts);
  campaign.profile();
  const auto e = campaign.enumerate(mpi::SiteFamily::P2p);
  ASSERT_FALSE(e.points.empty());
  EXPECT_THROW(campaign.measure(e.points.front(), 1), ConfigError);
  EXPECT_EQ(campaign.trials_run(), 0u);
}

TEST(P2pStudy, BufferFaultDrawsFromTheP2pStream) {
  // Rank 0 sends a zeroed buffer; the injector flips one bit of it at the
  // send. The bit must be the one the ("p2p-bitflip", stream_index)
  // stream draws: the stream every p2p trial has always used.
  constexpr std::size_t kCount = 64;
  constexpr std::uint64_t kSeed = 2718;
  const auto main = [](std::vector<double>& received) {
    return [&received](mpi::Mpi& mpi) {
      mpi::RegisteredBuffer<double> buf(mpi.registry(), kCount, 0.0);
      if (mpi.rank() == 0) {
        mpi.send(buf.data(), static_cast<std::int32_t>(kCount), mpi::kDouble, 1,
                 9);
      } else if (mpi.rank() == 1) {
        mpi.recv(buf.data(), static_cast<std::int32_t>(kCount), mpi::kDouble, 0,
                 9);
        received.assign(buf.begin(), buf.end());
      }
    };
  };
  struct SendProbe final : mpi::ToolHooks {
    void on_enter(mpi::CollectiveCall&, mpi::Mpi&) override {}
    void on_exit(const mpi::CollectiveCall&, mpi::Mpi&) override {}
    void on_p2p(mpi::P2pCall& call, mpi::Mpi&) override {
      if (call.kind == mpi::P2pKind::Send) site = call.site_id;
    }
    std::uint32_t site = 0;
  } probe;
  mpi::WorldOptions wopts;
  wopts.nranks = 2;
  wopts.watchdog = 2000ms;
  std::vector<double> clean;
  {
    mpi::World world(wopts);
    world.set_tools(&probe);
    ASSERT_TRUE(world.run(main(clean)).clean());
  }
  ASSERT_NE(probe.site, 0u);

  InjectionPoint point;
  point.family = mpi::SiteFamily::P2p;
  point.site_id = probe.site;
  point.rank = 0;
  point.p2p_kind = mpi::P2pKind::Send;
  point.p2p_param = mpi::P2pParam::Buffer;
  const auto spec = point.fault_spec(3);
  inject::Injector injector(spec, kSeed);
  std::vector<double> received;
  {
    mpi::World world(wopts);
    world.set_tools(&injector);
    ASSERT_TRUE(world.run(main(received)).clean());
  }
  ASSERT_TRUE(injector.fired());
  ASSERT_FALSE(injector.fizzled());

  const auto expected_from = [&](const char* stream) {
    std::vector<double> expected(kCount, 0.0);
    RngStream rng(kSeed, stream, spec.stream_index());
    inject::mutate_bytes(std::as_writable_bytes(std::span(expected)),
                         inject::FaultModel::SingleBitFlip, rng);
    return expected;
  };
  const auto bytes_equal = [](const std::vector<double>& a,
                              const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  EXPECT_FALSE(bytes_equal(received, clean));
  EXPECT_TRUE(bytes_equal(received, expected_from("p2p-bitflip")));
  // The check discriminates: the collective stream flips another bit.
  EXPECT_FALSE(bytes_equal(received, expected_from("bitflip")));
}

TEST(P2pStudy, SpecDescribe) {
  InjectionPoint point;
  point.family = mpi::SiteFamily::P2p;
  point.rank = 3;
  point.p2p_param = mpi::P2pParam::Peer;
  point.fault = inject::FaultModelSpec::parse("double-bit-flip");
  const auto text = point.fault_spec(0).describe();
  EXPECT_NE(text.find("p2p-fault"), std::string::npos);
  EXPECT_NE(text.find("rank=3"), std::string::npos);
  EXPECT_NE(text.find("peer"), std::string::npos);
  EXPECT_NE(text.find("double-bit-flip"), std::string::npos);
}

}  // namespace
}  // namespace fastfit::core
