// Process-isolated trial execution: the fork-server pool (core/procpool)
// and its campaign integration behind --isolation process.
//
// Unit tests drive ProcPool directly with synthetic trial functions
// (echo, contained error, raise(signo), sleep) to pin the wire protocol,
// the death taxonomy (SignalDeath / LeaseExpired / LaneFailure), lane
// respawn, one caller per lane, and the degradation ladder; synthetic
// templates pin the point server's lifecycle (lease kill, pool teardown,
// point switch, a template that never parks, a stopped zygote, a lost
// point server) and a real world parked at its cut pins the deadline
// rebase. Campaign-level tests require the process backend to be
// byte-identical to the thread backend for non-signal fault models
// (serial, pooled, and journal resume), fork at the cut to be
// byte-identical to --snapshots off for every manifestation family (and
// a pool of 4 to park about one point server per point), and genuine
// worker signal deaths to classify as SEG_FAULT — with the signal
// number and rusage in the journal's forensic field — without losing the
// campaign.
//
// Fixture names deliberately avoid the CI sanitizer-job regexes: these
// suites fork, which is the address-sanitizer job's surface (ProcPool|
// ProcessIsolation there), not the thread-sanitizer job's.

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "apps/registry.hpp"
#include "core/campaign.hpp"
#include "core/procpool.hpp"
#include "inject/fault_model.hpp"
#include "inject/injector.hpp"
#include "inject/outcome.hpp"
#include "minimpi/mpi.hpp"
#include "minimpi/world.hpp"
#include "support/error.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::core {
namespace {

namespace tel = fastfit::telemetry;

using procpool::TrialReply;
using procpool::WorkItem;

constexpr auto kSegFault = static_cast<std::size_t>(inject::Outcome::SegFault);

WorkItem sample_item() {
  WorkItem item;
  item.spec.site_id = 42;
  item.spec.rank = -3;  // negative ranks must survive the wire encoding
  item.spec.invocation = 7;
  item.spec.param = mpi::Param::Count;
  item.spec.family = mpi::SiteFamily::P2p;
  item.spec.p2p_param = mpi::P2pParam::Tag;
  item.spec.fault = inject::FaultModelSpec::parse("single-bit-flip@prob=0.25");
  item.spec.trial = 11;
  item.watchdog_ms = 1234;
  return item;
}

// ---------------------------------------------------------------------------
// ProcPool unit tests: synthetic trial functions, no campaign involved.
// ---------------------------------------------------------------------------

TEST(ProcPool, CompletedReplyRoundTripsEveryField) {
  ProcPool::Options opts;
  opts.lanes = 1;
  // The child echoes the decoded work item back through the autopsy, so
  // this also pins the WorkItem wire encoding end to end.
  ProcPool pool(opts, [](const WorkItem& item) {
    TrialReply reply;
    reply.ok = true;
    reply.forensics.outcome = inject::Outcome::WrongAns;
    reply.forensics.deterministic_hang = true;
    const inject::FaultSpec& spec = item.spec;
    std::ostringstream echo;
    echo << spec.site_id << '/' << spec.rank << '/' << spec.invocation << '/'
         << static_cast<int>(spec.family) << '/'
         << static_cast<int>(spec.param) << '/'
         << static_cast<int>(spec.p2p_param) << '/' << spec.fault.canonical()
         << '/' << spec.trial << '/' << item.watchdog_ms;
    reply.forensics.autopsy = echo.str();
    return reply;
  });

  const auto result = pool.run(sample_item(), std::chrono::seconds(30), 0);
  ASSERT_EQ(result.kind, ProcPool::Result::Kind::Completed);
  EXPECT_TRUE(result.reply.ok);
  EXPECT_EQ(result.reply.forensics.outcome, inject::Outcome::WrongAns);
  EXPECT_TRUE(result.reply.forensics.deterministic_hang);
  EXPECT_EQ(result.reply.forensics.autopsy, "42/-3/7/1/2/4/single-bit-flip@prob=0.25/11/1234");
  EXPECT_EQ(pool.stats().trials_dispatched, 1u);
  EXPECT_EQ(pool.stats().signal_deaths, 0u);
}

TEST(ProcPool, ContainedErrorTravelsThroughReply) {
  ProcPool::Options opts;
  opts.lanes = 1;
  ProcPool pool(opts, [](const WorkItem&) {
    TrialReply reply;
    reply.ok = false;
    reply.error = "synthetic contained failure";
    return reply;
  });
  const auto result = pool.run(sample_item(), std::chrono::seconds(30), 0);
  ASSERT_EQ(result.kind, ProcPool::Result::Kind::Completed);
  EXPECT_FALSE(result.reply.ok);
  EXPECT_EQ(result.reply.error, "synthetic contained failure");
}

TEST(ProcPool, SignalMatrixReportsSignalDeathWithRusage) {
  // One pool, four trials, each raising a different genuine signal in the
  // trial child; the supervisor must survive all of them and report the
  // exact signal number.
  ProcPool::Options opts;
  opts.lanes = 1;
  ProcPool pool(opts, [](const WorkItem& item) {
    // Default disposition, as the injector's signal models use: a handler
    // inherited from the test process (a sanitizer's) must not catch it.
    std::signal(static_cast<int>(item.spec.site_id), SIG_DFL);
    std::raise(static_cast<int>(item.spec.site_id));
    TrialReply reply;  // unreachable: the raise kills this child
    reply.ok = false;
    reply.error = "survived raise";
    return reply;
  });

  for (const int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
    WorkItem item = sample_item();
    item.spec.site_id = static_cast<std::uint32_t>(signo);
    const auto result = pool.run(item, std::chrono::seconds(30), 0);
    ASSERT_EQ(result.kind, ProcPool::Result::Kind::SignalDeath)
        << "signal " << signo;
    EXPECT_EQ(result.signal, signo);
  }
  EXPECT_EQ(pool.stats().signal_deaths, 4u);
  // A signal death is a datum, not a lane loss: the server survives, so
  // no respawns were needed.
  EXPECT_EQ(pool.stats().respawns, 0u);
  EXPECT_FALSE(pool.degraded());
}

TEST(ProcPool, LeaseExpiryKillsLaneAndRespawns) {
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 2;
  ProcPool pool(opts, [](const WorkItem& item) {
    if (item.spec.trial == 999) {  // the wedged trial: sleep past any lease
      std::this_thread::sleep_for(std::chrono::seconds(60));
    }
    TrialReply reply;
    reply.ok = true;
    reply.forensics.outcome = inject::Outcome::Success;
    return reply;
  });

  WorkItem wedged = sample_item();
  wedged.spec.trial = 999;
  const auto expired = pool.run(wedged, std::chrono::milliseconds(200), 0);
  ASSERT_EQ(expired.kind, ProcPool::Result::Kind::LeaseExpired);
  EXPECT_NE(expired.error.find("lease"), std::string::npos);
  EXPECT_EQ(pool.stats().lease_kills, 1u);

  // The lane respawns on next use and serves normally.
  const auto after = pool.run(sample_item(), std::chrono::seconds(30), 0);
  ASSERT_EQ(after.kind, ProcPool::Result::Kind::Completed);
  EXPECT_TRUE(after.reply.ok);
  EXPECT_EQ(pool.stats().respawns, 1u);
  EXPECT_FALSE(pool.degraded());
}

TEST(ProcPool, ServerKilledMidTrialIsLaneFailureThenRecovers) {
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 2;
  ProcPool pool(opts, [](const WorkItem& item) {
    if (item.spec.trial == 999) {
      std::this_thread::sleep_for(std::chrono::seconds(60));
    }
    TrialReply reply;
    reply.ok = true;
    reply.forensics.outcome = inject::Outcome::Success;
    return reply;
  });

  const auto pids = pool.server_pids();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_GT(pids[0], 0);

  // Kill the fork-server while its trial child is mid-trial (sleeping).
  std::thread killer([pid = pids[0]] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ::kill(pid, SIGKILL);
  });
  WorkItem wedged = sample_item();
  wedged.spec.trial = 999;
  const auto lost = pool.run(wedged, std::chrono::seconds(30), 0);
  killer.join();
  ASSERT_EQ(lost.kind, ProcPool::Result::Kind::LaneFailure);
  EXPECT_EQ(pool.stats().lane_failures, 1u);

  const auto after = pool.run(sample_item(), std::chrono::seconds(30), 0);
  ASSERT_EQ(after.kind, ProcPool::Result::Kind::Completed);
  EXPECT_TRUE(after.reply.ok);
  EXPECT_EQ(pool.stats().respawns, 1u);
}

TEST(ProcPool, RespawnBudgetExhaustionDegradesPool) {
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 0;  // the first lane loss is terminal
  ProcPool pool(opts, [](const WorkItem&) {
    TrialReply reply;
    reply.ok = true;
    reply.forensics.outcome = inject::Outcome::Success;
    return reply;
  });
  const auto pids = pool.server_pids();
  ASSERT_EQ(pids.size(), 1u);
  ::kill(pids[0], SIGKILL);

  // First run discovers the dead server (LaneFailure), second finds the
  // lane down with no respawn budget left: the pool declares degraded.
  const auto first = pool.run(sample_item(), std::chrono::seconds(30), 0);
  EXPECT_EQ(first.kind, ProcPool::Result::Kind::LaneFailure);
  const auto second = pool.run(sample_item(), std::chrono::seconds(30), 0);
  ASSERT_EQ(second.kind, ProcPool::Result::Kind::LaneFailure);
  EXPECT_NE(second.error.find("degraded"), std::string::npos);
  EXPECT_TRUE(pool.degraded());
}

TEST(ProcPool, LaneHasOneCallerAtATime) {
  ProcPool::Options opts;
  opts.lanes = 2;
  ProcPool pool(opts, [](const WorkItem& item) {
    if (item.spec.trial == 999) std::this_thread::sleep_for(std::chrono::seconds(1));
    TrialReply reply;
    reply.ok = true;
    return reply;
  });
  WorkItem slow = sample_item();
  slow.spec.trial = 999;
  std::thread first([&] {
    EXPECT_EQ(pool.run(slow, std::chrono::seconds(30), 0).kind,
              ProcPool::Result::Kind::Completed);
  });
  // The dispatch count moves once the first call owns lane 0.
  while (pool.stats().trials_dispatched == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_THROW(pool.run(sample_item(), std::chrono::seconds(30), 0),
               InternalError);
  EXPECT_EQ(pool.run(sample_item(), std::chrono::seconds(30), 1).kind,
            ProcPool::Result::Kind::Completed);
  EXPECT_THROW(pool.run(sample_item(), std::chrono::seconds(30), 2),
               InternalError);
  first.join();
}

TEST(ProcPool, IsolationModeParsesAndRejects) {
  EXPECT_EQ(parse_isolation_mode("thread"), IsolationMode::Thread);
  EXPECT_EQ(parse_isolation_mode("process"), IsolationMode::Process);
  EXPECT_STREQ(to_string(IsolationMode::Thread), "thread");
  EXPECT_STREQ(to_string(IsolationMode::Process), "process");
  EXPECT_THROW(parse_isolation_mode("fork"), ConfigError);
  EXPECT_THROW(parse_isolation_mode(""), ConfigError);
}

TEST(ProcPool, DescribeWorkerDeathNamesSignalAndRusage) {
  const auto text = describe_worker_death(SIGSEGV, 3'000, 1'000, 2048);
  EXPECT_EQ(text,
            "worker killed by SIGSEGV (signal 11); rusage: user=3ms sys=1ms "
            "maxrss=2048KiB");
  EXPECT_NE(describe_worker_death(SIGBUS, 0, 0, 0).find("SIGBUS"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Fork at the cut: point-server lifecycle with synthetic templates.
// ---------------------------------------------------------------------------

/// State letter of every process in process group `pgid`, by pid, read
/// from /proc. A killed process not yet reaped stays listed as a zombie
/// ('Z').
std::map<int, char> group_members(int pgid) {
  std::map<int, char> members;
  std::error_code ec;
  for (std::filesystem::directory_iterator it("/proc", ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in(it->path() / "stat");
    std::string stat;
    if (!std::getline(in, stat)) continue;  // exited meanwhile
    const auto comm_end = stat.rfind(')');
    if (comm_end == std::string::npos) continue;
    std::istringstream rest(stat.substr(comm_end + 1));
    char state = 0;
    int ppid = 0;
    int pgrp = 0;
    if (rest >> state >> ppid >> pgrp && pgrp == pgid) {
      members[std::stoi(name)] = state;
    }
  }
  return members;
}

std::size_t live_members(int pgid) {
  std::size_t live = 0;
  for (const auto& [pid, state] : group_members(pgid)) {
    if (state != 'Z') ++live;
  }
  return live;
}

/// An exact-trigger item of a model that cannot replay, so it forks at
/// the cut.
WorkItem exact_item(std::uint32_t site_id, std::uint64_t trial) {
  WorkItem item;
  item.spec.site_id = site_id;
  item.spec.rank = 1;
  item.spec.invocation = 0;
  item.spec.fault = inject::FaultModelSpec::parse("message-drop");
  item.spec.trial = trial;
  item.watchdog_ms = 1000;
  return item;
}

TrialReply tagged_reply(const std::string& tag) {
  TrialReply reply;
  reply.ok = true;
  reply.forensics.outcome = inject::Outcome::Success;
  reply.forensics.autopsy = tag;
  return reply;
}

/// Options for a one-lane pool whose template parks at once, except for
/// site 7, whose "world" ends before its cut. A cut-served child reports
/// "cut <trial> <point-server pid>" and sleeps through trial 999.
ProcPool::Options cut_pool_options() {
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 2;
  opts.cut_template = [](const WorkItem& point, const procpool::Park& park) {
    if (point.spec.site_id == 7) return tagged_reply("template ended");
    const WorkItem& item = park();
    if (item.spec.trial == 999) std::this_thread::sleep_for(std::chrono::seconds(60));
    return tagged_reply("cut " + std::to_string(item.spec.trial) + ' ' +
                        std::to_string(::getppid()));
  };
  return opts;
}

TrialReply scratch_trial(const WorkItem& item) {
  return tagged_reply("scratch " + std::to_string(item.spec.trial));
}

/// The pid of the point server that forked a cut-served trial.
int point_server_of(const ProcPool::Result& result) {
  const std::string& tag = result.reply.forensics.autopsy;
  return std::stoi(tag.substr(tag.rfind(' ')));
}

TEST(ProcPool, CutServerServesExactTriggerItemsAtTheCut) {
  ProcPool pool(cut_pool_options(), scratch_trial);
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    const auto result =
        pool.run(exact_item(1, trial), std::chrono::seconds(30), 0);
    ASSERT_EQ(result.kind, ProcPool::Result::Kind::Completed);
    EXPECT_TRUE(result.at_cut);
    EXPECT_EQ(result.reply.forensics.autopsy.rfind("cut " + std::to_string(trial), 0), 0u)
        << result.reply.forensics.autopsy;
  }
  // A non-exact trigger takes the from-scratch path, and so does a
  // replayable parameter fault: its fresh child replays the op log.
  std::uint64_t trial = 5;
  for (const char* model : {"message-drop@nth=2", "single-bit-flip"}) {
    WorkItem scratch_item = exact_item(1, trial);
    scratch_item.spec.fault = inject::FaultModelSpec::parse(model);
    const auto scratch = pool.run(scratch_item, std::chrono::seconds(30), 0);
    ASSERT_EQ(scratch.kind, ProcPool::Result::Kind::Completed) << model;
    EXPECT_FALSE(scratch.at_cut) << model;
    EXPECT_EQ(scratch.reply.forensics.autopsy, "scratch " + std::to_string(trial++));
  }

  const auto stats = pool.stats();
  EXPECT_EQ(stats.cut_trials, 3u);
  EXPECT_EQ(stats.cut_servers, 1u);
  EXPECT_EQ(stats.servers_spawned, 1u);  // point servers are not lane spawns
}

TEST(ProcPool, LeaseExpiryDuringCutTrialKillsWholeLaneGroup) {
  ProcPool pool(cut_pool_options(), scratch_trial);
  ASSERT_TRUE(pool.run(exact_item(1, 0), std::chrono::seconds(30), 0).at_cut);
  const int pgid = pool.server_pids().at(0);

  // While trial 999 is wedged, the group is zygote, point server and
  // trial child.
  std::size_t during = 0;
  std::thread census([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    during = live_members(pgid);
  });
  const auto expired =
      pool.run(exact_item(1, 999), std::chrono::milliseconds(800), 0);
  census.join();
  ASSERT_EQ(expired.kind, ProcPool::Result::Kind::LeaseExpired);
  EXPECT_EQ(during, 3u);
  // Reaped, every one: not even a zombie is left.
  EXPECT_TRUE(group_members(pgid).empty());
  EXPECT_EQ(pool.stats().lease_kills, 1u);

  // The lane respawns, parks a new point server, and serves correctly.
  const auto after = pool.run(exact_item(1, 4), std::chrono::seconds(30), 0);
  ASSERT_EQ(after.kind, ProcPool::Result::Kind::Completed);
  EXPECT_TRUE(after.at_cut);
  EXPECT_EQ(after.reply.forensics.autopsy.rfind("cut 4 ", 0), 0u);
  EXPECT_EQ(pool.stats().respawns, 1u);
  EXPECT_EQ(pool.stats().cut_servers, 2u);
}

TEST(ProcPool, DestroyingPoolWithLiveCutServerLeavesNoProcess) {
  int pgid = 0;
  {
    ProcPool pool(cut_pool_options(), scratch_trial);
    ASSERT_TRUE(pool.run(exact_item(1, 0), std::chrono::seconds(30), 0).at_cut);
    pgid = pool.server_pids().at(0);
    EXPECT_EQ(live_members(pgid), 2u);  // zygote + parked point server
  }
  EXPECT_TRUE(group_members(pgid).empty());
}

TEST(ProcPool, SwitchingPointReapsOldCutServer) {
  ProcPool pool(cut_pool_options(), scratch_trial);
  const auto first = pool.run(exact_item(1, 0), std::chrono::seconds(30), 0);
  const auto second = pool.run(exact_item(2, 0), std::chrono::seconds(30), 0);
  ASSERT_TRUE(first.at_cut);
  ASSERT_TRUE(second.at_cut);
  const int old_cut = point_server_of(first);
  const int new_cut = point_server_of(second);
  EXPECT_NE(old_cut, new_cut);
  const auto members = group_members(pool.server_pids().at(0));
  EXPECT_EQ(members.count(old_cut), 0u);  // reaped, not a zombie
  EXPECT_EQ(members.size(), 2u);          // zygote + new point server
  for (const auto& [pid, state] : members) EXPECT_NE(state, 'Z') << pid;
  EXPECT_EQ(pool.stats().cut_servers, 2u);
}

TEST(ProcPool, StoppedZygoteDoesNotStallCutTrials) {
  // The zygote reads no work item and relays no reply, so with it stopped
  // the parked point server still serves its point, well inside a lease.
  ProcPool pool(cut_pool_options(), scratch_trial);
  ASSERT_TRUE(pool.run(exact_item(1, 0), std::chrono::seconds(30), 0).at_cut);
  const int zygote = pool.server_pids().at(0);
  ASSERT_EQ(::kill(zygote, SIGSTOP), 0);
  struct Resume {
    int pid;
    ~Resume() { ::kill(pid, SIGCONT); }
  } resume{zygote};
  for (std::uint64_t trial = 1; trial <= 3; ++trial) {
    const auto result =
        pool.run(exact_item(1, trial), std::chrono::seconds(5), 0);
    ASSERT_EQ(result.kind, ProcPool::Result::Kind::Completed) << result.error;
    EXPECT_TRUE(result.at_cut);
    const std::string want = "cut " + std::to_string(trial) + ' ';
    EXPECT_EQ(result.reply.forensics.autopsy.rfind(want, 0), 0u) << result.reply.forensics.autopsy;
  }
  EXPECT_EQ(pool.stats().lease_kills, 0u);
  EXPECT_EQ(pool.stats().cut_servers, 1u);
}

TEST(ProcPool, LostPointServerIsLaneFailureThenRecovers) {
  // A point server killed between items takes the lane with it: the
  // zygote exits, so the next item is a prompt LaneFailure rather than a
  // trial quietly served some other way, and the respawned lane parks at
  // the cut again.
  ProcPool pool(cut_pool_options(), scratch_trial);
  const auto first = pool.run(exact_item(1, 0), std::chrono::seconds(30), 0);
  ASSERT_TRUE(first.at_cut);
  ASSERT_EQ(::kill(point_server_of(first), SIGKILL), 0);

  const auto start = std::chrono::steady_clock::now();
  const auto lost = pool.run(exact_item(1, 1), std::chrono::seconds(30), 0);
  EXPECT_EQ(lost.kind, ProcPool::Result::Kind::LaneFailure)
      << lost.reply.forensics.autopsy;
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));

  const auto after = pool.run(exact_item(1, 2), std::chrono::seconds(30), 0);
  ASSERT_EQ(after.kind, ProcPool::Result::Kind::Completed) << after.error;
  EXPECT_TRUE(after.at_cut);
  EXPECT_EQ(after.reply.forensics.autopsy.rfind("cut 2 ", 0), 0u) << after.reply.forensics.autopsy;
  EXPECT_EQ(pool.stats().respawns, 1u);
  EXPECT_EQ(pool.stats().lane_failures, 1u);
}

TEST(ProcPool, TemplateThatNeverParksFallsBackToScratch) {
  ProcPool pool(cut_pool_options(), scratch_trial);
  for (std::uint64_t trial = 0; trial < 2; ++trial) {
    const auto result =
        pool.run(exact_item(7, trial), std::chrono::seconds(30), 0);
    ASSERT_EQ(result.kind, ProcPool::Result::Kind::Completed);
    EXPECT_FALSE(result.at_cut);
    EXPECT_EQ(result.reply.forensics.autopsy, "scratch " + std::to_string(trial));
  }
  // The next point parks normally.
  EXPECT_TRUE(pool.run(exact_item(1, 0), std::chrono::seconds(30), 0).at_cut);
  EXPECT_EQ(pool.stats().cut_trials, 1u);
  EXPECT_EQ(pool.stats().respawns, 0u);
}

// ---------------------------------------------------------------------------
// Fork at the cut: the deadline rebase, on a real world parked at its cut.
// ---------------------------------------------------------------------------

/// Rank 0 enters the allreduce first and waits on rank 1, the injected
/// rank, whose entry is the cut; after it every rank computes for 60 ms
/// and exits. When rank 1's message is dropped, rank 0 is left alone in
/// the receive it was parked in at the cut, a deadlock proven once rank
/// 1 exits; when the suffix's compute outlasts the rebased watchdog,
/// check_deadline times it out.
void cut_world_main(mpi::Mpi& mpi) {
  mpi::RegisteredBuffer<std::int32_t> in(mpi.registry(), 1);
  mpi::RegisteredBuffer<std::int32_t> out(mpi.registry(), 1);
  in[0] = mpi.world_rank();
  mpi.allreduce(in.data(), out.data(), 1, mpi::kInt32, mpi::kSum);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
  while (std::chrono::steady_clock::now() < until) mpi.check_deadline();
}

/// Site id of cut_world_main's allreduce.
std::uint32_t cut_world_site() {
  struct Probe final : mpi::ToolHooks {
    std::uint32_t site = 0;
    void on_enter(mpi::CollectiveCall& call, mpi::Mpi&) override {
      if (site == 0) site = call.site_id;
    }
    void on_exit(const mpi::CollectiveCall&, mpi::Mpi&) override {}
  } probe;
  mpi::WorldOptions opts;
  opts.nranks = 2;
  mpi::World world(opts);
  world.set_tools(&probe);
  world.run(cut_world_main);
  return probe.site;
}

/// One trial of cut_world_main under `item`'s fault; with `park`, a
/// template that parks at the cut as the campaign's does.
TrialReply run_cut_world(const WorkItem& item, const procpool::Park* park) {
  inject::Injector injector(item.spec, 20261017);
  mpi::WorldOptions opts;
  opts.nranks = 2;
  opts.watchdog = std::chrono::milliseconds(item.watchdog_ms);
  if (park != nullptr) {
    opts.watchdog = std::chrono::seconds(20);
    injector.set_cut_hook([&injector, park](mpi::Mpi& mpi) {
      const auto cut = std::chrono::steady_clock::now();
      const WorkItem& bound = (*park)();
      injector.bind_trial(bound.spec.trial);
      mpi.world().rebase_deadline(
          std::chrono::milliseconds(bound.watchdog_ms), cut);
    });
  }
  mpi::World world(opts);
  world.set_tools(&injector);
  const auto result = world.run(cut_world_main);
  TrialReply reply;
  reply.ok = true;
  reply.forensics.outcome =
      result.clean() ? inject::Outcome::Success
      : result.event->type == mpi::EventType::Timeout ? inject::Outcome::InfLoop
                                                      : inject::Outcome::AppDetected;
  return reply;
}

TEST(ProcPool, CutServerParkedPastWatchdogMatchesScratch) {
  const std::uint32_t site = cut_world_site();
  ASSERT_NE(site, 0u);
  ProcPool::Options scratch_opts;
  ProcPool scratch(scratch_opts,
                   [](const WorkItem& item) { return run_cut_world(item, nullptr); });
  ProcPool::Options cut_opts;
  cut_opts.cut_template = [](const WorkItem& item, const procpool::Park& park) {
    return run_cut_world(item, &park);
  };
  ProcPool cut(cut_opts,
               [](const WorkItem& item) { return run_cut_world(item, nullptr); });

  // (model, watchdog ms, expected outcome). After the corrupted message
  // the 60 ms compute suffix fits 400 ms but not 30 ms, so the 30 ms case
  // only times out if the suffix sees the rebased deadline; the dropped
  // message leaves rank 0 waiting on an exited peer, a proven deadlock.
  const std::tuple<const char*, std::uint64_t, inject::Outcome> cases[] = {
      {"message-corrupt", 400, inject::Outcome::Success},
      {"message-corrupt", 400, inject::Outcome::Success},
      {"message-corrupt", 30, inject::Outcome::InfLoop},
      {"message-drop", 200, inject::Outcome::InfLoop},
      {"message-drop", 200, inject::Outcome::InfLoop},
  };
  std::uint64_t trial = 0;
  for (const auto& [model, watchdog_ms, expected] : cases) {
    WorkItem item = exact_item(site, trial++);
    item.spec.param = mpi::Param::RecvBuf;
    item.spec.fault = inject::FaultModelSpec::parse(model);
    item.watchdog_ms = watchdog_ms;
    const auto want = scratch.run(item, std::chrono::seconds(10), 0);
    // Park the point server for longer than any trial watchdog first.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    const auto got = cut.run(item, std::chrono::seconds(10), 0);
    ASSERT_EQ(want.kind, ProcPool::Result::Kind::Completed) << model;
    ASSERT_EQ(got.kind, ProcPool::Result::Kind::Completed)
        << model << ' ' << watchdog_ms << ": " << got.error;
    EXPECT_TRUE(got.at_cut);
    EXPECT_EQ(want.reply.forensics.outcome, expected) << model << ' ' << watchdog_ms;
    EXPECT_EQ(got.reply.forensics.outcome, expected) << model << ' ' << watchdog_ms;
  }
  EXPECT_EQ(cut.stats().cut_servers, 2u);  // one per point
}

// ---------------------------------------------------------------------------
// Campaign integration: --isolation process end to end.
// ---------------------------------------------------------------------------

CampaignOptions isolation_options(IsolationMode mode) {
  CampaignOptions opts;
  opts.nranks = 4;
  opts.trials_per_point = 2;
  opts.seed = 20260808;
  opts.max_parallel_trials = 1;
  opts.isolation = mode;
  return opts;
}

std::vector<PointResult> run_points(const apps::Workload& workload,
                                    const CampaignOptions& opts,
                                    std::size_t npoints,
                                    CampaignHealth* health_out = nullptr) {
  Campaign campaign(workload, opts);
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  const auto n = std::min(npoints, points.size());
  auto results = campaign.measure_many(
      std::span<const InjectionPoint>(points.data(), n),
      opts.trials_per_point);
  if (health_out != nullptr) *health_out = campaign.health();
  EXPECT_TRUE(campaign.health().clean());
  return results;
}

void expect_same_counts(const std::vector<PointResult>& a,
                        const std::vector<PointResult>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].counts, b[i].counts) << label << " point " << i;
    EXPECT_EQ(a[i].trials, b[i].trials) << label << " point " << i;
  }
}

TEST(ProcessIsolation, MatchesThreadBackendSerially) {
  const auto workload = apps::make_workload("LU");
  const auto expected =
      run_points(*workload, isolation_options(IsolationMode::Thread), 4);
  CampaignHealth health;
  const auto actual = run_points(
      *workload, isolation_options(IsolationMode::Process), 4, &health);
  expect_same_counts(expected, actual, "process serial");
  // Non-signal models must not lose a single worker.
  EXPECT_EQ(health.worker_deaths, 0u);
  EXPECT_EQ(health.isolation_fallbacks, 0u);
}

TEST(ProcessIsolation, MatchesThreadBackendPooled) {
  const auto workload = apps::make_workload("LU");
  const auto expected =
      run_points(*workload, isolation_options(IsolationMode::Thread), 4);
  auto pooled = isolation_options(IsolationMode::Process);
  pooled.max_parallel_trials = 4;
  expect_same_counts(expected, run_points(*workload, pooled, 4),
                     "process pool-4");
}

TEST(ProcessIsolation, NonParameterModelMatchesAcrossBackends) {
  // Rank death cannot replay an op log: under the default snapshots
  // setting its trials fork at the cut inside the worker tree.
  const auto workload = apps::make_workload("LU");
  auto thread_opts = isolation_options(IsolationMode::Thread);
  thread_opts.fault_models = {inject::FaultModelSpec::parse("rank-death")};
  const auto expected = run_points(*workload, thread_opts, 3);

  auto process_opts = thread_opts;
  process_opts.isolation = IsolationMode::Process;
  expect_same_counts(expected, run_points(*workload, process_opts, 3),
                     "rank-death process");
}

// ---------------------------------------------------------------------------
// Fork at the cut: parity with --snapshots off, every manifestation family.
// ---------------------------------------------------------------------------

/// Every manifestation family at the exact trigger, plus two non-exact
/// triggers that must take the from-scratch path.
constexpr const char* kEveryFamily =
    "single-bit-flip,message-drop,message-delay,message-corrupt,rank-death,"
    "sigsegv,message-drop@nth=2,single-bit-flip@duty=1/3";

struct IsolatedRun {
  std::vector<PointResult> results;
  std::string journal;  ///< autopsies stripped
  std::map<std::string, std::uint64_t> trial_counters;
  std::uint64_t cut_trials = 0;
  std::uint64_t cut_eligible_trials = 0;  ///< exact trigger, not replayable
  std::uint64_t recordings = 0;  ///< op-log recordings built or loaded
};

/// The journal without its forensic autopsy fields ("a"): those carry
/// addresses and rusage, which no two runs share.
std::string strip_autopsies(const std::string& journal) {
  std::string out;
  std::size_t pos = 0;
  for (;;) {
    const auto start = journal.find(",\"a\":\"", pos);
    if (start == std::string::npos) break;
    out.append(journal, pos, start - pos);
    std::size_t end = start + 6;
    while (end < journal.size() &&
           (journal[end] != '"' || journal[end - 1] == '\\')) {
      ++end;
    }
    pos = end + 1;
  }
  out.append(journal, pos, std::string::npos);
  return out;
}

/// Two points of every fault model in kEveryFamily, two trials each, at
/// 8 ranks under --isolation process, journaled and with telemetry on.
IsolatedRun run_isolated(const std::string& workload_name, std::size_t pool,
                         bool snapshots) {
  auto& rec = tel::Recorder::instance();
  rec.enable();
  rec.reset();
  const auto workload = apps::make_workload(workload_name);
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 2;
  opts.seed = 20261017;
  opts.max_parallel_trials = pool;
  opts.isolation = IsolationMode::Process;
  opts.snapshots = snapshots;
  opts.fault_models = inject::parse_fault_models(kEveryFamily);
  // No verdict may hinge on the wall clock: both runs compare exactly.
  opts.watchdog = std::chrono::seconds(10);
  Campaign campaign(*workload, opts);
  campaign.profile();
  const std::string path = ::testing::TempDir() + "fastfit_cut_parity_" +
                           workload_name + "_" + std::to_string(pool) +
                           (snapshots ? "_on" : "_off");
  std::remove(path.c_str());
  campaign.attach_journal(path, JournalMode::Create);

  IsolatedRun run;
  std::vector<InjectionPoint> points;
  std::map<std::string, int> per_model;
  for (const auto& point : campaign.enumeration().points) {
    if (per_model[point.fault.canonical()]++ >= 2) continue;
    points.push_back(point);
    if (point.fault.trigger == inject::FaultTrigger::ExactPoint &&
        !inject::is_replayable(point.fault)) {
      run.cut_eligible_trials += opts.trials_per_point;
    }
  }
  EXPECT_EQ(per_model.size(), opts.fault_models.size());
  run.results = campaign.measure_many(points, opts.trials_per_point);
  EXPECT_TRUE(campaign.health().clean());
  campaign.detach_journal();

  std::ifstream in(path, std::ios::binary);
  run.journal = strip_autopsies(std::string(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()));
  const auto metrics = rec.metrics();
  for (const auto& c : metrics.counters) {
    if (c.name == "fastfit_trials_total") run.trial_counters[c.labels] = c.value;
  }
  run.cut_trials = metrics.counter_sum("fastfit_worker_cut_trials_total");
  run.recordings = metrics.counter_sum("fastfit_snapshot_recordings_total");
  rec.reset();
  rec.disable();
  std::remove(path.c_str());
  return run;
}

// The workload is a std::string, not a const char*: gtest prints a C
// string inside a tuple as its address, which would put a load address
// into the test's listed name and change it on every build.
class ProcessIsolationCut
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(ProcessIsolationCut, ForkAtCutMatchesFromScratch) {
  const auto [workload, pool] = GetParam();
  const auto off = run_isolated(workload, pool, false);
  const auto cut = run_isolated(workload, pool, true);

  ASSERT_EQ(off.results.size(), cut.results.size());
  for (std::size_t i = 0; i < off.results.size(); ++i) {
    EXPECT_EQ(off.results[i].counts, cut.results[i].counts) << "point " << i;
    EXPECT_EQ(off.results[i].trials, cut.results[i].trials) << "point " << i;
  }
  EXPECT_FALSE(off.journal.empty());
  EXPECT_EQ(off.journal, cut.journal);
  EXPECT_FALSE(off.trial_counters.empty());
  EXPECT_EQ(off.trial_counters, cut.trial_counters);
  // --snapshots off runs every trial from scratch; the default forks
  // every exact-trigger trial of a non-replayable model at its cut and no
  // other (the bit flips replay their op log in a fresh child).
  EXPECT_EQ(off.cut_trials, 0u);
  EXPECT_GT(cut.cut_eligible_trials, 0u);
  EXPECT_EQ(cut.cut_trials, cut.cut_eligible_trials);
  // The supervisor recorded the op log once, before forking the lanes.
  EXPECT_EQ(off.recordings, 0u);
  EXPECT_EQ(cut.recordings, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ProcessIsolationCut,
    ::testing::Combine(::testing::Values(std::string("EP"), std::string("LU"),
                                         std::string("miniMD")),
                       ::testing::Values(std::size_t{1}, std::size_t{2})),
    [](const auto& info) {
      return std::get<0>(info.param) + "_pool" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ProcessIsolation, PooledCutServersFollowPointsNotLanes) {
  // Each lane stays on its point while the point has trials left, so a
  // pool of 4 parks about one point server per point (plus at most one per
  // lane and joined point in the tail), not one per point per lane, and
  // reports exactly what the serial pool does.
  constexpr std::size_t kPool = 4;
  const auto workload = apps::make_workload("EP");
  const auto run = [&](std::size_t pool, std::uint64_t& cut_servers,
                       std::size_t& npoints) {
    auto& rec = tel::Recorder::instance();
    rec.enable();
    rec.reset();
    CampaignOptions opts;
    opts.nranks = 8;
    opts.trials_per_point = 6;
    opts.seed = 20261018;
    opts.max_parallel_trials = pool;
    opts.isolation = IsolationMode::Process;
    opts.fault_models =
        inject::parse_fault_models("message-drop,rank-death,sigsegv");
    // No verdict may hinge on the wall clock: both runs compare exactly.
    opts.watchdog = std::chrono::seconds(10);
    Campaign campaign(*workload, opts);
    campaign.profile();
    const auto& all = campaign.enumeration().points;
    npoints = std::min<std::size_t>(all.size(), 16);
    auto results = campaign.measure_many(
        std::span<const InjectionPoint>(all.data(), npoints),
        opts.trials_per_point);
    EXPECT_TRUE(campaign.health().clean());
    cut_servers =
        rec.metrics().counter_sum("fastfit_worker_cut_servers_total");
    rec.reset();
    rec.disable();
    return results;
  };
  std::uint64_t serial_servers = 0;
  std::uint64_t pooled_servers = 0;
  std::size_t npoints = 0;
  const auto serial = run(1, serial_servers, npoints);
  const auto pooled = run(kPool, pooled_servers, npoints);
  expect_same_counts(serial, pooled, "EP pool-4 vs pool-1");
  EXPECT_GT(npoints, kPool);
  EXPECT_GT(serial_servers, 0u);
  EXPECT_LE(serial_servers, npoints);
  EXPECT_GE(pooled_servers, serial_servers);
  EXPECT_LE(pooled_servers, npoints + kPool * kPool);
}

TEST(CrashResume, ProcessBackendResumesBitIdentical) {
  const auto workload = apps::make_workload("LU");
  const auto opts = isolation_options(IsolationMode::Process);
  // Baseline from the thread backend: resume parity must hold not just
  // run-to-run but across isolation modes.
  const auto expected =
      run_points(*workload, isolation_options(IsolationMode::Thread), 4);

  const std::string path = ::testing::TempDir() + "fastfit_procpool_resume.jsonl";
  std::remove(path.c_str());
  {
    Campaign partial(*workload, opts);
    partial.profile();
    partial.attach_journal(path, JournalMode::Create);
    const auto& points = partial.enumeration().points;
    ASSERT_GE(points.size(), 4u);
    partial.measure_many(std::span<const InjectionPoint>(points.data(), 2),
                         opts.trials_per_point);
    partial.detach_journal();
  }

  Campaign resumed(*workload, opts);
  resumed.profile();
  resumed.attach_journal(path, JournalMode::Resume);
  const auto& points = resumed.enumeration().points;
  const auto results = resumed.measure_many(
      std::span<const InjectionPoint>(points.data(), 4),
      opts.trials_per_point);
  EXPECT_GT(resumed.health().replayed_trials, 0u);
  expect_same_counts(expected, results, "process resume");
  std::remove(path.c_str());
}

TEST(SignalMatrix, GenuineSignalsClassifySegFault) {
  // The real-crash acceptance test: every signal-family fault model kills
  // its worker child with a genuine signal, and every such death must be
  // classified SEG_FAULT without losing the campaign.
  const auto workload = apps::make_workload("EP");
  for (const char* model : {"sigsegv", "sigbus", "sigfpe", "sigabrt"}) {
    auto opts = isolation_options(IsolationMode::Process);
    opts.fault_models = {inject::FaultModelSpec::parse(model)};
    CampaignHealth health;
    const auto results = run_points(*workload, opts, 2, &health);
    ASSERT_FALSE(results.empty()) << model;
    std::uint64_t total = 0;
    for (const auto& r : results) {
      EXPECT_EQ(r.counts[kSegFault], r.trials) << model;
      total += r.trials;
    }
    EXPECT_EQ(health.worker_deaths, total) << model;
    EXPECT_EQ(health.quarantined_points, 0u) << model;
  }
}

TEST(SignalMatrix, JournalCarriesSignalForensics) {
  // The journal's forensic field must name the signal and the child's
  // rusage — that is what makes a real crash diagnosable after the fact.
  const auto workload = apps::make_workload("EP");
  auto opts = isolation_options(IsolationMode::Process);
  opts.fault_models = {inject::FaultModelSpec::parse("sigsegv")};

  const std::string path =
      ::testing::TempDir() + "fastfit_signal_forensics.jsonl";
  std::remove(path.c_str());
  {
    Campaign campaign(*workload, opts);
    campaign.profile();
    campaign.attach_journal(path, JournalMode::Create);
    const auto& points = campaign.enumeration().points;
    ASSERT_FALSE(points.empty());
    campaign.measure_many(std::span<const InjectionPoint>(points.data(), 1),
                          opts.trials_per_point);
    EXPECT_TRUE(campaign.health().clean());
    campaign.detach_journal();
  }
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("worker killed by SIGSEGV (signal 11)"),
            std::string::npos);
  EXPECT_NE(contents.str().find("rusage:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SignalMatrix, SignalModelsRequireProcessIsolation) {
  // In-process, a genuine SIGSEGV would kill the campaign: the engine
  // must refuse the configuration up front, at construction.
  const auto workload = apps::make_workload("EP");
  auto opts = isolation_options(IsolationMode::Thread);
  opts.fault_models = {inject::FaultModelSpec::parse("sigsegv")};
  EXPECT_THROW(Campaign c(*workload, opts), ConfigError);
}

}  // namespace
}  // namespace fastfit::core
