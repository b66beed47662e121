// Prefix-replay world snapshots (minimpi/snapshot.hpp): chunk dedup,
// record -> build -> replay fidelity, in-flight pre-seeding across the
// cut, invalid cuts, divergence detection, and reconvergence at the cut.

#include "minimpi/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "inject/injector.hpp"
#include "inject/outcome.hpp"
#include "minimpi/memory.hpp"
#include "minimpi/mpi.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

WorldOptions opts(int n) {
  WorldOptions o;
  o.nranks = n;
  o.watchdog = 5000ms;
  return o;
}

TEST(Snapshot, ChunkStoreDeduplicatesByContent) {
  ChunkStore store;
  const std::vector<std::byte> a(64, std::byte{0x5A});
  std::vector<std::byte> b(64, std::byte{0x5A});
  const auto first = store.intern(a.data(), a.size());
  const auto second = store.intern(b.data(), b.size());
  EXPECT_EQ(first.get(), second.get());  // same chunk, not just same bytes
  EXPECT_EQ(store.unique_chunks(), 1u);
  EXPECT_EQ(store.unique_bytes(), 64u);

  b[13] = std::byte{0x00};
  const auto third = store.intern(b.data(), b.size());
  EXPECT_NE(third.get(), first.get());
  EXPECT_EQ(store.unique_chunks(), 2u);
  EXPECT_EQ(store.unique_bytes(), 128u);

  // A prefix of an existing chunk is different content.
  const auto fourth = store.intern(a.data(), 32);
  EXPECT_NE(fourth.get(), first.get());
  EXPECT_EQ(fourth->size(), 32u);
}

// Three iterations of bcast + allreduce, with per-rank results collected
// outside the world so a live run and a replayed run can be compared
// byte for byte.
void iterative_kernel(Mpi& mpi, std::vector<double>& out, std::mutex& mu) {
  RegisteredBuffer<double> buf(mpi.registry(), 8);
  RegisteredBuffer<double> val(mpi.registry(), 1);
  RegisteredBuffer<double> sum(mpi.registry(), 1);
  double acc = 0.0;
  for (int iter = 0; iter < 3; ++iter) {
    if (mpi.rank() == 0) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = iter * 100.0 + static_cast<double>(i);
      }
    }
    mpi.bcast(buf.data(), 8, kDouble, 0);
    val[0] = buf[static_cast<std::size_t>(iter)] + mpi.rank();
    mpi.allreduce(val.data(), sum.data(), 1, kDouble, kSum);
    acc += sum[0] * (iter + 1);
  }
  std::lock_guard lock(mu);
  out[static_cast<std::size_t>(mpi.world_rank())] = acc;
}

// Runs the iterative kernel in a fresh world with the given snapshot
// hooks and returns the per-rank results.
std::vector<double> run_iterative(int n,
                                  std::shared_ptr<PrefixRecorder> recorder,
                                  std::shared_ptr<const WorldSnapshot> replay) {
  auto o = opts(n);
  o.recorder = recorder;
  o.replay = std::move(replay);
  World world(o);
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  std::mutex mu;
  const auto result =
      world.run([&](Mpi& mpi) { iterative_kernel(mpi, out, mu); });
  EXPECT_TRUE(result.clean());
  return out;
}

// Pulls the (site_id, invocation) of the k-th allreduce from rank 0's
// recorded op stream — the test's stand-in for the campaign's
// enumeration.
std::pair<std::uint32_t, std::uint64_t> nth_allreduce(
    const WorldRecording& recording, std::size_t k) {
  std::size_t seen = 0;
  for (const auto& op : recording.ops[0]) {
    if (op.kind == RecordedOp::Kind::Collective &&
        op.coll == CollectiveKind::Allreduce) {
      if (seen++ == k) return {op.site_id, op.invocation};
    }
  }
  ADD_FAILURE() << "allreduce #" << k << " not recorded";
  return {0, 0};
}

TEST(Snapshot, ReplayedPrefixReproducesTheLiveRun) {
  const int n = 6;
  const auto live = run_iterative(n, nullptr, nullptr);

  auto recorder = std::make_shared<PrefixRecorder>(n);
  const auto recorded = run_iterative(n, recorder, nullptr);
  EXPECT_EQ(recorded, live);  // recording hooks must not perturb the run
  const auto recording = recorder->finish();
  ASSERT_TRUE(recording->replayable);
  EXPECT_EQ(recording->nranks, n);
  EXPECT_GT(recording->payload_bytes, 0u);
  // 6 collectives per rank (3 bcast + 3 allreduce), no p2p.
  EXPECT_EQ(recording->total_ops, static_cast<std::size_t>(n) * 6u);

  // Cut at the *second* allreduce: a non-trivial prefix (bcast x2 +
  // allreduce + bcast) on every rank, and a live suffix.
  const auto [site, inv] = nth_allreduce(*recording, 1);
  const auto snapshot = WorldSnapshot::build(recording, site, inv);
  ASSERT_NE(snapshot, nullptr);
  ASSERT_EQ(snapshot->cut.size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(snapshot->cut[static_cast<std::size_t>(r)], 3u) << "rank " << r;
  }
  EXPECT_TRUE(snapshot->preseed.empty());

  const auto replayed = run_iterative(n, nullptr, snapshot);
  EXPECT_EQ(replayed, live);

  // The first collective is also a valid (empty-prefix) cut.
  const auto [site0, inv0] = nth_allreduce(*recording, 0);
  const auto first = WorldSnapshot::build(recording, site0, inv0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(run_iterative(n, nullptr, first), live);
}

TEST(Snapshot, FaultAtTheCutNeverStartsLaterRanks) {
  // A replayed prefix never blocks, so rank 0 reaches its cut before any
  // later rank has run. When the cut op faults there, ranks 1..n-1 never
  // enter rank_main at all.
  const int n = 6;
  auto recorder = std::make_shared<PrefixRecorder>(n);
  run_iterative(n, recorder, nullptr);
  const auto recording = recorder->finish();
  const auto [site, inv] = nth_allreduce(*recording, 1);
  const auto snapshot = WorldSnapshot::build(recording, site, inv);
  ASSERT_NE(snapshot, nullptr);

  class FaultAtFirstLiveOp : public ToolHooks {
   public:
    void on_enter(CollectiveCall& call, Mpi& mpi) override {
      if (mpi.world_rank() == 0) {
        cut_site = call.site_id;
        cut_invocation = call.invocation;
        throw MpiError(MpiErrc::InvalidCount, "fault at the cut");
      }
    }
    void on_exit(const CollectiveCall&, Mpi&) override {}
    std::uint32_t cut_site = 0;
    std::uint64_t cut_invocation = 0;
  } fault;

  auto o = opts(n);
  o.replay = snapshot;
  World world(o);
  world.set_tools(&fault);
  std::atomic<std::uint32_t> entered{0};
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  std::mutex mu;
  const auto result = world.run([&](Mpi& mpi) {
    entered.fetch_or(1u << mpi.world_rank());
    iterative_kernel(mpi, out, mu);
  });
  EXPECT_EQ(entered.load(), 1u);  // rank 0 only
  EXPECT_EQ(fault.cut_site, site);
  EXPECT_EQ(fault.cut_invocation, inv);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::MpiErr);
  EXPECT_EQ(result.event->rank, 0);
  EXPECT_EQ(result.leaked_regions, 0u);
}

TEST(Snapshot, MissingSiteOrInvocationIsNotACut) {
  const int n = 4;
  auto recorder = std::make_shared<PrefixRecorder>(n);
  run_iterative(n, recorder, nullptr);
  const auto recording = recorder->finish();
  const auto [site, inv] = nth_allreduce(*recording, 0);
  EXPECT_EQ(WorldSnapshot::build(recording, site ^ 0xdead, inv), nullptr);
  EXPECT_EQ(WorldSnapshot::build(recording, site, inv + 100), nullptr);
}

TEST(Snapshot, InFlightMessageIsPreseededAcrossTheCut) {
  // Rank 0 sends before the cut; rank 1 receives after it. The message
  // is in flight across the cut, so the snapshot must pre-seed it and
  // the replayed world's live suffix must receive it intact.
  const int n = 2;
  const int kTag = 7;
  auto kernel = [&](Mpi& mpi, std::vector<double>& got, std::mutex& mu) {
    RegisteredBuffer<double> msg(mpi.registry(), 4);
    if (mpi.rank() == 0) {
      for (std::size_t i = 0; i < msg.size(); ++i) {
        msg[i] = 2.5 * static_cast<double>(i + 1);
      }
      mpi.send(msg.data(), 4, kDouble, 1, kTag);
    }
    mpi.barrier();
    mpi.barrier();  // <- the cut collective
    if (mpi.rank() == 1) {
      mpi.recv(msg.data(), 4, kDouble, 0, kTag);
      std::lock_guard lock(mu);
      got.assign(msg.begin(), msg.end());
    }
  };

  auto record_opts = opts(n);
  auto recorder = std::make_shared<PrefixRecorder>(n);
  record_opts.recorder = recorder;
  World record_world(record_opts);
  std::vector<double> live;
  std::mutex mu;
  ASSERT_TRUE(
      record_world.run([&](Mpi& mpi) { kernel(mpi, live, mu); }).clean());
  const auto recording = recorder->finish();
  ASSERT_TRUE(recording->replayable);

  // The second barrier on rank 0's stream: ops are send, barrier, barrier.
  const auto& rank0 = recording->ops[0];
  ASSERT_EQ(rank0.size(), 3u);
  ASSERT_EQ(rank0[2].kind, RecordedOp::Kind::Collective);
  const auto snapshot =
      WorldSnapshot::build(recording, rank0[2].site_id, rank0[2].invocation);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->cut[0], 2u);  // prefix: send + barrier
  EXPECT_EQ(snapshot->cut[1], 1u);  // prefix: barrier
  ASSERT_EQ(snapshot->preseed.size(), 1u);
  EXPECT_EQ(snapshot->preseed[0].dest_world, 1);
  ASSERT_NE(snapshot->preseed[0].payload, nullptr);
  EXPECT_EQ(snapshot->preseed[0].payload->size(), 4 * sizeof(double));

  auto replay_opts = opts(n);
  replay_opts.replay = snapshot;
  World replay_world(replay_opts);
  std::vector<double> replayed;
  ASSERT_TRUE(
      replay_world.run([&](Mpi& mpi) { kernel(mpi, replayed, mu); }).clean());
  EXPECT_EQ(replayed, live);
}

TEST(Snapshot, PrefixReceiveOfASuffixSendInvalidatesTheCut) {
  // Built synthetically: the live transport cannot execute this shape
  // (it deadlocks), but a recording scanner must still reject it — a
  // prefix receive whose matching send happens after the sender's cut
  // would need a message that does not exist yet at the cut.
  auto recording = std::make_shared<WorldRecording>();
  recording->nranks = 2;
  recording->ops.resize(2);
  ChunkStore chunks;
  const double payload = 41.5;
  const auto chunk = chunks.intern(&payload, sizeof payload);

  RecordedOp cut0;  // rank 0: the cut collective first, then the send
  cut0.kind = RecordedOp::Kind::Collective;
  cut0.coll = CollectiveKind::Barrier;
  cut0.site_id = 11;
  cut0.invocation = 1;
  RecordedOp send;
  send.kind = RecordedOp::Kind::Send;
  send.self_comm = 0;
  send.peer = 1;
  send.peer_world = 1;
  send.transport_tag = 42;
  send.writes.push_back(chunk);
  recording->ops[0] = {cut0, send};

  RecordedOp recv;  // rank 1: the receive precedes its cut
  recv.kind = RecordedOp::Kind::Recv;
  recv.self_comm = 1;
  recv.peer = 0;
  recv.transport_tag = 42;
  recv.writes.push_back(chunk);
  RecordedOp cut1 = cut0;
  recording->ops[1] = {recv, cut1};
  recording->total_ops = 4;

  EXPECT_EQ(WorldSnapshot::build(recording, 11, 1), nullptr);

  // Control: send in the sender's prefix, receive in the receiver's
  // suffix — the message is genuinely in flight at the cut, so the same
  // log becomes replayable with the send pre-seeded.
  recording->ops[0] = {send, cut0};
  recording->ops[1] = {cut1, recv};
  const auto valid = WorldSnapshot::build(recording, 11, 1);
  ASSERT_NE(valid, nullptr);
  EXPECT_EQ(valid->preseed.size(), 1u);
}

TEST(Snapshot, DivergenceRaisesReplayErrorNotAnOutcome) {
  // Record with count 8, replay an application that calls bcast with
  // count 4: the replayer must refuse (ReplayError escapes world.run),
  // never silently serve the recorded bytes.
  const int n = 3;
  std::atomic<std::int32_t> count{8};
  auto kernel = [&](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 8);
    if (mpi.rank() == 0) buf[0] = 6.25;
    mpi.bcast(buf.data(), count.load(), kDouble, 0);
    mpi.barrier();  // the cut
    mpi.barrier();
  };

  auto record_opts = opts(n);
  auto recorder = std::make_shared<PrefixRecorder>(n);
  record_opts.recorder = recorder;
  World record_world(record_opts);
  ASSERT_TRUE(record_world.run(kernel).clean());
  const auto recording = recorder->finish();
  const auto& rank0 = recording->ops[0];
  ASSERT_EQ(rank0.size(), 3u);
  const auto snapshot =
      WorldSnapshot::build(recording, rank0[1].site_id, rank0[1].invocation);
  ASSERT_NE(snapshot, nullptr);

  count.store(4);
  auto replay_opts = opts(n);
  replay_opts.replay = snapshot;
  World replay_world(replay_opts);
  EXPECT_THROW(replay_world.run(kernel), ReplayError);
}

TEST(Snapshot, NonblockingReceiveMarksRecordingUnsupported) {
  const int n = 2;
  auto o = opts(n);
  auto recorder = std::make_shared<PrefixRecorder>(n);
  o.recorder = recorder;
  World world(o);
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 2);
    if (mpi.rank() == 0) {
      buf[0] = 1.0;
      mpi.send(buf.data(), 2, kDouble, 1, 3);
    } else {
      auto req = mpi.irecv(buf.data(), 2, kDouble, 0, 3);
      mpi.wait(req);
    }
  });
  ASSERT_TRUE(result.clean());
  const auto recording = recorder->finish();
  EXPECT_FALSE(recording->replayable);
  EXPECT_NE(recording->unsupported_reason.find("irecv"), std::string::npos);
  EXPECT_EQ(WorldSnapshot::build(recording, 1, 1), nullptr);
}

// --- reconvergence at the cut ---------------------------------------------

// Two rounds of bcast, allreduce (MAX), barrier. `done` counts the
// collectives each rank completed and `out` receives its result, both
// outside the world, so a test can tell where a world stopped.
struct Rounds {
  std::vector<int> done;
  std::vector<double> out;

  explicit Rounds(int n)
      : done(static_cast<std::size_t>(n), 0),
        out(static_cast<std::size_t>(n), -1.0) {}

  void operator()(Mpi& mpi) {
    int& mine = done[static_cast<std::size_t>(mpi.world_rank())];
    RegisteredBuffer<double> buf(mpi.registry(), 4);
    RegisteredBuffer<double> peak(mpi.registry(), 4);
    double acc = 0.0;
    for (int round = 0; round < 2; ++round) {
      if (mpi.rank() == 0) {
        for (std::size_t i = 0; i < buf.size(); ++i) {
          buf[i] = round * 10.0 + static_cast<double>(i + 1);
        }
      }
      mpi.bcast(buf.data(), 4, kDouble, 0);
      ++mine;
      mpi.allreduce(buf.data(), peak.data(), 4, kDouble, kMax);
      ++mine;
      mpi.barrier();
      ++mine;
      for (std::size_t i = 0; i < peak.size(); ++i) acc += peak[i] * (i + 1);
    }
    out[static_cast<std::size_t>(mpi.world_rank())] = acc;
  }
};

constexpr int kRoundsRanks = 4;
constexpr int kRoundsOps = 6;  // collectives per rank

std::shared_ptr<const WorldRecording> record_rounds() {
  auto o = opts(kRoundsRanks);
  o.recorder = std::make_shared<PrefixRecorder>(kRoundsRanks);
  Rounds rounds(kRoundsRanks);
  World world(o);
  EXPECT_TRUE(world.run([&](Mpi& mpi) { rounds(mpi); }).clean());
  return o.recorder->finish();
}

// The parameter fault at rank 0's op `op` (all ranks share the stream
// shape), as the campaign would build it for trial `trial`.
inject::FaultSpec fault_at(const WorldRecording& recording, std::size_t op,
                           int rank, Param param, std::uint64_t trial = 0) {
  inject::FaultSpec spec;
  spec.site_id = recording.ops[0][op].site_id;
  spec.invocation = recording.ops[0][op].invocation;
  spec.rank = rank;
  spec.param = param;
  spec.trial = trial;
  return spec;
}

struct RoundsRun {
  WorldResult result;
  Rounds rounds{kRoundsRanks};
  bool fired = false;
};

// Runs Rounds under `spec`, replayed from `recording` up to the fault's
// cut, or from scratch when `recording` is null.
RoundsRun run_rounds(const inject::FaultSpec& spec,
                     const std::shared_ptr<const WorldRecording>& recording) {
  auto o = opts(kRoundsRanks);
  if (recording) {
    o.replay = WorldSnapshot::build(recording, spec.site_id, spec.invocation);
    EXPECT_NE(o.replay, nullptr);
  }
  inject::Injector injector(spec, 42);
  World world(o);
  world.set_tools(&injector);
  RoundsRun run;
  run.result = world.run([&run](Mpi& mpi) { run.rounds(mpi); });
  run.fired = injector.fired();
  return run;
}

std::vector<double> golden_rounds() {
  Rounds rounds(kRoundsRanks);
  World world(opts(kRoundsRanks));
  EXPECT_TRUE(world.run([&](Mpi& mpi) { rounds(mpi); }).clean());
  return rounds.out;
}

TEST(Snapshot, OverwrittenBufferFaultReconvergesAtTheCut) {
  // A bit flipped in rank 2's allreduce output buffer is overwritten by
  // the allreduce itself: every rank leaves the cut in the recorded
  // state, so the world stops there and the trial is SUCCESS.
  const auto recording = record_rounds();
  const auto spec = fault_at(*recording, 4, 2, Param::RecvBuf);
  const auto run = run_rounds(spec, recording);
  ASSERT_TRUE(run.fired);
  EXPECT_TRUE(run.result.reconverged);
  EXPECT_TRUE(run.result.clean());
  EXPECT_EQ(run.result.leaked_regions, 0u);
  EXPECT_EQ(inject::classify(run.result, 0, 1), inject::Outcome::Success);
  // No rank completed an op after the cut. Every rank but the one whose
  // check completed the verdict (it unwinds from inside the cut op)
  // returned from the cut op, and none finished.
  int unwound_in_cut = 0;
  for (int r = 0; r < kRoundsRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const int done = run.rounds.done[i];
    EXPECT_TRUE(done == 4 || done == 5) << "rank " << r << " done " << done;
    if (done == 4) ++unwound_in_cut;
    EXPECT_EQ(run.rounds.out[i], -1.0) << "rank " << r;
  }
  EXPECT_EQ(unwound_in_cut, 1);

  // The same trial from scratch runs its whole suffix to the golden
  // answer, which is what the verdict stands for.
  const auto live = run_rounds(spec, nullptr);
  EXPECT_FALSE(live.result.reconverged);
  EXPECT_TRUE(live.result.clean());
  EXPECT_EQ(live.rounds.out, golden_rounds());
}

TEST(World, ReconvergedTrialResumesNoParkedRank) {
  // The trial of OverwrittenBufferFaultReconvergesAtTheCut, as a trial
  // world: the rank that completes the verdict unwinds and frees its two
  // buffers; every other rank parked past the cut and is dropped there,
  // still holding both.
  const auto recording = record_rounds();
  const auto spec = fault_at(*recording, 4, 2, Param::RecvBuf);
  auto o = opts(kRoundsRanks);
  o.replay = WorldSnapshot::build(recording, spec.site_id, spec.invocation);
  o.trial_arena = true;
  inject::Injector injector(spec, 42);
  World world(o);
  world.set_tools(&injector);
  Rounds rounds(kRoundsRanks);
  const auto result = world.run([&rounds](Mpi& mpi) { rounds(mpi); });
  ASSERT_TRUE(result.reconverged);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.leaked_regions, 0u);
  int unwound = 0;
  for (int r = 0; r < kRoundsRanks; ++r) {
    const auto regions = world.state().registry(r).region_count();
    EXPECT_TRUE(regions == 0 || regions == 2) << "rank " << r;
    if (regions == 0) ++unwound;
  }
  EXPECT_EQ(unwound, 1);
}

TEST(Snapshot, RootBcastBufferFaultRunsTheSuffix) {
  // The root's bcast buffer is the source: the flip persists there (and
  // travels), so its check fails and the trial runs live. On a non-root
  // rank the same flip is overwritten by the bcast and reconverges.
  const auto recording = record_rounds();
  const auto root = run_rounds(fault_at(*recording, 3, 0, Param::SendBuf),
                               recording);
  ASSERT_TRUE(root.fired);
  EXPECT_FALSE(root.result.reconverged);
  EXPECT_TRUE(root.result.clean());
  for (int r = 0; r < kRoundsRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(root.rounds.done[i], kRoundsOps) << "rank " << r;
    EXPECT_NE(root.rounds.out[i], -1.0) << "rank " << r;
  }

  const auto leaf = run_rounds(fault_at(*recording, 3, 1, Param::SendBuf),
                               recording);
  ASSERT_TRUE(leaf.fired);
  EXPECT_TRUE(leaf.result.reconverged);
}

TEST(Snapshot, ScalarParameterFaultNeverReconverges) {
  // A datatype flip from DOUBLE to UINT64 on one rank leaves an allreduce
  // MAX of positive doubles bit-identical, so the cut's buffers match the
  // recording. The injector still never vouches for a scalar fault: the
  // suffix runs, whatever the trial.
  const auto recording = record_rounds();
  const auto golden = golden_rounds();
  int golden_suffixes = 0;
  for (std::uint64_t trial = 0; trial < 128; ++trial) {
    const auto run = run_rounds(
        fault_at(*recording, 4, 1, Param::Datatype, trial), recording);
    ASSERT_TRUE(run.fired);
    EXPECT_FALSE(run.result.reconverged) << "trial " << trial;
    if (run.result.clean() && run.rounds.out == golden) ++golden_suffixes;
  }
  EXPECT_GT(golden_suffixes, 0);
}

TEST(Snapshot, GathervRecvBufFaultOverADisplacementGapRunsTheSuffix) {
  // The root gathers two doubles per rank at displacement `stride` * rank.
  // With stride 3 the receive buffer has gaps the gatherv never writes: a
  // flip there persists in the root's buffer after the suffix.
  // The mutated range covers those gaps, so the trial never reconverges.
  // With stride 2 the blocks tile the buffer and the flip is overwritten.
  const int n = 4;
  struct Gather {
    int stride;
    std::vector<int> done = std::vector<int>(4, 0);
    std::vector<std::uint64_t> out{};  ///< the root's final buffer, as bits
    void operator()(Mpi& mpi) {
      RegisteredBuffer<double> mine(mpi.registry(), 2);
      RegisteredBuffer<double> all(mpi.registry(),
                                   static_cast<std::size_t>(3 * stride + 2));
      mine[0] = 1.0 + mpi.rank();
      mine[1] = 0.5 * mpi.rank();
      std::vector<std::int32_t> counts(4, 2);
      std::vector<std::int32_t> displs{0, stride, 2 * stride, 3 * stride};
      int& ops = done[static_cast<std::size_t>(mpi.world_rank())];
      mpi.barrier();
      ++ops;
      mpi.gatherv(mine.data(), 2, kDouble, all.data(), counts, displs,
                  kDouble, 0);  // the cut
      ++ops;
      mpi.barrier();
      ++ops;
      if (mpi.rank() == 0) {
        out.resize(all.size());
        std::memcpy(out.data(), all.data(), all.size() * sizeof(double));
      }
    }
  };

  for (const int stride : {2, 3}) {
    auto o = opts(n);
    o.recorder = std::make_shared<PrefixRecorder>(n);
    Gather golden{stride};
    ASSERT_TRUE(World(o).run([&](Mpi& mpi) { golden(mpi); }).clean());
    const auto recording = o.recorder->finish();
    const auto& cut = recording->ops[0][1];
    ASSERT_EQ(cut.coll, CollectiveKind::Gatherv);

    int reconverged = 0;
    int wrong = 0;
    const std::uint64_t trials = 16;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      inject::Injector injector(
          fault_at(*recording, 1, 0, Param::RecvBuf, trial), 42);
      auto replay_opts = opts(n);
      replay_opts.replay =
          WorldSnapshot::build(recording, cut.site_id, cut.invocation);
      ASSERT_NE(replay_opts.replay, nullptr);
      World world(replay_opts);
      world.set_tools(&injector);
      Gather trial_run{stride};
      const auto result = world.run([&](Mpi& mpi) { trial_run(mpi); });
      ASSERT_TRUE(injector.fired());
      ASSERT_TRUE(result.clean());
      if (result.reconverged) {
        ++reconverged;
        EXPECT_TRUE(trial_run.out.empty());  // the root never got there
      } else {
        EXPECT_EQ(trial_run.done, std::vector<int>(4, 3));
        if (trial_run.out != golden.out) ++wrong;
      }
    }
    if (stride == 2) {
      EXPECT_EQ(reconverged, static_cast<int>(trials));
    } else {
      EXPECT_EQ(reconverged, 0);
      EXPECT_GT(wrong, 0);  // some flips landed in a gap
    }
  }
}

}  // namespace
}  // namespace fastfit::mpi
