#include "minimpi/world.hpp"

#include <algorithm>
#include <exception>
#include <new>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "minimpi/arena.hpp"
#include "minimpi/fiber.hpp"
#include "minimpi/mpi.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::mpi {

const char* to_string(EventType type) noexcept {
  switch (type) {
    case EventType::AppDetected: return "APP_DETECTED";
    case EventType::MpiErr: return "MPI_ERR";
    case EventType::SegFault: return "SEG_FAULT";
    case EventType::Timeout: return "INF_LOOP";
    case EventType::RankDead: return "RANK_DEAD";
  }
  return "UNKNOWN";
}

WorldState::WorldState(const WorldOptions& options)
    : options_(options),
      progress_(options.nranks >= 1 ? options.nranks : 1) {
  if (options_.nranks < 1) {
    throw ConfigError("World: nranks must be at least 1");
  }
  const auto n = static_cast<std::size_t>(options_.nranks);
  doomed_ = std::make_unique<bool[]>(n);
  dead_ = std::make_unique<bool[]>(n);
  registries_.resize(n);
  mailboxes_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    mailboxes_.emplace_back(poison_).set_doom(static_cast<int>(r), &doomed_[r]);
  }
  std::vector<int> everyone(n);
  std::iota(everyone.begin(), everyone.end(), 0);
  world_members_ = everyone;
  comms_.push_back(CommEntry{std::move(everyone)});
}

void WorldState::poison_and_wake() {
  poison_.poison();
  if (drop_ != nullptr) {
    drop_->drop_rest();
    return;
  }
  for (auto& mailbox : mailboxes_) mailbox.wake();
}

void WorldState::report_event(int rank, const FaultEvent& event) {
  capture_event(rank, event, std::nullopt);
}

void WorldState::rebase_deadline(
    std::chrono::milliseconds watchdog,
    std::chrono::steady_clock::time_point cut) noexcept {
  deadline_ = std::chrono::steady_clock::now() + (watchdog - (cut - started_));
}

void WorldState::kill_rank(int world_rank) {
  doomed_[static_cast<std::size_t>(world_rank)] = true;
  // Wake the victim if it is parked in a mailbox wait; receive() rechecks
  // the doom flag on wake and raises RankKilled on the victim's fiber.
  mailbox(world_rank).wake();
}

std::vector<int> WorldState::alive_members() const {
  std::vector<int> alive;
  alive.reserve(static_cast<std::size_t>(options_.nranks));
  for (int r = 0; r < options_.nranks; ++r) {
    if (!rank_dead(r)) alive.push_back(r);
  }
  return alive;
}

void WorldState::report_rank_death(int rank, const RankKilled& event) {
  // Publish the death before capturing so the autopsy and any peer
  // analysis ("blocked on dead peer") see the Dead phase.
  progress_.publish_dead(rank);
  dead_[static_cast<std::size_t>(rank)] = true;

  if (!options_.repair) {
    capture_event(rank, event, std::nullopt);
    return;
  }
  // Repair mode: record the initiating death without poisoning, then
  // revoke every communicator that existed before this instant. The
  // shrunken communicator survivors build afterwards gets a larger table
  // index and is exempt.
  capture_event(rank, event, std::nullopt, /*poison=*/false);
  revoked_comm_limit_ = comms_.size();
  poison_.revoke();
  for (auto& mailbox : mailboxes_) mailbox.wake();
}

void WorldState::capture_event(int rank, const FaultEvent& event,
                               std::optional<WorldAutopsy> autopsy,
                               bool poison) {
  if (!event_) {
    CapturedEvent captured;
    captured.rank = rank;
    captured.message = event.what();
    if (const auto* mpi_error = dynamic_cast<const MpiError*>(&event)) {
      captured.type = EventType::MpiErr;
      captured.mpi_code = mpi_error->code();
    } else if (dynamic_cast<const SimSegFault*>(&event) != nullptr) {
      captured.type = EventType::SegFault;
    } else if (dynamic_cast<const AppError*>(&event) != nullptr) {
      captured.type = EventType::AppDetected;
    } else if (dynamic_cast<const SimTimeout*>(&event) != nullptr) {
      captured.type = EventType::Timeout;
    } else if (dynamic_cast<const RankKilled*>(&event) != nullptr) {
      captured.type = EventType::RankDead;
    } else {
      // WorldAborted never initiates; anything else is a library bug.
      throw InternalError(std::string("report_event: unexpected event: ") +
                          event.what());
    }
    if (auto& rec = telemetry::Recorder::instance();
        rec.enabled() && captured.type == EventType::Timeout) {
      // A proven deadlock and a watchdog expiry are different verdicts:
      // the first is structural, the second wall-clock.
      if (autopsy && autopsy->deterministic) {
        rec.instant("deadlock-proven", telemetry::Track::Monitor, 0,
                    "rank=" + std::to_string(rank));
        static auto& proven =
            rec.counter("fastfit_deadlocks_proven_total",
                        "Monitor-proven structural deadlocks");
        proven.add();
      } else {
        rec.instant("watchdog-fire", telemetry::Track::Monitor, 0,
                    "rank=" + std::to_string(rank));
        static auto& fires = rec.counter("fastfit_watchdog_fires_total",
                                         "Wall-clock watchdog expiries");
        fires.add();
      }
    }
    event_ = std::move(captured);
    // Attach forensics at poison time: either the deadlock verdict's
    // snapshot, or a live snapshot of the progress table as-is.
    autopsy_ = autopsy ? std::move(autopsy)
                       : build_autopsy(progress_, false, event.what());
  }
  if (poison) poison_and_wake();
}

bool WorldState::note_reconverged_rank() {
  if (++reconverged_count_ < options_.nranks || event_) return false;
  reconverged_ = true;
  poison_and_wake();
  return true;
}

Comm WorldState::register_comm(const std::string& key,
                               std::vector<int> members) {
  if (members.empty()) {
    throw InternalError("register_comm: empty member list");
  }
  if (auto it = comm_keys_.find(key); it != comm_keys_.end()) {
    const auto& existing = comms_[it->second].members;
    if (existing != members) {
      // Two ranks derived the same key for different groups: under a fault
      // this is a communicator-construction inconsistency a real MPI would
      // surface as a communicator error.
      throw MpiError(MpiErrc::InvalidComm,
                     "inconsistent group for communicator key '" + key + "'");
    }
    return make_comm(it->second);
  }
  const auto index = static_cast<RawHandle>(comms_.size());
  if (index > kIndexMask) {
    throw InternalError("register_comm: communicator table exhausted");
  }
  comms_.push_back(CommEntry{std::move(members)});
  comm_keys_.emplace(key, index);
  return make_comm(index);
}

const std::vector<int>& WorldState::group_of_registered(Comm comm) const {
  const RawHandle h = raw(comm);
  if (!has_magic(h, kCommMagic) || handle_index(h) >= comms_.size()) {
    throw MpiError(MpiErrc::InvalidComm, "handle 0x" + std::to_string(h));
  }
  return comms_[handle_index(h)].members;
}

int WorldState::comm_rank_of_registered(Comm comm, int world_rank) const {
  const auto& members = group_of(comm);
  const auto it = std::find(members.begin(), members.end(), world_rank);
  if (it == members.end()) return -1;
  return static_cast<int>(it - members.begin());
}

void WorldState::declare_deadlock() {
  const auto& snaps = progress_.snapshot_all();
  std::string verdict = analyze_deadlock(snaps);
  const auto blocked =
      std::find_if(snaps.begin(), snaps.end(), [](const RankSnapshot& snap) {
        return snap.phase == RankPhase::Blocked;
      });
  const int reporter = blocked == snaps.end()
                           ? -1
                           : static_cast<int>(blocked - snaps.begin());

  std::string message = "deterministic deadlock: " + verdict;
  if (reporter >= 0 && blocked->has_op) {
    message += "; rank " + std::to_string(reporter) + " blocked in " +
               blocked->sig.describe();
  }
  capture_event(reporter >= 0 ? reporter : 0, SimTimeout(message),
                build_autopsy(progress_, true, std::move(verdict)));
}

World::World(WorldOptions options)
    : state_(std::make_unique<WorldState>(options)) {}

World::~World() = default;

void World::set_tools(ToolHooks* tools) noexcept { state_->tools_ = tools; }

WorldResult World::run(const std::function<void(Mpi&)>& rank_main) {
  if (ran_) throw InternalError("World::run: a World is single-use");
  ran_ = true;

  WorldState* const state = state_.get();
  const int nranks = state->options_.nranks;
  state->started_ = std::chrono::steady_clock::now();
  state->deadline_ = state->started_ + state->options_.watchdog;

  if (const auto& replay = state->options_.replay) {
    if (static_cast<int>(replay->cut.size()) != nranks) {
      throw ConfigError("World::run: snapshot rank count mismatch");
    }
    // Messages in flight across the snapshot cut (sent in the prefix,
    // received in the suffix) are seeded before any rank launches, so the
    // suffix finds them already queued, exactly as at the cut.
    for (const auto& pre : replay->preseed) {
      Message message;
      message.source = pre.source_comm;
      message.tag = pre.transport_tag;
      if (pre.payload) {
        message.payload.assign(pre.payload->begin(), pre.payload->end());
      }
      state->mailbox(pre.dest_world).deliver(std::move(message));
    }
  }

  // The scheduler lives on this stack frame: a fiber can never outlive
  // run(). In a trial-arena world the first poison ends the run: the
  // scheduler drops every fiber but the one that raised it, and the
  // dropped fibers' memory stays in the thread's rank arena until the
  // next trial world releases it here. Any other world drains: every
  // MiniMPI wait is a cancellation point, so a resumed fiber always
  // unwinds, and the scheduler does not return until all of them have.
  RankArena* const arena =
      state->options_.trial_arena ? RankArena::for_this_thread() : nullptr;
  if (arena != nullptr) arena->release();
  FiberScheduler sched(nranks);
  for (int r = 0; r < nranks; ++r) {
    state->mailbox(r).set_fiber_waker(&sched, r);
  }
  state->drop_ = arena != nullptr ? &sched : nullptr;

  // One rank-main span per rank, on the rank's own trace lane: from its
  // first resume until it returns or, for a dropped rank, until the world
  // ends.
  auto& rec = telemetry::Recorder::instance();
  std::vector<std::int64_t> rank_start(
      rec.enabled() ? static_cast<std::size_t>(nranks) : 0, -1);
  const auto end_rank_span = [&rec, &rank_start](int r) {
    if (rank_start.empty()) return;
    const std::int64_t now = rec.now_us();
    auto& start = rank_start[static_cast<std::size_t>(r)];
    if (start < 0) start = now;  // dropped before it started
    telemetry::Event span;
    span.name = "rank-main";
    span.start_us = start;
    span.dur_us = now - start;
    span.track = telemetry::Track::Rank;
    span.index = r;
    rec.record(std::move(span));
  };

  const auto body = [state, &rank_main, &rec, &rank_start,
                     &end_rank_span](int r) {
    if (!rank_start.empty()) {
      rank_start[static_cast<std::size_t>(r)] = rec.now_us();
    }
    // A rank that has not started when its world is poisoned never runs:
    // it owns nothing yet, and the outcome and autopsy are already fixed.
    // A revocation (repair mode) is not a poison; survivors start and
    // shrink.
    if (state->poisoned()) {
      state->progress_.publish_exited(r);
      end_rank_span(r);
      return;
    }
    Mpi mpi(*state, r);
    try {
      rank_main(mpi);
    } catch (const WorldAborted&) {
      // Subordinate teardown; the initiating rank already reported.
    } catch (const RankKilled& event) {
      // Fail-stop: this rank dies here. Repair-off poisons the world;
      // repair-on revokes the old communicators and lets survivors shrink
      // and continue.
      state->report_rank_death(r, event);
    } catch (const RankRevoked&) {
      // A survivor that could not (or chose not to) repair after a peer's
      // death: subordinate to the already-captured RankDead event, exactly
      // like WorldAborted.
    } catch (const FaultEvent& event) {
      state->report_event(r, event);
    } catch (const std::bad_alloc&) {
      // A corrupted size that slipped past application checks exhausted
      // memory: on a real cluster the OOM killer takes the job down, the
      // same observable as a crash.
      state->report_event(
          r, SimSegFault(0, 0, "allocation failure (OOM kill)"));
    } catch (const std::length_error&) {
      state->report_event(r, SimSegFault(0, 0, "absurd allocation request"));
    } catch (...) {
      if (!state->internal_error_) {
        state->internal_error_ = std::current_exception();
      }
      state->poison_and_wake();
    }
    // A clean early exit simply stops participating, which the idle scan
    // then proves out as a blocked-on-exited-peer deadlock.
    state->progress_.publish_exited(r);
    end_rank_span(r);
  };

  sched.run(body, [&state, &sched] { state->fiber_idle(sched); }, arena);
  state->drop_ = nullptr;

  // Detach the wake routing before the scheduler leaves this frame: a
  // kill_rank after run() returns then sees a null hook, never a
  // dangling one.
  std::uint64_t dropped = 0;
  for (int r = 0; r < nranks; ++r) {
    state->mailbox(r).set_fiber_waker(nullptr, -1);
    if (!sched.done(r)) {
      ++dropped;
      end_rank_span(r);
    }
  }
  if (dropped > 0 && rec.enabled()) {
    static auto& drops = rec.counter(
        "fastfit_fibers_dropped_total",
        "Rank fibers a poisoned trial world dropped instead of unwinding");
    drops.add(dropped);
  }

  if (state->internal_error_) std::rethrow_exception(state->internal_error_);

  // Post-trial audit: with every rank unwound, all RAII registrations must
  // be gone and (on a clean run) all sends consumed. A dropped rank never
  // unwound; its registry dies with the world.
  WorldResult result;
  for (int r = 0; r < nranks; ++r) {
    if (sched.done(r)) {
      result.leaked_regions +=
          state->registries_[static_cast<std::size_t>(r)].region_count();
    }
  }
  for (const auto& mailbox : state->mailboxes_) {
    result.undelivered_messages += mailbox.pending();
  }

  const int dead =
      nranks - static_cast<int>(state->alive_members().size());
  result.rank_died = dead > 0;
  // Repaired means every survivor ran its repair hook to completion; a
  // survivor that aborted mid-repair leaves the count short and the trial
  // classifies as RANK_DEAD.
  result.repaired =
      state->options_.repair && dead > 0 &&
      state->repaired_count_ == nranks - dead;
  result.reconverged = state->reconverged_;
  result.event = state->event_;
  result.autopsy = state->autopsy_;
  return result;
}

void WorldState::fiber_idle(FiberScheduler& sched) {
  // Pass 1: wake anything that can still make progress. A doomed or
  // poisoned rank must observe its fate at the next cancellation point,
  // and a blocked rank whose awaited (source, tag) is already queued is
  // about to match (deliveries wake the owner eagerly; this scan is the
  // idle-time backstop).
  bool woke = false;
  const auto blocked = sched.blocked();
  for (int r : blocked) {
    bool wake = rank_doomed(r) || poison_.poisoned();
    if (!wake) {
      const auto& snap = progress_.snapshot(r);
      wake = snap.has_op && snap.sig.wait_source >= 0 &&
             mailbox(r).has_match(snap.sig.wait_source, snap.sig.wait_tag);
    }
    if (wake) {
      sched.make_ready(r);
      woke = true;
    }
  }
  if (woke || blocked.empty()) return;

  // Quiescence: no runnable fiber, no queued message any blocked fiber
  // awaits, and provably no send in flight (sends are synchronous on this
  // very thread). This IS the structural deadlock — in one-rank worlds
  // too, and with a revocation in flight: report_rank_death woke every
  // fiber blocked at that instant, and Mailbox::receive rechecks the
  // revocation before every park, so a fiber still blocked here waits on
  // a communicator the revocation does not reach.
  declare_deadlock();
}

}  // namespace fastfit::mpi
