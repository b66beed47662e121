#pragma once

// The fault-injection tool: a ToolHooks implementation armed with one
// FaultSpec per trial. The spec's *trigger* decides when the fault fires —
// the paper's exact (rank, site, invocation) point, a Bernoulli draw per
// call, the Nth call, or a uniformly chosen call from a window — and its
// *manifestation* decides what happens: a parameter mutation at the call
// record (the PMPI-shim deployment of the paper's Fig 5), an in-flight
// message corruption / delay / drop at the transport layer, or fail-stop
// rank death. A point-to-point spec (FaultSpec::family) targets a send or
// receive site instead: it fires at its exact point only and applies a
// parameter mutation only (check_p2p_fault_model). Every untargeted call
// passes through untouched.
//
// An Injector is a per-trial tool bound to one world, so it runs only on
// that world's thread and its state is plain fields.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "inject/fault_spec.hpp"
#include "minimpi/hooks.hpp"
#include "support/rng.hpp"

namespace fastfit::inject {

class Injector final : public mpi::ToolHooks {
 public:
  /// `seed` is the campaign master seed. Manifestation randomness (which
  /// bit, which byte) is drawn from the ("bitflip", spec.stream_index())
  /// stream and trigger randomness (Bernoulli draws, the uniform call
  /// choice) from the disjoint ("trigger", spec.stream_index()) stream, so
  /// trial t of a point is reproducible in isolation, independent of
  /// campaign execution order, and byte-identical to pre-v2 behaviour for
  /// the default exact-point trigger.
  Injector(FaultSpec spec, std::uint64_t seed);

  /// Rebinds the trial ordinal, and with it both RNG streams, before the
  /// trigger has fired: a fork-at-cut template built for one trial of a
  /// point serves every trial of it. An exact-point trigger seeds no
  /// trigger stream, here or at construction.
  void bind_trial(std::uint64_t trial);

  /// Runs on the injected rank at the cut: just before an ExactPoint
  /// fault fires, while the world is still fault-free. A template world
  /// parks inside the hook; it returns inside each forked trial child,
  /// which binds its trial there before the fault fires.
  using CutHook = std::function<void(mpi::Mpi&)>;
  void set_cut_hook(CutHook hook) { cut_hook_ = std::move(hook); }

  void on_enter(mpi::CollectiveCall& call, mpi::Mpi& mpi) override;
  void on_exit(const mpi::CollectiveCall& call, mpi::Mpi& mpi) override;

  /// Serves a point-to-point spec at its exact (rank, site, invocation):
  /// corrupts the call's parameter with bits drawn from the
  /// ("p2p-bitflip", spec.stream_index()) stream. A collective spec
  /// passes every point-to-point call through.
  void on_p2p(mpi::P2pCall& call, mpi::Mpi& mpi) override;

  /// Transport interception for the message-fault manifestations: once the
  /// trigger has armed the fault, the injected rank's next outgoing
  /// message is corrupted, held, or dropped.
  mpi::SendAction on_transport_send(int source_world, int dest_world,
                                    std::uint64_t tag,
                                    std::vector<std::byte>& payload) override;

  /// Vouches (minimpi/hooks.hpp) for a rank other than the injected one,
  /// for an exact-trigger parameter fault that fizzled, and for a buffer
  /// fault whose whole mutated range lies inside `spans`. Scalar faults
  /// never qualify.
  bool vouches_at_cut(int world_rank,
                      std::span<const mpi::WriteSpan> spans) const override;

  /// True once the trigger fired and the manifestation was applied.
  bool fired() const noexcept { return fired_; }

  /// True if the fault fired but had no corruptible substance (e.g.
  /// zero-length buffer, stuck-at bit already at its stuck value): the
  /// trial ran effectively fault-free.
  bool fizzled() const noexcept { return fizzled_; }

  const FaultSpec& spec() const noexcept { return spec_; }

 private:
  /// Trigger axis: does this call (on the injected rank) fire the fault?
  /// Only called on the injected rank's own fiber; the per-call counters
  /// and trigger RNG therefore count that rank's calls alone.
  bool trigger_fires(const mpi::CollectiveCall& call);

  /// Seeds the trigger stream of a trigger that draws from it, and for
  /// UniformOverRun draws the firing call.
  void seed_trigger();

  /// Manifestation axis, applied to the firing call.
  void manifest(mpi::CollectiveCall& call, mpi::Mpi& mpi);

  FaultSpec spec_;
  std::uint64_t seed_;
  bool fired_ = false;
  bool fizzled_ = false;
  /// A message-fault manifestation armed by the trigger; consumed by the
  /// first subsequent on_transport_send from the injected rank.
  bool transport_armed_ = false;
  /// Seeded only for the triggers that draw (all but ExactPoint).
  std::optional<RngStream> trigger_rng_;
  std::uint64_t calls_seen_ = 0;  ///< injected rank's collective calls
  std::uint64_t fire_at_ = 0;     ///< UniformOverRun: chosen call ordinal
  /// A repeating (duty-cycle) fault is fizzled only while *every* fire so
  /// far was a no-op; the first effective mutation latches this true.
  /// Injected-rank-only, like the counters above.
  bool manifested_ = false;
  /// The byte range a buffer-content fault was applied to.
  mpi::WriteSpan mutated_;
  CutHook cut_hook_;
};

}  // namespace fastfit::inject
