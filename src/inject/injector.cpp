#include "inject/injector.hpp"

#include <algorithm>
#include <csignal>

#include "inject/corrupt.hpp"
#include "minimpi/mpi.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace fastfit::inject {
namespace {

// Whether `range` lies inside the union of `spans` (adjacent blocks of a
// vector collective may cover it together).
bool covered(const mpi::WriteSpan& range,
             std::span<const mpi::WriteSpan> spans) {
  auto cursor = reinterpret_cast<std::uintptr_t>(range.ptr);
  const auto end = cursor + range.bytes;
  while (cursor < end) {
    const auto it = std::find_if(
        spans.begin(), spans.end(), [cursor](const mpi::WriteSpan& span) {
          const auto begin = reinterpret_cast<std::uintptr_t>(span.ptr);
          return begin <= cursor && cursor < begin + span.bytes;
        });
    if (it == spans.end()) return false;
    cursor = reinterpret_cast<std::uintptr_t>(it->ptr) + it->bytes;
  }
  return true;
}

}  // namespace

Injector::Injector(FaultSpec spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  seed_trigger();
}

void Injector::bind_trial(std::uint64_t trial) {
  spec_.trial = trial;
  seed_trigger();
}

void Injector::seed_trigger() {
  // An exact point never draws, so it seeds nothing.
  if (spec_.fault.trigger == FaultTrigger::ExactPoint) return;
  trigger_rng_.emplace(seed_, "trigger", spec_.stream_index());
  if (spec_.fault.trigger == FaultTrigger::UniformOverRun) {
    // One uniform draw over the window, made up front so the choice is a
    // pure function of (seed, point, trial) and not of run length. Runs
    // shorter than the window simply never fire (the fault fizzles).
    fire_at_ = spec_.fault.window > 0
                   ? trigger_rng_->uniform_u64(0, spec_.fault.window - 1)
                   : 0;
  }
}

bool Injector::trigger_fires(const mpi::CollectiveCall& call) {
  switch (spec_.fault.trigger) {
    case FaultTrigger::ExactPoint:
      return call.site_id == spec_.site_id &&
             call.invocation == spec_.invocation;
    case FaultTrigger::Probabilistic:
      ++calls_seen_;
      return trigger_rng_->bernoulli(spec_.fault.probability);
    case FaultTrigger::NthCall:
      // window is 1-based: nth=1 fires on the rank's first collective.
      return ++calls_seen_ == spec_.fault.window;
    case FaultTrigger::UniformOverRun:
      return calls_seen_++ == fire_at_;
    case FaultTrigger::DutyCycle:
      // First k of every n calls: an intermittent fault with period n.
      return (calls_seen_++ % spec_.fault.window) < spec_.fault.duty_k;
  }
  throw InternalError("Injector: unknown fault trigger");
}

void Injector::manifest(mpi::CollectiveCall& call, mpi::Mpi& mpi) {
  const FaultModel model = spec_.fault.model;
  if (is_parameter_model(model)) {
    // The stream is re-derived per fire, so a repeating trigger (duty
    // cycle) corrupts the *same* bit every time — a genuine intermittent
    // stuck-at, not a fresh random upset per call.
    RngStream rng(seed_, "bitflip", spec_.stream_index());
    if (corrupt_parameter(call, spec_.param, model, rng, mpi, &mutated_)) {
      manifested_ = true;
      fizzled_ = false;
    } else if (!manifested_) {
      // Fizzled only counts while *no* fire has ever bitten: a repeating
      // fault is effective as soon as any one of its fires changes state.
      fizzled_ = true;
    }
    return;
  }
  if (is_message_model(model)) {
    // Arm the transport layer: the injected rank's next outgoing message
    // (normally the first phase message of this very collective) takes
    // the fault.
    transport_armed_ = true;
    return;
  }
  if (is_signal_model(model)) {
    // Genuine signal on the injected rank's fiber: the default
    // disposition kills the entire trial process, which is the point —
    // the fork-server supervisor classifies the death SEG_FAULT. The
    // disposition is reset first, so a handler installed in the worker
    // (a sanitizer runtime's, say) cannot turn the death into an exit.
    // Only reachable under process isolation (Campaign rejects signal
    // models for the in-process backend at construction).
    std::signal(signal_number(model), SIG_DFL);
    std::raise(signal_number(model));
    // raise() returning means something intercepted the signal; that is
    // a harness condition, not a trial outcome.
    throw InternalError(std::string("Injector: ") + to_string(model) +
                        " survived raise(); signal intercepted?");
  }
  // Fail-stop: this rank dies here, mid-collective, on its own fiber.
  throw RankKilled(spec_.rank, "rank " + std::to_string(spec_.rank) +
                                   " fail-stop at " + spec_.describe());
}

void Injector::on_enter(mpi::CollectiveCall& call, mpi::Mpi& mpi) {
  // One-shot triggers latch on the first fire; a duty cycle keeps firing
  // for the life of the run (that is what makes it intermittent).
  const bool repeating = spec_.fault.trigger == FaultTrigger::DutyCycle;
  if (!repeating && fired_) return;
  if (mpi.world_rank() != spec_.rank) return;
  if (!trigger_fires(call)) return;

  if (cut_hook_ && spec_.fault.trigger == FaultTrigger::ExactPoint) {
    cut_hook_(mpi);
  }
  fired_ = true;
  manifest(call, mpi);
}

void Injector::on_exit(const mpi::CollectiveCall&, mpi::Mpi&) {}

void Injector::on_p2p(mpi::P2pCall& call, mpi::Mpi& mpi) {
  if (spec_.family != mpi::SiteFamily::P2p || fired_) return;
  if (mpi.world_rank() != spec_.rank || call.site_id != spec_.site_id ||
      call.invocation != spec_.invocation) {
    return;
  }
  fired_ = true;
  RngStream rng(seed_, "p2p-bitflip", spec_.stream_index());
  fizzled_ = !corrupt_p2p_parameter(call, spec_.p2p_param, spec_.fault.model,
                                    rng, mpi);
}

bool Injector::vouches_at_cut(int world_rank,
                              std::span<const mpi::WriteSpan> spans) const {
  if (world_rank != spec_.rank) return true;
  // An exact parameter fault fires once, at the cut, and never again; any
  // other trigger or manifestation may still act in the suffix.
  if (!fired_ || spec_.fault.trigger != FaultTrigger::ExactPoint ||
      !is_parameter_model(spec_.fault.model)) {
    return false;
  }
  if (fizzled_) return true;
  // Scalar parameters (and the count arrays, in application memory) are
  // never rewritten by the collective they corrupted.
  if (spec_.param != mpi::Param::SendBuf &&
      spec_.param != mpi::Param::RecvBuf) {
    return false;
  }
  return covered(mutated_, spans);
}

mpi::SendAction Injector::on_transport_send(int source_world, int /*dest*/,
                                            std::uint64_t /*tag*/,
                                            std::vector<std::byte>& payload) {
  if (!transport_armed_) {
    return mpi::SendAction::Deliver;
  }
  if (source_world != spec_.rank) return mpi::SendAction::Deliver;
  transport_armed_ = false;
  switch (spec_.fault.model) {
    case FaultModel::MessageCorrupt: {
      if (payload.empty()) {
        // Nothing to corrupt (e.g. a barrier token): the fault fizzles
        // and the pristine message is delivered.
        fizzled_ = true;
        return mpi::SendAction::Deliver;
      }
      RngStream rng(seed_, "bitflip", spec_.stream_index());
      mutate_bytes(std::span<std::byte>(payload.data(), payload.size()),
                   FaultModel::SingleBitFlip, rng);
      return mpi::SendAction::Deliver;
    }
    case FaultModel::MessageDelay:
      return mpi::SendAction::Hold;
    case FaultModel::MessageDrop:
      return mpi::SendAction::Drop;
    default:
      throw InternalError("Injector: transport armed for non-message model");
  }
}

}  // namespace fastfit::inject
