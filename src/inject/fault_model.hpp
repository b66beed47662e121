#pragma once

// Fault models.
//
// The paper's model is a single random bit flip. Real upsets also appear
// as multi-bit flips (adjacent cells), stuck-at faults, and whole-byte
// corruption (bus/latch errors); these ship as ablation variants so the
// sensitivity of the paper's conclusions to the fault model itself can be
// measured (bench/ablation_fault_models).
//
// v2 makes the model two-axis (docs/fault_models.md): a *manifestation*
// (what the fault does — parameter mutation, in-flight message corruption,
// delay, drop, or fail-stop rank death) crossed with a *trigger* (when it
// fires — the paper's exact (site,rank,invocation) point, probabilistic
// per-call, crash-on-Nth-call, or uniform-over-run). A FaultModelSpec names
// one (manifestation, trigger) pair with a canonical string form
// "model[@trigger[=param]]" used by --fault-models, describe(), and the
// trial journal.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "support/rng.hpp"

namespace fastfit::inject {

enum class FaultModel : std::uint8_t {
  SingleBitFlip = 0,   ///< the paper's model
  DoubleBitFlip = 1,   ///< two distinct random bits
  StuckAtZero = 2,     ///< a random bit forced to 0 (no-op on a clear bit)
  RandomByte = 3,      ///< one byte replaced with a random value
  StuckAtOne = 4,      ///< a random bit forced to 1 (no-op on a set bit)
  MessageCorrupt = 5,  ///< one bit flipped in an in-flight message payload
  MessageDelay = 6,    ///< one outgoing message held back, delivered late
  MessageDrop = 7,     ///< one outgoing message silently discarded
  RankDeath = 8,       ///< fail-stop: the rank dies at the trigger point
  // Real-signal manifestations: the injected rank raises a genuine POSIX
  // signal at the trigger point, killing the whole trial process. Only
  // valid under --isolation process (Campaign rejects them otherwise);
  // the fork-server supervisor classifies the worker's death SEG_FAULT
  // with the signal number and rusage as forensics.
  SigSegv = 9,   ///< raise(SIGSEGV)
  SigBus = 10,   ///< raise(SIGBUS)
  SigFpe = 11,   ///< raise(SIGFPE)
  SigAbrt = 12,  ///< raise(SIGABRT)
};

inline constexpr std::size_t kNumFaultModels = 13;

/// Manifestations that mutate a call parameter in place (the bit/byte
/// mutators). Only these flow through corrupt_parameter/mutate_bytes.
constexpr bool is_parameter_model(FaultModel model) noexcept {
  return model == FaultModel::SingleBitFlip ||
         model == FaultModel::DoubleBitFlip ||
         model == FaultModel::StuckAtZero ||
         model == FaultModel::RandomByte || model == FaultModel::StuckAtOne;
}

/// Manifestations that act on the transport layer (in-flight messages).
constexpr bool is_message_model(FaultModel model) noexcept {
  return model == FaultModel::MessageCorrupt ||
         model == FaultModel::MessageDelay || model == FaultModel::MessageDrop;
}

/// Manifestations that raise a genuine POSIX signal, killing the trial
/// process. Require process isolation; the campaign refuses them under
/// the in-process thread backend.
constexpr bool is_signal_model(FaultModel model) noexcept {
  return model == FaultModel::SigSegv || model == FaultModel::SigBus ||
         model == FaultModel::SigFpe || model == FaultModel::SigAbrt;
}

/// The POSIX signal number a signal manifestation raises. Throws
/// InternalError for non-signal models.
int signal_number(FaultModel model);

const char* to_string(FaultModel model) noexcept;

// ---------------------------------------------------------------------------
// Trigger axis
// ---------------------------------------------------------------------------

enum class FaultTrigger : std::uint8_t {
  ExactPoint = 0,      ///< the paper's (site, rank, invocation) point
  Probabilistic = 1,   ///< independent Bernoulli(p) draw per matching call
  NthCall = 2,         ///< fires on the rank's Nth matching call (1-based)
  UniformOverRun = 3,  ///< one call chosen uniformly from a window of W calls
  /// Intermittent duty cycle: fires on the first k of every n collective
  /// calls the injected rank makes ("@duty=k/n"), modelling a marginal
  /// cell that manifests periodically — e.g. "stuck-at-one@duty=1/4" is a
  /// bit stuck high a quarter of the time. Unlike the one-shot triggers
  /// the fault fires on *every* matching call, with the same
  /// manifestation stream each time (the same bit sticks). Parameter
  /// manifestations only.
  DutyCycle = 4,
};

inline constexpr std::size_t kNumFaultTriggers = 5;

const char* to_string(FaultTrigger trigger) noexcept;

/// One point in the manifestation × trigger plane. The default-constructed
/// spec is exactly the paper's model (single bit flip at the enumerated
/// point), so pre-v2 behaviour is the zero configuration.
struct FaultModelSpec {
  FaultModel model = FaultModel::SingleBitFlip;
  FaultTrigger trigger = FaultTrigger::ExactPoint;
  double probability = 0.0;   ///< Probabilistic: per-call fire probability
  std::uint64_t window = 0;   ///< NthCall: N; UniformOverRun: W; DutyCycle: n
  std::uint64_t duty_k = 0;   ///< DutyCycle: fires on the first k of n calls

  bool operator==(const FaultModelSpec&) const = default;

  bool is_default() const noexcept {
    return *this == FaultModelSpec{};
  }

  /// Canonical text form: "single-bit-flip", "rank-death@nth=3",
  /// "message-drop@prob=0.001", "random-byte@uniform=16",
  /// "stuck-at-one@duty=1/4". The default trigger (exact point) is
  /// omitted so the default spec round-trips to the pre-v2 model name.
  std::string canonical() const;

  /// Parses the canonical form; throws ConfigError on unknown names,
  /// malformed parameters, or out-of-range values.
  static FaultModelSpec parse(const std::string& text);
};

/// Parses a comma-separated list of canonical specs ("single-bit-flip,
/// rank-death"). An empty string yields the default single-spec list.
/// Throws ConfigError on any malformed entry or duplicate spec.
std::vector<FaultModelSpec> parse_fault_models(const std::string& list);

/// Comma-joined canonical forms, the inverse of parse_fault_models.
std::string canonical_fault_models(const std::vector<FaultModelSpec>& specs);

/// Comma-joined names of the parameter-mutation family ("single-bit-flip,
/// double-bit-flip, ..."), for error messages that must list what a
/// parameter-only surface (e.g. the p2p study) supports.
std::string parameter_fault_model_names();

/// Throws ConfigError unless a point-to-point site can take `spec`: the
/// injector's p2p hook applies a parameter mutation at the exact point
/// and nothing else.
void check_p2p_fault_model(const FaultModelSpec& spec);

/// True when a trial under this spec may take the snapshot fast path.
/// Message-level and fail-stop manifestations perturb transport state the
/// prefix recording does not capture, and non-exact triggers can fire
/// inside the replayed prefix — both classes must execute from scratch.
constexpr bool is_replayable(const FaultModelSpec& spec) noexcept {
  return spec.trigger == FaultTrigger::ExactPoint &&
         is_parameter_model(spec.model);
}

/// Applies `model` to the byte range. Returns false when the mutation is
/// provably a no-op (e.g. stuck-at-zero on an already-clear bit) — the
/// fault landed but changed nothing, which callers may count as a
/// non-manifested fault. Empty ranges return false. Only parameter models
/// are valid here; message/fail-stop manifestations have no byte-range
/// semantics and throw InternalError.
bool mutate_bytes(std::span<std::byte> bytes, FaultModel model,
                  RngStream& rng);

/// Applies `model` to a trivially-copyable value, returning the mutated
/// copy. `changed` (optional) reports whether the value differs.
template <typename T>
  requires std::is_trivially_copyable_v<T>
T mutate_value(T value, FaultModel model, RngStream& rng,
               bool* changed = nullptr) {
  std::byte raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  const bool mutated =
      mutate_bytes(std::span<std::byte>(raw, sizeof(T)), model, rng);
  T out;
  std::memcpy(&out, raw, sizeof(T));
  if (changed != nullptr) *changed = mutated && std::memcmp(&out, &value, sizeof(T)) != 0;
  return out;
}

}  // namespace fastfit::inject
