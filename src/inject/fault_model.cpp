#include "inject/fault_model.hpp"

#include <charconv>
#include <csignal>
#include <sstream>

#include "support/bitops.hpp"
#include "support/error.hpp"

namespace fastfit::inject {

const char* to_string(FaultModel model) noexcept {
  switch (model) {
    case FaultModel::SingleBitFlip: return "single-bit-flip";
    case FaultModel::DoubleBitFlip: return "double-bit-flip";
    case FaultModel::StuckAtZero: return "stuck-at-zero";
    case FaultModel::RandomByte: return "random-byte";
    case FaultModel::StuckAtOne: return "stuck-at-one";
    case FaultModel::MessageCorrupt: return "message-corrupt";
    case FaultModel::MessageDelay: return "message-delay";
    case FaultModel::MessageDrop: return "message-drop";
    case FaultModel::RankDeath: return "rank-death";
    case FaultModel::SigSegv: return "sigsegv";
    case FaultModel::SigBus: return "sigbus";
    case FaultModel::SigFpe: return "sigfpe";
    case FaultModel::SigAbrt: return "sigabrt";
  }
  return "unknown";
}

int signal_number(FaultModel model) {
  switch (model) {
    case FaultModel::SigSegv: return SIGSEGV;
    case FaultModel::SigBus: return SIGBUS;
    case FaultModel::SigFpe: return SIGFPE;
    case FaultModel::SigAbrt: return SIGABRT;
    default:
      throw InternalError(std::string("signal_number: ") + to_string(model) +
                          " is not a signal manifestation");
  }
}

std::string parameter_fault_model_names() {
  std::string joined;
  for (std::size_t m = 0; m < kNumFaultModels; ++m) {
    const auto model = static_cast<FaultModel>(m);
    if (!is_parameter_model(model)) continue;
    if (!joined.empty()) joined += ", ";
    joined += to_string(model);
  }
  return joined;
}

void check_p2p_fault_model(const FaultModelSpec& spec) {
  if (!is_parameter_model(spec.model)) {
    throw ConfigError("fault model '" + spec.canonical() +
                      "' has no point-to-point parameter manifestation; "
                      "supported families: " +
                      parameter_fault_model_names());
  }
  if (spec.trigger != FaultTrigger::ExactPoint) {
    throw ConfigError("fault model '" + spec.canonical() +
                      "': point-to-point faults fire at their exact point "
                      "only, without an '@' trigger");
  }
}

const char* to_string(FaultTrigger trigger) noexcept {
  switch (trigger) {
    case FaultTrigger::ExactPoint: return "exact";
    case FaultTrigger::Probabilistic: return "prob";
    case FaultTrigger::NthCall: return "nth";
    case FaultTrigger::UniformOverRun: return "uniform";
    case FaultTrigger::DutyCycle: return "duty";
  }
  return "unknown";
}

std::string FaultModelSpec::canonical() const {
  std::ostringstream out;
  out << to_string(model);
  switch (trigger) {
    case FaultTrigger::ExactPoint:
      break;
    case FaultTrigger::Probabilistic:
      out << "@prob=" << probability;
      break;
    case FaultTrigger::NthCall:
      out << "@nth=" << window;
      break;
    case FaultTrigger::UniformOverRun:
      out << "@uniform=" << window;
      break;
    case FaultTrigger::DutyCycle:
      out << "@duty=" << duty_k << '/' << window;
      break;
  }
  return out.str();
}

namespace {

FaultModel parse_model_name(const std::string& name) {
  for (std::size_t m = 0; m < kNumFaultModels; ++m) {
    const auto model = static_cast<FaultModel>(m);
    if (name == to_string(model)) return model;
  }
  throw ConfigError("unknown fault model '" + name + "'");
}

std::uint64_t parse_trigger_u64(const std::string& text,
                                const std::string& spec) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || value == 0) {
    throw ConfigError("fault model '" + spec +
                      "': trigger parameter must be a positive integer");
  }
  return value;
}

}  // namespace

FaultModelSpec FaultModelSpec::parse(const std::string& text) {
  FaultModelSpec spec;
  const auto at = text.find('@');
  spec.model = parse_model_name(text.substr(0, at));
  if (at == std::string::npos) return spec;

  const std::string trig = text.substr(at + 1);
  const auto eq = trig.find('=');
  const std::string name = trig.substr(0, eq);
  const std::string param =
      eq == std::string::npos ? std::string{} : trig.substr(eq + 1);

  if (name == "exact") {
    if (!param.empty())
      throw ConfigError("fault model '" + text + "': exact takes no parameter");
    spec.trigger = FaultTrigger::ExactPoint;
  } else if (name == "prob") {
    spec.trigger = FaultTrigger::Probabilistic;
    try {
      std::size_t used = 0;
      spec.probability = std::stod(param, &used);
      if (used != param.size()) throw std::invalid_argument(param);
    } catch (const std::exception&) {
      throw ConfigError("fault model '" + text +
                        "': prob needs a numeric probability");
    }
    if (!(spec.probability > 0.0) || spec.probability > 1.0) {
      throw ConfigError("fault model '" + text +
                        "': probability must be in (0, 1]");
    }
  } else if (name == "nth") {
    spec.trigger = FaultTrigger::NthCall;
    spec.window = parse_trigger_u64(param, text);
  } else if (name == "uniform") {
    spec.trigger = FaultTrigger::UniformOverRun;
    spec.window = parse_trigger_u64(param, text);
  } else if (name == "duty") {
    spec.trigger = FaultTrigger::DutyCycle;
    const auto slash = param.find('/');
    if (slash == std::string::npos) {
      throw ConfigError("fault model '" + text +
                        "': duty needs a k/n duty cycle (e.g. @duty=1/4)");
    }
    spec.duty_k = parse_trigger_u64(param.substr(0, slash), text);
    spec.window = parse_trigger_u64(param.substr(slash + 1), text);
    if (spec.duty_k >= spec.window) {
      throw ConfigError("fault model '" + text +
                        "': duty cycle must satisfy 1 <= k < n");
    }
    // An intermittent fault that fires over and over only has repeatable
    // semantics for the in-place parameter mutators (the same stream
    // re-sticks the same bit). Message and fail-stop manifestations are
    // one-shot by nature; reject the combination instead of guessing.
    if (!is_parameter_model(spec.model)) {
      throw ConfigError("fault model '" + text +
                        "': duty requires a parameter manifestation (" +
                        parameter_fault_model_names() + ")");
    }
  } else {
    throw ConfigError("fault model '" + text + "': unknown trigger '" + name +
                      "' (expected exact, prob, nth, uniform, or duty)");
  }
  return spec;
}

std::vector<FaultModelSpec> parse_fault_models(const std::string& list) {
  std::vector<FaultModelSpec> specs;
  std::string entry;
  std::istringstream in(list);
  while (std::getline(in, entry, ',')) {
    const auto first = entry.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const auto last = entry.find_last_not_of(" \t");
    const auto spec = FaultModelSpec::parse(entry.substr(first, last - first + 1));
    for (const auto& seen : specs) {
      if (seen == spec) {
        throw ConfigError("duplicate fault model '" + spec.canonical() + "'");
      }
    }
    specs.push_back(spec);
  }
  if (specs.empty()) specs.push_back(FaultModelSpec{});
  return specs;
}

std::string canonical_fault_models(const std::vector<FaultModelSpec>& specs) {
  std::string joined;
  for (const auto& spec : specs) {
    if (!joined.empty()) joined += ',';
    joined += spec.canonical();
  }
  return joined;
}

bool mutate_bytes(std::span<std::byte> bytes, FaultModel model,
                  RngStream& rng) {
  if (bytes.empty()) return false;
  const std::size_t nbits = bytes.size() * 8;
  switch (model) {
    case FaultModel::SingleBitFlip: {
      flip_bit(bytes, rng.index(nbits));
      return true;
    }
    case FaultModel::DoubleBitFlip: {
      const std::size_t first = rng.index(nbits);
      std::size_t second = rng.index(nbits);
      if (nbits > 1) {
        while (second == first) second = rng.index(nbits);
      }
      flip_bit(bytes, first);
      if (second != first) flip_bit(bytes, second);
      return true;
    }
    case FaultModel::StuckAtZero: {
      const std::size_t bit = rng.index(nbits);
      auto& target = bytes[bit / 8];
      const auto mask = static_cast<std::byte>(1u << (bit % 8));
      const bool was_set = (target & mask) != std::byte{0};
      target &= ~mask;
      return was_set;
    }
    case FaultModel::RandomByte: {
      const std::size_t index = rng.index(bytes.size());
      const auto fresh =
          static_cast<std::byte>(rng.uniform_u64(0, 255));
      const bool changed = fresh != bytes[index];
      bytes[index] = fresh;
      return changed;
    }
    case FaultModel::StuckAtOne: {
      const std::size_t bit = rng.index(nbits);
      auto& target = bytes[bit / 8];
      const auto mask = static_cast<std::byte>(1u << (bit % 8));
      const bool was_clear = (target & mask) == std::byte{0};
      target |= mask;
      return was_clear;
    }
    case FaultModel::MessageCorrupt:
    case FaultModel::MessageDelay:
    case FaultModel::MessageDrop:
    case FaultModel::RankDeath:
    case FaultModel::SigSegv:
    case FaultModel::SigBus:
    case FaultModel::SigFpe:
    case FaultModel::SigAbrt:
      throw InternalError(
          std::string("mutate_bytes: ") + to_string(model) +
          " has no byte-range manifestation");
  }
  throw InternalError("mutate_bytes: unknown fault model");
}

}  // namespace fastfit::inject
