#include "trace/shadow_stack.hpp"

#include "support/error.hpp"

namespace fastfit::trace {
namespace {

constexpr StackId kEmptyId = 0x9e3779b97f4a7c15ULL;

/// Frames reserved on the first push. Workloads nest a few functions
/// deep, so one allocation per stack replaces the vector's 1, 2, 4
/// growth, which every trial world's ranks would otherwise repeat.
constexpr std::size_t kUsualDepth = 8;

}  // namespace

StackId empty_stack_id() noexcept { return kEmptyId; }

void ShadowStack::push(std::string_view name, std::uint64_t hash) {
  // Order-sensitive combination: mix the frame name's hash with the
  // parent id so [f, g] and [g, f] get distinct identities.
  StackId id = this->id();
  id ^= hash + 0x9e3779b97f4a7c15ULL + (id << 6) + (id >> 2);
  if (frames_.capacity() == 0) frames_.reserve(kUsualDepth);
  frames_.push_back(Frame{name, id});
}

void ShadowStack::leave() {
  if (frames_.empty()) {
    throw InternalError("ShadowStack::leave: underflow");
  }
  frames_.pop_back();
}

StackId ShadowStack::id() const noexcept {
  return frames_.empty() ? kEmptyId : frames_.back().id;
}

std::vector<std::string> ShadowStack::frames() const {
  std::vector<std::string> out;
  out.reserve(frames_.size());
  for (const auto& frame : frames_) out.emplace_back(frame.name);
  return out;
}

std::string_view ShadowStack::innermost() const noexcept {
  return frames_.empty() ? std::string_view("main") : frames_.back().name;
}

}  // namespace fastfit::trace
