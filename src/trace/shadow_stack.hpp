#pragma once

// Shadow call stack: the portable stand-in for glibc backtrace().
//
// The paper identifies equivalent invocations by their call stacks ("the
// active functions are the same and called in the same order, but their
// function parameters may not necessarily be the same" — Sec III-B).
// Workloads annotate function entry with TraceScope; the stack identity is
// a running hash of frame names, so two invocations share a StackId iff
// their active-function sequences match exactly.
//
// A frame keeps a view of its name, not a copy: the name must outlive the
// frame. Workloads pass string literals, which always do, and whose hash
// the compiler takes (FrameName), so a push hashes nothing at run time.

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/rng.hpp"

namespace fastfit::trace {

/// Stable identity of a call stack (hash of the frame-name sequence).
using StackId = std::uint64_t;

/// The StackId of the empty stack ("main" only).
StackId empty_stack_id() noexcept;

/// A frame name written as a string literal, with its FNV-1a hash taken at
/// compile time. Converts implicitly from a literal, so
/// `FunctionScope(ctx, "ssor")` builds one.
class FrameName {
 public:
  template <std::size_t N>
  consteval FrameName(const char (&literal)[N])  // NOLINT: implicit
      : name_(literal), hash_(fnv1a(name_)) {}

  constexpr std::string_view name() const noexcept { return name_; }
  constexpr std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::string_view name_;
  std::uint64_t hash_;
};

/// A frame name known only at run time (a pointer or string, not a
/// literal): hashed on every push.
template <typename S>
concept RuntimeFrameName =
    std::convertible_to<const S&, std::string_view> && !std::is_array_v<S>;

class ShadowStack {
 public:
  /// Pushes a frame. `function` is viewed, not copied, so its characters
  /// must outlive the frame (a string literal does). Prefer TraceScope for
  /// exception safety.
  void enter(FrameName function) { push(function.name(), function.hash()); }
  template <RuntimeFrameName S>
  void enter(const S& function) {
    const std::string_view name(function);
    push(name, fnv1a(name));
  }

  /// Pops the innermost frame. Throws InternalError on underflow.
  void leave();

  /// Identity of the current stack; O(1).
  StackId id() const noexcept;

  /// Nesting depth below main; the paper's StackDep feature.
  std::size_t depth() const noexcept { return frames_.size(); }

  /// The active-function names, outermost first (backtrace-style view).
  std::vector<std::string> frames() const;

  /// Innermost frame name, or "main" when at the bottom.
  std::string_view innermost() const noexcept;

 private:
  /// Pushes `name`, whose FNV-1a hash is `hash`.
  void push(std::string_view name, std::uint64_t hash);

  struct Frame {
    std::string_view name;  // viewed; outlives the frame (see enter)
    StackId id;  // hash of the stack up to and including this frame
  };
  std::vector<Frame> frames_;
};

/// RAII frame marker; `function` must outlive the scope:
///
///   void compute_rhs(AppContext& ctx) {
///     trace::TraceScope scope(ctx.stack, "compute_rhs");
///     ...
///   }
class TraceScope {
 public:
  TraceScope(ShadowStack& stack, FrameName function) : stack_(&stack) {
    stack_->enter(function);
  }
  ~TraceScope() { stack_->leave(); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  ShadowStack* stack_;
};

}  // namespace fastfit::trace
