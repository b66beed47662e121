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
// frame. Workloads pass string literals, which always do.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fastfit::trace {

/// Stable identity of a call stack (hash of the frame-name sequence).
using StackId = std::uint64_t;

/// The StackId of the empty stack ("main" only).
StackId empty_stack_id() noexcept;

class ShadowStack {
 public:
  /// Pushes a frame. `function` is viewed, not copied, so its characters
  /// must outlive the frame (a string literal does). Prefer TraceScope for
  /// exception safety.
  void enter(std::string_view function);

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
  TraceScope(ShadowStack& stack, std::string_view function) : stack_(&stack) {
    stack_->enter(function);
  }
  ~TraceScope() { stack_->leave(); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  ShadowStack* stack_;
};

}  // namespace fastfit::trace
