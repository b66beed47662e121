#pragma once

// Per-rank application context: the state FastFIT's features are read
// from. Workloads annotate their structure through this object — function
// scopes feed the shadow stack and call graph, phases mark the paper's
// Phase feature (init / input / compute / end), and ErrorHandlingScope
// marks the paper's ErrHal feature (LAMMPS uses >40% of its allreduces in
// error-handling code). Campaign trial worlds keep no call graph: only
// the profiling run reads it.

#include <string_view>
#include <vector>

#include "trace/call_graph.hpp"
#include "trace/comm_trace.hpp"
#include "trace/shadow_stack.hpp"

namespace fastfit::trace {

/// The paper's execution-phase feature.
enum class ExecPhase : std::uint8_t { Init = 0, Input = 1, Compute = 2, End = 3 };

inline constexpr std::size_t kNumPhases = 4;

const char* to_string(ExecPhase phase) noexcept;

/// Whether a rank's contexts record call-graph edges. Only the profiling
/// run reads the graph (trace/similarity.cpp); trial worlds keep no call
/// graph, only the shadow stack that autopsies and pending-op signatures
/// read.
enum class CallGraphs : bool { Record, Skip };

class RankContext {
 public:
  explicit RankContext(CallGraphs graphs = CallGraphs::Record)
      : graphs_(graphs) {}

  /// Enters an application function: records the call-graph edge (unless
  /// the context skips the graph) and pushes the shadow frame. The frame
  /// views `name` without copying it, so the name must outlive the frame
  /// (a string literal does). Prefer FunctionScope.
  void enter_function(FrameName name) {
    if (graphs_ == CallGraphs::Record) {
      graph_.add_call(stack_.innermost(), name.name());
    }
    stack_.enter(name);
  }
  template <RuntimeFrameName S>
  void enter_function(const S& name) {
    if (graphs_ == CallGraphs::Record) {
      graph_.add_call(stack_.innermost(), name);
    }
    stack_.enter(name);
  }
  void leave_function() { stack_.leave(); }

  const ShadowStack& stack() const noexcept { return stack_; }
  CallGraph& graph() noexcept { return graph_; }
  const CallGraph& graph() const noexcept { return graph_; }
  CommTrace& comm_trace() noexcept { return comm_trace_; }
  const CommTrace& comm_trace() const noexcept { return comm_trace_; }

  void set_phase(ExecPhase phase) noexcept { phase_ = phase; }
  ExecPhase phase() const noexcept { return phase_; }

  void push_error_handler() noexcept { ++errhal_depth_; }
  void pop_error_handler() noexcept { --errhal_depth_; }
  bool in_error_handler() const noexcept { return errhal_depth_ > 0; }

 private:
  CallGraphs graphs_;
  ShadowStack stack_;
  CallGraph graph_;
  CommTrace comm_trace_;
  ExecPhase phase_ = ExecPhase::Init;
  int errhal_depth_ = 0;
};

/// RAII function frame that maintains both the shadow stack and the call
/// graph. `name` must outlive the scope.
class FunctionScope {
 public:
  FunctionScope(RankContext& ctx, FrameName name) : ctx_(&ctx) {
    ctx_->enter_function(name);
  }
  template <RuntimeFrameName S>
  FunctionScope(RankContext& ctx, const S& name) : ctx_(&ctx) {
    ctx_->enter_function(name);
  }
  ~FunctionScope() { ctx_->leave_function(); }
  FunctionScope(const FunctionScope&) = delete;
  FunctionScope& operator=(const FunctionScope&) = delete;

 private:
  RankContext* ctx_;
};

/// RAII marker for error-handling code regions (the ErrHal feature).
class ErrorHandlingScope {
 public:
  explicit ErrorHandlingScope(RankContext& ctx) : ctx_(&ctx) {
    ctx_->push_error_handler();
  }
  ~ErrorHandlingScope() { ctx_->pop_error_handler(); }
  ErrorHandlingScope(const ErrorHandlingScope&) = delete;
  ErrorHandlingScope& operator=(const ErrorHandlingScope&) = delete;

 private:
  RankContext* ctx_;
};

/// One RankContext per world rank, shared between the workload (writer)
/// and the tool hooks (readers). Indexing is wait-free; each rank touches
/// only its own slot.
class ContextRegistry {
 public:
  /// Campaign trial worlds pass CallGraphs::Skip.
  explicit ContextRegistry(int nranks, CallGraphs graphs = CallGraphs::Record)
      : contexts_(static_cast<std::size_t>(nranks), RankContext(graphs)) {}

  RankContext& of(int rank) {
    return contexts_.at(static_cast<std::size_t>(rank));
  }
  const RankContext& of(int rank) const {
    return contexts_.at(static_cast<std::size_t>(rank));
  }
  int size() const noexcept { return static_cast<int>(contexts_.size()); }

 private:
  /// Sized once: each context keeps its address for the registry's life.
  std::vector<RankContext> contexts_;
};

}  // namespace fastfit::trace
