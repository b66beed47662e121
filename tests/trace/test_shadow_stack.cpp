#include "trace/shadow_stack.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/error.hpp"

namespace fastfit::trace {
namespace {

TEST(ShadowStack, EmptyStackIdentity) {
  ShadowStack stack;
  EXPECT_EQ(stack.id(), empty_stack_id());
  EXPECT_EQ(stack.depth(), 0u);
  EXPECT_EQ(stack.innermost(), "main");
}

TEST(ShadowStack, EnterLeaveRestoresIdentity) {
  ShadowStack stack;
  const StackId before = stack.id();
  stack.enter("solve");
  EXPECT_NE(stack.id(), before);
  EXPECT_EQ(stack.depth(), 1u);
  EXPECT_EQ(stack.innermost(), "solve");
  stack.leave();
  EXPECT_EQ(stack.id(), before);
}

TEST(ShadowStack, SameFrameSequenceSameId) {
  ShadowStack a, b;
  for (const char* fn : {"main_loop", "compute", "reduce_local"}) {
    a.enter(fn);
    b.enter(fn);
  }
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.frames(), b.frames());
}

TEST(ShadowStack, LiteralAndRuntimeNamesGiveTheSameId) {
  // A literal's hash is taken at compile time, any other name's at run
  // time; the identities must not tell them apart, nor differ from the
  // FNV-1a combination context pruning has always keyed on.
  ShadowStack literal, runtime;
  literal.enter("ssor");
  literal.enter("rhs");
  const std::string outer = "ssor";
  const char* inner = "rhs";
  runtime.enter(outer);
  runtime.enter(inner);
  EXPECT_EQ(literal.id(), runtime.id());
  EXPECT_EQ(literal.id(), 0xd8697ad27414ebe2ULL);
  EXPECT_EQ(FrameName("rhs").hash(), fnv1a("rhs"));
}

TEST(ShadowStack, OrderMattersForIdentity) {
  ShadowStack a, b;
  a.enter("f");
  a.enter("g");
  b.enter("g");
  b.enter("f");
  EXPECT_NE(a.id(), b.id());
}

TEST(ShadowStack, DepthMattersForIdentity) {
  // [f] vs [f, f]: recursion must change the identity.
  ShadowStack a, b;
  a.enter("f");
  b.enter("f");
  b.enter("f");
  EXPECT_NE(a.id(), b.id());
}

TEST(ShadowStack, ReenteringProducesSameIdAsBefore) {
  ShadowStack stack;
  stack.enter("step");
  const StackId first = stack.id();
  stack.leave();
  stack.enter("step");
  EXPECT_EQ(stack.id(), first);
}

TEST(ShadowStack, UnderflowThrows) {
  ShadowStack stack;
  EXPECT_THROW(stack.leave(), InternalError);
}

TEST(ShadowStack, TraceScopeIsExceptionSafe) {
  ShadowStack stack;
  try {
    TraceScope scope(stack, "faulty");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(stack.depth(), 0u);
}

TEST(ShadowStack, FramesOutermostFirst) {
  ShadowStack stack;
  stack.enter("outer");
  stack.enter("inner");
  const auto frames = stack.frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "outer");
  EXPECT_EQ(frames[1], "inner");
}

}  // namespace
}  // namespace fastfit::trace
