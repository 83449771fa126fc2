#include "core/agent.h"

#include <gtest/gtest.h>

namespace agilla::core {
namespace {

Agent make_agent() { return Agent(AgentId{7}, nullptr); }

TEST(Agent, InitialRegisters) {
  Agent a = make_agent();
  EXPECT_EQ(a.id().value, 7);
  EXPECT_EQ(a.pc(), 0);
  EXPECT_EQ(a.condition(), 0);
  EXPECT_EQ(a.stack_depth(), 0u);
  EXPECT_EQ(a.run_state(), AgentRunState::kReady);
}

TEST(Agent, PushPopLifo) {
  Agent a = make_agent();
  EXPECT_TRUE(a.push(ts::Value::number(1)));
  EXPECT_TRUE(a.push(ts::Value::number(2)));
  EXPECT_EQ(a.pop().as_number(), 2);
  EXPECT_EQ(a.pop().as_number(), 1);
}

TEST(Agent, StackOverflowAtPaperDepth) {
  Agent a = make_agent();
  for (std::size_t i = 0; i < Agent::kStackDepth; ++i) {
    EXPECT_TRUE(a.push(ts::Value::number(static_cast<std::int16_t>(i))));
  }
  EXPECT_FALSE(a.push(ts::Value::number(99)));
  EXPECT_EQ(a.stack_depth(), Agent::kStackDepth);
}

TEST(Agent, PopUnderflowReturnsInvalid) {
  Agent a = make_agent();
  EXPECT_FALSE(a.pop().valid());
}

TEST(Agent, PeekDoesNotConsume) {
  Agent a = make_agent();
  ASSERT_TRUE(a.push(ts::Value::number(1)));
  ASSERT_TRUE(a.push(ts::Value::number(2)));
  EXPECT_EQ(a.peek(0).as_number(), 2);
  EXPECT_EQ(a.peek(1).as_number(), 1);
  EXPECT_FALSE(a.peek(2).valid());
  EXPECT_EQ(a.stack_depth(), 2u);
}

TEST(Agent, HeapTwelveSlots) {
  Agent a = make_agent();
  for (std::size_t i = 0; i < kHeapSlots; ++i) {
    EXPECT_TRUE(
        a.set_heap(i, ts::Value::number(static_cast<std::int16_t>(i))));
  }
  EXPECT_FALSE(a.set_heap(kHeapSlots, ts::Value::number(0)));
  EXPECT_EQ(a.heap(3).as_number(), 3);
  EXPECT_FALSE(a.heap(kHeapSlots).valid());
}

TEST(Agent, HeapEntriesOnlyValidSlots) {
  Agent a = make_agent();
  a.set_heap(2, ts::Value::number(20));
  a.set_heap(7, ts::Value::location({1, 2}));
  for (std::size_t slot = 0; slot < kHeapSlots; ++slot) {
    EXPECT_EQ(a.heap(slot).valid(), slot == 2 || slot == 7) << slot;
  }
  EXPECT_EQ(a.heap(2).as_number(), 20);
  EXPECT_EQ(a.heap(7).as_location(), (sim::Location{1, 2}));
}

TEST(Agent, ClearHeapAndStack) {
  Agent a = make_agent();
  ASSERT_TRUE(a.push(ts::Value::number(1)));
  a.set_heap(0, ts::Value::number(1));
  a.clear_stack();
  a.clear_heap();
  EXPECT_EQ(a.stack_depth(), 0u);
  for (std::size_t slot = 0; slot < kHeapSlots; ++slot) {
    EXPECT_FALSE(a.heap(slot).valid()) << slot;
  }
}

TEST(Agent, RestoreStackBottomFirst) {
  Agent a = make_agent();
  const std::vector<ts::Value> values{ts::Value::number(1),
                                      ts::Value::number(2)};
  a.restore_stack(values);
  EXPECT_EQ(a.pop().as_number(), 2);  // last element is top
  EXPECT_EQ(a.pop().as_number(), 1);
}

TEST(Agent, RestoreStackTruncatesOversize) {
  Agent a = make_agent();
  const std::vector<ts::Value> big(Agent::kStackDepth + 5,
                                   ts::Value::number(1));
  a.restore_stack(big);
  EXPECT_EQ(a.stack_depth(), Agent::kStackDepth);
}

TEST(Agent, BlockedProbeStorage) {
  Agent a = make_agent();
  EXPECT_FALSE(a.blocked_probe().has_value());
  a.set_blocked_probe(
      Agent::BlockedProbe{ts::Template{ts::Value::number(1)}, true});
  ASSERT_TRUE(a.blocked_probe().has_value());
  EXPECT_TRUE(a.blocked_probe()->remove);
  a.set_blocked_probe(std::nullopt);
  EXPECT_FALSE(a.blocked_probe().has_value());
}

TEST(Agent, RunStateTransitions) {
  Agent a = make_agent();
  a.set_run_state(AgentRunState::kSleeping);
  EXPECT_EQ(a.run_state(), AgentRunState::kSleeping);
  EXPECT_STREQ(to_string(AgentRunState::kSleeping), "sleeping");
  EXPECT_STREQ(to_string(AgentRunState::kBlockedOp), "blocked-op");
}

}  // namespace
}  // namespace agilla::core
