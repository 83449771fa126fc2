#include "core/agent_serializer.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/code_pool.h"

namespace agilla::core {
namespace {

AgentImage sample_image() {
  AgentImage image;
  image.agent_id = 0x0305;
  image.op = MigrationOp::kSMove;
  image.dest = {5, 1};
  image.pc = 17;
  image.condition = 1;
  image.code.resize(50);
  std::iota(image.code.begin(), image.code.end(), std::uint8_t{1});
  image.stack = {ts::Value::number(4), ts::Value::location({2, 2}),
                 ts::Value::string("abc"), ts::Value::number(-9),
                 ts::Value::agent_id(3)};
  image.heap = {{1, ts::Value::number(10)},
                {5, ts::Value::reading(sim::SensorType::kPhoto, 7)}};
  ts::Reaction rxn;
  rxn.agent_id = 0x0305;
  rxn.templ = ts::Template{ts::Value::string("fir"),
                           ts::Value::type_wildcard(ts::ValueType::kLocation)};
  rxn.handler_pc = 11;
  image.reactions = {rxn};
  return image;
}

AgentImage round_trip(const AgentImage& image) {
  const auto messages = to_messages(image, 42);
  ImageAssembler assembler;
  for (const auto& m : messages) {
    EXPECT_TRUE(assembler.feed(m.am, m.payload));
  }
  EXPECT_TRUE(assembler.complete());
  return assembler.take();
}

TEST(Serializer, MessageSizesMatchPaperFig5) {
  const auto messages = to_messages(sample_image(), 1);
  for (const auto& m : messages) {
    switch (m.am) {
      case sim::AmType::kAgentState:
        EXPECT_EQ(m.payload.size(), kStateMessageBytes);   // 20 B
        break;
      case sim::AmType::kAgentCode:
        EXPECT_EQ(m.payload.size(), kCodeMessageBytes);    // 28 B
        break;
      case sim::AmType::kAgentHeap:
        EXPECT_EQ(m.payload.size(), kHeapMessageBytes);    // 32 B
        break;
      case sim::AmType::kAgentStack:
        EXPECT_EQ(m.payload.size(), kStackMessageBytes);   // 30 B
        break;
      case sim::AmType::kAgentReaction:
        EXPECT_EQ(m.payload.size(), kReactionMessageBytes);// 36 B
        break;
      default:
        FAIL() << "unexpected AM type";
    }
  }
  EXPECT_EQ(kStateMessageBytes, 20u);
  EXPECT_EQ(kCodeMessageBytes, 28u);
  EXPECT_EQ(kHeapMessageBytes, 32u);
  EXPECT_EQ(kStackMessageBytes, 30u);
  EXPECT_EQ(kReactionMessageBytes, 36u);
}

TEST(Serializer, MessageBreakdownForSampleAgent) {
  // 50 code bytes -> 3 blocks; 5 stack values -> 2 messages; 2 heap vars ->
  // 1 message; 1 reaction; 1 state. Total 8.
  const auto messages = to_messages(sample_image(), 1);
  EXPECT_EQ(messages.size(), 8u);
  EXPECT_EQ(messages[0].am, sim::AmType::kAgentState);
}

TEST(Serializer, MinimalAgentIsTwoMessages) {
  // Paper Sec. 3.2: "At a minimum, a migration requires two messages: one
  // state and one code."
  AgentImage image;
  image.agent_id = 1;
  image.op = MigrationOp::kWMove;
  image.code = {0x00};
  const auto messages = to_messages(image, 0);
  EXPECT_EQ(messages.size(), 2u);
}

TEST(Serializer, StrongOpsAlwaysShipStackAndHeapMessages) {
  // Even an empty-context strong move transmits one stack and one heap
  // message — the fixed 4-message cost behind the Fig. 11 smove latency.
  AgentImage image;
  image.agent_id = 1;
  image.op = MigrationOp::kSMove;
  image.code = {0x00};
  const auto messages = to_messages(image, 0);
  ASSERT_EQ(messages.size(), 4u);
  EXPECT_EQ(messages[2].am, sim::AmType::kAgentStack);
  EXPECT_EQ(messages[3].am, sim::AmType::kAgentHeap);

  ImageAssembler assembler;
  for (const auto& m : messages) {
    ASSERT_TRUE(assembler.feed(m.am, m.payload));
  }
  ASSERT_TRUE(assembler.complete());
  const AgentImage copy = assembler.take();
  EXPECT_TRUE(copy.stack.empty());
  EXPECT_TRUE(copy.heap.empty());
}

TEST(Serializer, RoundTripPreservesEverything) {
  const AgentImage original = sample_image();
  const AgentImage copy = round_trip(original);
  EXPECT_EQ(copy.agent_id, original.agent_id);
  EXPECT_EQ(copy.op, original.op);
  EXPECT_EQ(copy.dest, original.dest);
  EXPECT_EQ(copy.pc, original.pc);
  EXPECT_EQ(copy.code, original.code);
  ASSERT_EQ(copy.stack.size(), original.stack.size());
  for (std::size_t i = 0; i < copy.stack.size(); ++i) {
    EXPECT_EQ(copy.stack[i], original.stack[i]) << i;
  }
  ASSERT_EQ(copy.heap.size(), original.heap.size());
  EXPECT_EQ(copy.heap[0].first, 1);
  EXPECT_EQ(copy.heap[1].second.sensor(), sim::SensorType::kPhoto);
  ASSERT_EQ(copy.reactions.size(), 1u);
  EXPECT_EQ(copy.reactions[0].handler_pc, 11);
  EXPECT_TRUE(copy.reactions[0].templ.matches(
      ts::Tuple{ts::Value::string("fir"), ts::Value::location({9, 9})}));
}

TEST(Serializer, WeakImageCarriesOnlyCode) {
  AgentImage image = sample_image();
  image.op = MigrationOp::kWClone;
  image.weaken();
  EXPECT_EQ(image.pc, 0);
  EXPECT_TRUE(image.stack.empty());
  EXPECT_TRUE(image.heap.empty());
  EXPECT_TRUE(image.reactions.empty());
  const auto messages = to_messages(image, 3);
  EXPECT_EQ(messages.size(), 1u + CodePool::blocks_needed(image.code.size()));
}

TEST(Serializer, OutOfOrderNonStateMessagesRejected) {
  const auto messages = to_messages(sample_image(), 9);
  ImageAssembler assembler;
  // Code before state: rejected (sender always ships state first).
  EXPECT_FALSE(assembler.feed(messages[1].am, messages[1].payload));
  EXPECT_TRUE(assembler.feed(messages[0].am, messages[0].payload));
  EXPECT_TRUE(assembler.feed(messages[1].am, messages[1].payload));
}

TEST(Serializer, CodeBlocksInAnyOrderAfterState) {
  const auto messages = to_messages(sample_image(), 9);
  ImageAssembler assembler;
  EXPECT_TRUE(assembler.feed(messages[0].am, messages[0].payload));
  // Feed everything else in reverse.
  for (std::size_t i = messages.size(); i-- > 1;) {
    EXPECT_TRUE(assembler.feed(messages[i].am, messages[i].payload));
  }
  EXPECT_TRUE(assembler.complete());
  EXPECT_EQ(assembler.take().code, sample_image().code);
}

TEST(Serializer, IncompleteIsNotComplete) {
  const auto messages = to_messages(sample_image(), 9);
  ImageAssembler assembler;
  for (std::size_t i = 0; i + 1 < messages.size(); ++i) {
    assembler.feed(messages[i].am, messages[i].payload);
    EXPECT_FALSE(assembler.complete());
  }
}

TEST(Serializer, DuplicateMessagesAreIdempotent) {
  const auto messages = to_messages(sample_image(), 9);
  ImageAssembler assembler;
  for (const auto& m : messages) {
    EXPECT_TRUE(assembler.feed(m.am, m.payload));
    assembler.feed(m.am, m.payload);  // duplicate (retransmission)
  }
  ASSERT_TRUE(assembler.complete());
  const AgentImage image = assembler.take();
  EXPECT_EQ(image.heap.size(), 2u);  // not duplicated
  EXPECT_EQ(image.stack.size(), 5u);
}

TEST(Serializer, ForeignTransferRejected) {
  const auto mine = to_messages(sample_image(), 9);
  AgentImage other_image = sample_image();
  other_image.agent_id = 0x9999;
  const auto other = to_messages(other_image, 9);
  ImageAssembler assembler;
  EXPECT_TRUE(assembler.feed(mine[0].am, mine[0].payload));
  EXPECT_FALSE(assembler.feed(other[1].am, other[1].payload));
}

TEST(Serializer, MalformedStateRejected) {
  ImageAssembler assembler;
  const std::vector<std::uint8_t> garbage(kStateMessageBytes, 0xFF);
  EXPECT_FALSE(assembler.feed(sim::AmType::kAgentState, garbage));
}

TEST(Serializer, TruncatedPayloadRejected) {
  const auto messages = to_messages(sample_image(), 9);
  ImageAssembler assembler;
  std::vector<std::uint8_t> cut(messages[0].payload.begin(),
                                messages[0].payload.begin() + 5);
  EXPECT_FALSE(assembler.feed(sim::AmType::kAgentState, cut));
}

TEST(Serializer, MigrationOpNames) {
  EXPECT_STREQ(to_string(MigrationOp::kSMove), "smove");
  EXPECT_STREQ(to_string(MigrationOp::kWClone), "wclone");
  EXPECT_TRUE(is_strong(MigrationOp::kSClone));
  EXPECT_FALSE(is_strong(MigrationOp::kWMove));
  EXPECT_TRUE(is_clone(MigrationOp::kWClone));
  EXPECT_FALSE(is_clone(MigrationOp::kSMove));
}

TEST(Serializer, FullStackAndHeapRoundTrip) {
  AgentImage image;
  image.agent_id = 2;
  image.op = MigrationOp::kSClone;
  image.code = {0x00};
  for (std::size_t i = 0; i < Agent::kStackDepth; ++i) {
    image.stack.push_back(ts::Value::number(static_cast<std::int16_t>(i)));
  }
  for (std::uint8_t i = 0; i < kHeapSlots; ++i) {
    image.heap.emplace_back(i, ts::Value::number(i));
  }
  const auto messages = to_messages(image, 1);
  // 1 state + 1 code + 4 stack (16/4) + 3 heap (12/4).
  EXPECT_EQ(messages.size(), 9u);
  ImageAssembler assembler;
  for (const auto& m : messages) {
    ASSERT_TRUE(assembler.feed(m.am, m.payload));
  }
  ASSERT_TRUE(assembler.complete());
  const AgentImage copy = assembler.take();
  EXPECT_EQ(copy.stack.size(), Agent::kStackDepth);
  EXPECT_EQ(copy.heap.size(), kHeapSlots);
}

}  // namespace
}  // namespace agilla::core
