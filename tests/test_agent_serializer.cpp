#include "core/agent_serializer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/code_pool.h"
#include "sim/rng.h"

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
  image.stack_depth = 5;
  image.heap[1] = ts::Value::number(10);
  image.heap[5] = ts::Value::reading(sim::SensorType::kPhoto, 7);
  ts::Reaction rxn;
  rxn.agent_id = 0x0305;
  rxn.templ = ts::Template{ts::Value::string("fir"),
                           ts::Value::type_wildcard(ts::ValueType::kLocation)};
  rxn.handler_pc = 11;
  image.reactions = {rxn};
  return image;
}

/// Every message of `image`'s transfer, in sending order.
std::vector<MigrationMessage> to_messages(const AgentImage& image,
                                          std::uint8_t transfer_id) {
  std::vector<MigrationMessage> messages;
  for (std::size_t i = 0; i < message_counts(image).total(); ++i) {
    messages.push_back(encode_message(image, transfer_id, i));
  }
  return messages;
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
  EXPECT_EQ(copy.stack_depth, 0u);
  EXPECT_EQ(copy.heap_slots(), 0u);
}

TEST(Serializer, RoundTripPreservesEverything) {
  const AgentImage original = sample_image();
  const AgentImage copy = round_trip(original);
  EXPECT_EQ(copy.agent_id, original.agent_id);
  EXPECT_EQ(copy.op, original.op);
  EXPECT_EQ(copy.dest, original.dest);
  EXPECT_EQ(copy.pc, original.pc);
  EXPECT_EQ(copy.code, original.code);
  ASSERT_EQ(copy.stack_depth, original.stack_depth);
  for (std::size_t i = 0; i < copy.stack_depth; ++i) {
    EXPECT_EQ(copy.stack[i], original.stack[i]) << i;
  }
  EXPECT_EQ(copy.heap_slots(), original.heap_slots());
  EXPECT_EQ(copy.heap[1], ts::Value::number(10));
  EXPECT_EQ(copy.heap[5].sensor(), sim::SensorType::kPhoto);
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
  EXPECT_EQ(image.stack_depth, 0u);
  EXPECT_EQ(image.heap_slots(), 0u);
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
  EXPECT_EQ(image.heap_slots(), 2u);
  EXPECT_EQ(image.stack_depth, 5u);
  EXPECT_EQ(image.reactions.size(), 1u);
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

TEST(Serializer, CodeBlockShortOfItsShareIsRejected) {
  // A 30-byte weak agent: block 0 carries 22 bytes and block 1 the last 8.
  // A block that claims fewer valid bytes than its share would leave code
  // bytes that were never sent; its ack is withheld.
  AgentImage image;
  image.agent_id = 4;
  image.op = MigrationOp::kWMove;
  image.code.assign(30, 0x21);
  const auto messages = to_messages(image, 2);
  ASSERT_EQ(messages.size(), 3u);
  for (const std::uint8_t valid : {0, 21, 23}) {
    SCOPED_TRACE(static_cast<int>(valid));
    ImageAssembler assembler;
    ASSERT_TRUE(assembler.feed(messages[0].am, messages[0].payload));
    std::vector<std::uint8_t> block0(messages[1].payload.begin(),
                                     messages[1].payload.end());
    block0[4] = valid;  // after agent id, transfer id and block index
    EXPECT_FALSE(assembler.feed(messages[1].am, block0));
    EXPECT_TRUE(assembler.feed(messages[2].am, messages[2].payload));
    EXPECT_FALSE(assembler.complete());
    EXPECT_TRUE(assembler.feed(messages[1].am, messages[1].payload));
    ASSERT_TRUE(assembler.complete());
    EXPECT_EQ(assembler.take().code, image.code);
  }
}

TEST(Serializer, UnknownMigrationOpIsRejected) {
  // The state message's op byte names one of the four migration
  // operations; any other value is malformed, not a weak move.
  const auto messages = to_messages(sample_image(), 5);
  for (int op = 4; op < 256; ++op) {
    SCOPED_TRACE(op);
    std::vector<std::uint8_t> state(messages[0].payload.begin(),
                                    messages[0].payload.end());
    state[3] = static_cast<std::uint8_t>(op);
    ImageAssembler assembler;
    EXPECT_FALSE(assembler.feed(sim::AmType::kAgentState, state));
    EXPECT_FALSE(assembler.has_state());
  }
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
  image.stack_depth = Agent::kStackDepth;
  for (std::size_t i = 0; i < Agent::kStackDepth; ++i) {
    image.stack[i] = ts::Value::number(static_cast<std::int16_t>(i));
  }
  for (std::size_t i = 0; i < kHeapSlots; ++i) {
    image.heap[i] = ts::Value::number(static_cast<std::int16_t>(i));
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
  EXPECT_EQ(copy.stack_depth, Agent::kStackDepth);
  EXPECT_EQ(copy.heap_slots(), kHeapSlots);
}

ts::Value random_value(sim::Rng& rng) {
  const auto half = [&rng] {
    return static_cast<std::int16_t>(rng.uniform_int(-32768, 32767));
  };
  switch (rng.uniform(6)) {
    case 0:
      return ts::Value::number(half());
    case 1:
      return ts::Value::packed_string(
          static_cast<std::uint16_t>(rng.uniform(1u << 15)));
    case 2:
      return ts::Value::location({static_cast<double>(rng.uniform(64)),
                                  static_cast<double>(rng.uniform(64))});
    case 3:
      return ts::Value::reading(sim::SensorType::kTemperature, half());
    case 4:
      return ts::Value::agent_id(
          static_cast<std::uint16_t>(rng.uniform(1u << 16)));
    default:
      return ts::Value::type_wildcard(ts::ValueType::kLocation);
  }
}

/// An image within the paper's limits: 1-440 code bytes, 0-16 stack
/// values (some of them invalid, as an agent's stack may hold), any subset
/// of the 12 heap slots, and 0-10 reactions of 0-4 template fields.
AgentImage random_image(sim::Rng& rng) {
  AgentImage image;
  image.agent_id = static_cast<std::uint16_t>(rng.uniform(1u << 16));
  image.op = static_cast<MigrationOp>(rng.uniform(4));
  image.dest = {static_cast<double>(rng.uniform(32)),
                static_cast<double>(rng.uniform(32))};
  image.pc = static_cast<std::uint16_t>(rng.uniform(440));
  image.condition = static_cast<std::int16_t>(rng.uniform_int(-2, 2));
  image.code.resize(1 + rng.uniform(440));
  for (auto& byte : image.code) {
    byte = static_cast<std::uint8_t>(rng.uniform(256));
  }
  image.stack_depth =
      static_cast<std::uint8_t>(rng.uniform(Agent::kStackDepth + 1));
  for (std::size_t i = 0; i < image.stack_depth; ++i) {
    image.stack[i] = rng.chance(0.1) ? ts::Value{} : random_value(rng);
  }
  for (ts::Value& slot : image.heap) {
    if (rng.chance(0.5)) {
      slot = random_value(rng);
    }
  }
  const std::size_t reactions = rng.uniform(11);
  for (std::size_t i = 0; i < reactions; ++i) {
    ts::Reaction rxn;
    rxn.agent_id = image.agent_id;
    rxn.handler_pc = static_cast<std::uint16_t>(rng.uniform(440));
    const std::size_t fields = rng.uniform(kMaxReactionTemplateFields + 1);
    for (std::size_t f = 0; f < fields; ++f) {
      rxn.templ.add(random_value(rng));
    }
    image.reactions.push_back(rxn);
  }
  return image;
}

void expect_same_image(const AgentImage& got, const AgentImage& want) {
  EXPECT_EQ(got.agent_id, want.agent_id);
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.dest, want.dest);
  EXPECT_EQ(got.pc, want.pc);
  EXPECT_EQ(got.condition, want.condition);
  EXPECT_EQ(got.code, want.code);
  EXPECT_TRUE(std::ranges::equal(got.live_stack(), want.live_stack()));
  EXPECT_EQ(got.heap, want.heap);
  EXPECT_EQ(got.reactions, want.reactions);
}

TEST(Serializer, RandomImagesSurviveShuffledDuplicatedDelivery) {
  // State first, then every other message in a random order, with random
  // retransmissions of messages already delivered. The assembler must
  // rebuild the sent image exactly and report completion on the last new
  // message, never earlier.
  sim::Rng rng(0x5EED);
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE(round);
    const AgentImage sent = random_image(rng);
    const auto messages =
        to_messages(sent, static_cast<std::uint8_t>(rng.uniform(256)));
    std::vector<std::size_t> order(messages.size() - 1);
    std::iota(order.begin(), order.end(), std::size_t{1});
    std::shuffle(order.begin(), order.end(), rng);

    ImageAssembler assembler;
    std::vector<std::size_t> delivered = {0};
    ASSERT_TRUE(assembler.feed(messages[0].am, messages[0].payload));
    std::size_t fresh_left = order.size();
    EXPECT_EQ(assembler.complete(), fresh_left == 0);
    for (const std::size_t next : order) {
      while (rng.chance(0.3)) {
        const auto& again = messages[delivered[rng.uniform(delivered.size())]];
        ASSERT_TRUE(assembler.feed(again.am, again.payload));
        EXPECT_FALSE(assembler.complete());
      }
      ASSERT_TRUE(assembler.feed(messages[next].am, messages[next].payload));
      delivered.push_back(next);
      --fresh_left;
      ASSERT_EQ(assembler.complete(), fresh_left == 0);
    }
    expect_same_image(assembler.take(), sent);
  }
}

}  // namespace
}  // namespace agilla::core
