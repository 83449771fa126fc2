#include "core/agent_serializer.h"

#include <algorithm>
#include <cassert>

#include "core/code_pool.h"
#include "net/packet.h"
#include "net/serialize.h"

namespace agilla::core {
namespace {

constexpr std::uint8_t kEmptyHeapSlot = 0xFF;

/// How many of `items` message `index` carries when each carries `per`.
std::size_t share(std::size_t items, std::size_t per, std::size_t index) {
  const std::size_t start = index * per;
  return items > start ? std::min(per, items - start) : 0;
}

std::size_t messages_for(std::size_t items) {
  return (items + kVarsPerMessage - 1) / kVarsPerMessage;
}

}  // namespace

const char* to_string(MigrationOp op) {
  switch (op) {
    case MigrationOp::kSMove:
      return "smove";
    case MigrationOp::kWMove:
      return "wmove";
    case MigrationOp::kSClone:
      return "sclone";
    case MigrationOp::kWClone:
      return "wclone";
  }
  return "unknown";
}

std::size_t AgentImage::heap_slots() const {
  return static_cast<std::size_t>(std::count_if(
      heap.begin(), heap.end(), [](const ts::Value& v) { return v.valid(); }));
}

void AgentImage::weaken() {
  pc = 0;
  condition = 0;
  stack_depth = 0;
  heap.fill(ts::Value{});
  reactions.clear();
}

MessageCounts message_counts(MigrationOp op, std::size_t code_bytes,
                             std::size_t stack_values, std::size_t heap_slots,
                             std::size_t reactions) {
  // Strong operations always transmit at least one stack and one heap
  // message, even when empty — as on the mote, where the migration task
  // ships every context section unconditionally. This is what makes strong
  // migration visibly heavier than weak migration in paper Fig. 11.
  const std::size_t at_least = is_strong(op) ? 1 : 0;
  return {.code = CodePool::blocks_needed(code_bytes),
          .stack = std::max(at_least, messages_for(stack_values)),
          .heap = std::max(at_least, messages_for(heap_slots)),
          .reactions = reactions};
}

MessageCounts message_counts(const AgentImage& image) {
  return message_counts(image.op, image.code.size(), image.stack_depth,
                        image.heap_slots(), image.reactions.size());
}

// Every migration message, the largest being a reaction, goes out as one
// acked link frame.
static_assert(std::max({kStateMessageBytes, kCodeMessageBytes,
                        kHeapMessageBytes, kStackMessageBytes,
                        kReactionMessageBytes}) +
                  net::LinkHeader::kWireSize <=
              net::kMaxPayloadBytes);

MigrationMessage encode_message(const AgentImage& image,
                                std::uint8_t transfer_id, std::size_t index) {
  const MessageCounts counts = message_counts(image);
  assert(index < counts.total());
  net::Writer w;
  w.u16(image.agent_id);
  w.u8(transfer_id);

  // --- state message (paper Fig. 5: 20 bytes) -------------------------------
  if (index == 0) {
    w.u8(static_cast<std::uint8_t>(image.op));
    net::write_location(w, image.dest);
    w.u16(image.pc);
    w.i16(image.condition);
    w.u16(static_cast<std::uint16_t>(image.code.size()));
    w.u8(static_cast<std::uint8_t>(counts.code));
    w.u8(image.stack_depth);
    w.u8(static_cast<std::uint8_t>(image.heap_slots()));
    w.u8(static_cast<std::uint8_t>(image.reactions.size()));
    w.zeros(2);
    assert(w.size() == kStateMessageBytes);
    return {sim::AmType::kAgentState, w.payload()};
  }

  // --- code messages: one 22-byte block each (28 bytes) ----------------------
  std::size_t i = index - 1;
  if (i < counts.code) {
    const std::size_t chunk =
        share(image.code.size(), CodePool::kBlockSize, i);
    w.u8(static_cast<std::uint8_t>(i));
    w.u8(static_cast<std::uint8_t>(chunk));
    w.zeros(1);
    w.bytes(std::span<const std::uint8_t>(
        image.code.data() + i * CodePool::kBlockSize, chunk));
    w.zeros(CodePool::kBlockSize - chunk);
    assert(w.size() == kCodeMessageBytes);
    return {sim::AmType::kAgentCode, w.payload()};
  }

  // --- stack messages: four variables each (30 bytes) ------------------------
  i -= counts.code;
  if (i < counts.stack) {
    const std::size_t start = i * kVarsPerMessage;
    const std::size_t count = share(image.stack_depth, kVarsPerMessage, i);
    w.u8(static_cast<std::uint8_t>(start));
    w.u8(static_cast<std::uint8_t>(count));
    w.zeros(1);
    for (std::size_t v = 0; v < kVarsPerMessage; ++v) {
      if (v < count) {
        image.stack[start + v].encode_padded(w);
      } else {
        w.zeros(ts::Value::kPaddedWireSize);
      }
    }
    assert(w.size() == kStackMessageBytes);
    return {sim::AmType::kAgentStack, w.payload()};
  }

  // --- heap messages: four (address, variable) pairs each (32 bytes), the
  // filled slots in ascending order ------------------------------------------
  i -= counts.stack;
  if (i < counts.heap) {
    w.u8(static_cast<std::uint8_t>(i));
    std::size_t written = 0;
    std::size_t filled = 0;  // filled slots below `slot`
    for (std::size_t slot = 0; slot < kHeapSlots; ++slot) {
      if (image.heap[slot].valid() && filled++ / kVarsPerMessage == i) {
        w.u8(static_cast<std::uint8_t>(slot));
        image.heap[slot].encode_padded(w);
        ++written;
      }
    }
    for (; written < kVarsPerMessage; ++written) {
      w.u8(kEmptyHeapSlot);
      w.zeros(ts::Value::kPaddedWireSize);
    }
    assert(w.size() == kHeapMessageBytes);
    return {sim::AmType::kAgentHeap, w.payload()};
  }

  // --- reaction messages: one reaction each (36 bytes) -----------------------
  i -= counts.heap;
  const ts::Reaction& rxn = image.reactions[i];
  w.u8(static_cast<std::uint8_t>(i));
  w.u16(rxn.handler_pc);
  w.u8(static_cast<std::uint8_t>(rxn.templ.arity()));
  w.zeros(1);
  for (std::size_t f = 0; f < kMaxReactionTemplateFields; ++f) {
    if (f < rxn.templ.arity()) {
      rxn.templ.field(f).encode_padded(w);
    } else {
      w.zeros(ts::Value::kPaddedWireSize);
    }
  }
  w.zeros(4);
  assert(w.size() == kReactionMessageBytes);
  return {sim::AmType::kAgentReaction, w.payload()};
}

bool ImageAssembler::accept_key(std::uint16_t agent_id,
                                std::uint8_t transfer_id) {
  if (!any_seen_) {
    any_seen_ = true;
    agent_id_ = agent_id;
    transfer_id_ = transfer_id;
    return true;
  }
  return agent_id_ == agent_id && transfer_id_ == transfer_id;
}

bool ImageAssembler::first_arrival(std::size_t index) {
  const bool first = !seen_.test(index);
  seen_.set(index);
  return first;
}

bool ImageAssembler::feed(sim::AmType am,
                          std::span<const std::uint8_t> payload) {
  net::Reader r(payload);
  const std::uint16_t agent_id = r.u16();
  const std::uint8_t transfer_id = r.u8();
  if (!r.ok() || !accept_key(agent_id, transfer_id)) {
    return false;
  }

  switch (am) {
    case sim::AmType::kAgentState: {
      if (has_state()) {
        return true;  // duplicate state (retransmission)
      }
      const std::uint8_t op = r.u8();
      image_.dest = net::read_location(r);
      image_.pc = r.u16();
      image_.condition = r.i16();
      const std::uint16_t code_size = r.u16();
      const std::uint8_t code_messages = r.u8();
      const std::uint8_t stack_values = r.u8();
      const std::uint8_t heap_slots = r.u8();
      const std::uint8_t reactions = r.u8();
      r.skip(2);
      if (!r.ok() || op > static_cast<std::uint8_t>(MigrationOp::kWClone) ||
          code_size == 0 ||
          code_messages != CodePool::blocks_needed(code_size) ||
          stack_values > Agent::kStackDepth || heap_slots > kHeapSlots) {
        any_seen_ = false;
        return false;
      }
      image_.agent_id = agent_id;
      image_.op = static_cast<MigrationOp>(op);
      image_.code.assign(code_size, 0);
      image_.stack_depth = stack_values;
      image_.reactions.resize(reactions);
      heap_slots_ = heap_slots;
      counts_ = message_counts(image_.op, code_size, stack_values, heap_slots,
                               reactions);
      seen_.set(0);
      return true;
    }
    case sim::AmType::kAgentCode: {
      if (!has_state()) {
        return false;  // sender always ships state first
      }
      const std::uint8_t block = r.u8();
      const std::uint8_t valid = r.u8();
      r.skip(1);
      std::array<std::uint8_t, CodePool::kBlockSize> data{};
      r.bytes(data);
      if (!r.ok() || block >= counts_.code ||
          valid != share(image_.code.size(), CodePool::kBlockSize, block)) {
        return false;
      }
      if (first_arrival(1 + block)) {
        std::copy_n(data.begin(), valid,
                    image_.code.begin() +
                        static_cast<std::ptrdiff_t>(block *
                                                    CodePool::kBlockSize));
      }
      return true;
    }
    case sim::AmType::kAgentStack: {
      if (!has_state()) {
        return false;
      }
      const std::uint8_t start = r.u8();
      const std::uint8_t count = r.u8();
      r.skip(1);
      std::array<ts::Value, kVarsPerMessage> values;
      for (ts::Value& v : values) {
        v = ts::Value::decode_padded(r);
      }
      const std::size_t msg = start / kVarsPerMessage;
      if (!r.ok() || start % kVarsPerMessage != 0 || msg >= counts_.stack ||
          count != share(image_.stack_depth, kVarsPerMessage, msg)) {
        return false;
      }
      if (first_arrival(1 + counts_.code + msg)) {
        std::copy_n(values.begin(), count, image_.stack.begin() + start);
      }
      return true;
    }
    case sim::AmType::kAgentHeap: {
      if (!has_state()) {
        return false;
      }
      const std::uint8_t msg = r.u8();
      std::array<std::pair<std::uint8_t, ts::Value>, kVarsPerMessage> pairs;
      for (auto& [addr, v] : pairs) {
        addr = r.u8();
        v = ts::Value::decode_padded(r);
      }
      if (!r.ok() || msg >= counts_.heap) {
        return false;
      }
      const std::size_t carried = share(heap_slots_, kVarsPerMessage, msg);
      for (std::size_t i = 0; i < kVarsPerMessage; ++i) {
        const std::uint8_t addr = pairs[i].first;
        if (i < carried ? addr >= kHeapSlots : addr != kEmptyHeapSlot) {
          return false;
        }
      }
      if (first_arrival(1 + counts_.code + counts_.stack + msg)) {
        for (std::size_t i = 0; i < carried; ++i) {
          image_.heap[pairs[i].first] = pairs[i].second;
        }
      }
      return true;
    }
    case sim::AmType::kAgentReaction: {
      if (!has_state()) {
        return false;
      }
      const std::uint8_t index = r.u8();
      const std::uint16_t handler = r.u16();
      const std::uint8_t field_count = r.u8();
      r.skip(1);
      std::array<ts::Value, kMaxReactionTemplateFields> fields;
      for (ts::Value& v : fields) {
        v = ts::Value::decode_padded(r);
      }
      r.skip(4);
      if (!r.ok() || index >= image_.reactions.size() ||
          field_count > kMaxReactionTemplateFields) {
        return false;
      }
      if (first_arrival(1 + counts_.code + counts_.stack + counts_.heap +
                        index)) {
        ts::Reaction& rxn = image_.reactions[index];
        rxn.agent_id = agent_id;
        rxn.handler_pc = handler;
        for (std::size_t f = 0; f < field_count; ++f) {
          rxn.templ.add(fields[f]);
        }
      }
      return true;
    }
    default:
      return false;
  }
}

AgentImage ImageAssembler::take() {
  assert(complete());
  return std::move(image_);
}

}  // namespace agilla::core
