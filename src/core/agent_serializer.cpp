#include "core/agent_serializer.h"

#include <algorithm>
#include <cassert>

#include "core/code_pool.h"
#include "net/packet.h"
#include "net/serialize.h"

namespace agilla::core {
namespace {

constexpr std::uint8_t kEmptyHeapSlot = 0xFF;

std::size_t messages_for(std::size_t items) {
  return (items + kVarsPerMessage - 1) / kVarsPerMessage;
}

/// Strong operations always transmit at least one stack and one heap
/// message, even when empty — as on the mote, where the migration task
/// ships every context section unconditionally. This is what makes strong
/// migration visibly heavier than weak migration in paper Fig. 11.
std::size_t stack_messages(const AgentImage& image) {
  return is_strong(image.op) ? std::max<std::size_t>(
                                   1, messages_for(image.stack.size()))
                             : messages_for(image.stack.size());
}

std::size_t heap_messages(const AgentImage& image) {
  return is_strong(image.op) ? std::max<std::size_t>(
                                   1, messages_for(image.heap.size()))
                             : messages_for(image.heap.size());
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

void AgentImage::weaken() {
  pc = 0;
  condition = 0;
  stack.clear();
  heap.clear();
  reactions.clear();
}

// Every migration message, the largest being a reaction, goes out as one
// acked link frame.
static_assert(std::max({kStateMessageBytes, kCodeMessageBytes,
                        kHeapMessageBytes, kStackMessageBytes,
                        kReactionMessageBytes}) +
                  net::LinkHeader::kWireSize <=
              net::kMaxPayloadBytes);

std::vector<MigrationMessage> to_messages(const AgentImage& image,
                                          std::uint8_t transfer_id) {
  std::vector<MigrationMessage> out;
  const std::size_t code_msgs =
      CodePool::blocks_needed(image.code.size());
  out.reserve(1 + code_msgs + stack_messages(image) + heap_messages(image) +
              image.reactions.size());

  // --- state message (paper Fig. 5: 20 bytes) -------------------------------
  {
    net::Writer w;
    w.u16(image.agent_id);
    w.u8(transfer_id);
    w.u8(static_cast<std::uint8_t>(image.op));
    net::write_location(w, image.dest);
    w.u16(image.pc);
    w.i16(image.condition);
    w.u16(static_cast<std::uint16_t>(image.code.size()));
    w.u8(static_cast<std::uint8_t>(code_msgs));
    w.u8(static_cast<std::uint8_t>(image.stack.size()));
    w.u8(static_cast<std::uint8_t>(image.heap.size()));
    w.u8(static_cast<std::uint8_t>(image.reactions.size()));
    w.zeros(2);
    assert(w.size() == kStateMessageBytes);
    out.push_back({sim::AmType::kAgentState, w.payload()});
  }

  // --- code messages: one 22-byte block each (28 bytes) ----------------------
  for (std::size_t b = 0; b < code_msgs; ++b) {
    net::Writer w;
    w.u16(image.agent_id);
    w.u8(transfer_id);
    w.u8(static_cast<std::uint8_t>(b));
    const std::size_t offset = b * CodePool::kBlockSize;
    const std::size_t chunk =
        std::min(CodePool::kBlockSize, image.code.size() - offset);
    w.u8(static_cast<std::uint8_t>(chunk));
    w.zeros(1);
    w.bytes(std::span<const std::uint8_t>(image.code.data() + offset, chunk));
    w.zeros(CodePool::kBlockSize - chunk);
    assert(w.size() == kCodeMessageBytes);
    out.push_back({sim::AmType::kAgentCode, w.payload()});
  }

  // --- stack messages: four variables each (30 bytes) ------------------------
  for (std::size_t m = 0; m < stack_messages(image); ++m) {
    net::Writer w;
    w.u16(image.agent_id);
    w.u8(transfer_id);
    const std::size_t start = m * kVarsPerMessage;
    const std::size_t count =
        image.stack.size() > start
            ? std::min(kVarsPerMessage, image.stack.size() - start)
            : 0;
    w.u8(static_cast<std::uint8_t>(start));
    w.u8(static_cast<std::uint8_t>(count));
    w.zeros(1);
    for (std::size_t i = 0; i < kVarsPerMessage; ++i) {
      if (i < count) {
        image.stack[start + i].encode_padded(w);
      } else {
        w.zeros(ts::Value::kPaddedWireSize);
      }
    }
    assert(w.size() == kStackMessageBytes);
    out.push_back({sim::AmType::kAgentStack, w.payload()});
  }

  // --- heap messages: four (address, variable) pairs each (32 bytes) ---------
  for (std::size_t m = 0; m < heap_messages(image); ++m) {
    net::Writer w;
    w.u16(image.agent_id);
    w.u8(transfer_id);
    w.u8(static_cast<std::uint8_t>(m));
    const std::size_t start = m * kVarsPerMessage;
    const std::size_t count =
        image.heap.size() > start
            ? std::min(kVarsPerMessage, image.heap.size() - start)
            : 0;
    for (std::size_t i = 0; i < kVarsPerMessage; ++i) {
      if (i < count) {
        w.u8(image.heap[start + i].first);
        image.heap[start + i].second.encode_padded(w);
      } else {
        w.u8(kEmptyHeapSlot);
        w.zeros(ts::Value::kPaddedWireSize);
      }
    }
    assert(w.size() == kHeapMessageBytes);
    out.push_back({sim::AmType::kAgentHeap, w.payload()});
  }

  // --- reaction messages: one reaction each (36 bytes) -----------------------
  for (std::size_t i = 0; i < image.reactions.size(); ++i) {
    const ts::Reaction& rxn = image.reactions[i];
    net::Writer w;
    w.u16(image.agent_id);
    w.u8(transfer_id);
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
    out.push_back({sim::AmType::kAgentReaction, w.payload()});
  }

  return out;
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
      if (state_seen_) {
        return true;  // duplicate state (retransmission)
      }
      image_.agent_id = agent_id;
      image_.op = static_cast<MigrationOp>(r.u8());
      image_.dest = net::read_location(r);
      image_.pc = r.u16();
      image_.condition = r.i16();
      code_size_ = r.u16();
      expected_code_messages_ = r.u8();
      expected_stack_ = r.u8();
      expected_heap_ = r.u8();
      expected_reactions_ = r.u8();
      r.skip(2);
      if (!r.ok() || code_size_ == 0 ||
          expected_code_messages_ != CodePool::blocks_needed(code_size_) ||
          expected_stack_ > Agent::kStackDepth ||
          expected_heap_ > kHeapSlots) {
        any_seen_ = false;
        return false;
      }
      state_seen_ = true;
      code_.assign(code_size_, 0);
      code_seen_.assign(expected_code_messages_, false);
      stack_slots_.assign(expected_stack_, std::nullopt);
      const bool strong = is_strong(image_.op);
      const std::size_t stack_msgs =
          strong ? std::max<std::size_t>(1, messages_for(expected_stack_))
                 : messages_for(expected_stack_);
      const std::size_t heap_msgs =
          strong ? std::max<std::size_t>(1, messages_for(expected_heap_))
                 : messages_for(expected_heap_);
      stack_msg_seen_.assign(stack_msgs, false);
      heap_msg_seen_.assign(heap_msgs, false);
      reactions_.assign(expected_reactions_, std::nullopt);
      return true;
    }
    case sim::AmType::kAgentCode: {
      if (!state_seen_) {
        return false;  // sender always ships state first
      }
      const std::uint8_t block = r.u8();
      const std::uint8_t valid = r.u8();
      r.skip(1);
      std::array<std::uint8_t, CodePool::kBlockSize> data{};
      r.bytes(data);
      if (!r.ok() || block >= code_seen_.size() ||
          valid > CodePool::kBlockSize) {
        return false;
      }
      const std::size_t offset = block * CodePool::kBlockSize;
      if (offset + valid > code_.size()) {
        return false;
      }
      std::copy_n(data.begin(), valid,
                  code_.begin() + static_cast<std::ptrdiff_t>(offset));
      code_seen_[block] = true;
      return true;
    }
    case sim::AmType::kAgentStack: {
      if (!state_seen_) {
        return false;
      }
      const std::uint8_t start = r.u8();
      const std::uint8_t count = r.u8();
      r.skip(1);
      const std::size_t msg_index = start / kVarsPerMessage;
      if (start + count > stack_slots_.size() ||
          msg_index >= stack_msg_seen_.size() ||
          start % kVarsPerMessage != 0) {
        return false;
      }
      for (std::size_t i = 0; i < kVarsPerMessage; ++i) {
        const ts::Value v = ts::Value::decode_padded(r);
        if (i < count) {
          stack_slots_[start + i] = v;
        }
      }
      stack_msg_seen_[msg_index] = true;
      return r.ok();
    }
    case sim::AmType::kAgentHeap: {
      if (!state_seen_) {
        return false;
      }
      const std::uint8_t msg_index = r.u8();
      if (msg_index >= heap_msg_seen_.size()) {
        return false;
      }
      const bool duplicate = heap_msg_seen_[msg_index];
      for (std::size_t i = 0; i < kVarsPerMessage; ++i) {
        const std::uint8_t addr = r.u8();
        const ts::Value v = ts::Value::decode_padded(r);
        if (!duplicate && addr != kEmptyHeapSlot && addr < kHeapSlots) {
          heap_entries_.emplace_back(addr, v);
        }
      }
      heap_msg_seen_[msg_index] = true;
      return r.ok();
    }
    case sim::AmType::kAgentReaction: {
      if (!state_seen_) {
        return false;
      }
      const std::uint8_t index = r.u8();
      const std::uint16_t handler = r.u16();
      const std::uint8_t field_count = r.u8();
      r.skip(1);
      if (index >= reactions_.size() ||
          field_count > kMaxReactionTemplateFields) {
        return false;
      }
      ts::Reaction rxn;
      rxn.agent_id = agent_id;
      rxn.handler_pc = handler;
      for (std::size_t f = 0; f < kMaxReactionTemplateFields; ++f) {
        const ts::Value v = ts::Value::decode_padded(r);
        if (f < field_count) {
          rxn.templ.add(v);
        }
      }
      r.skip(4);
      if (!r.ok()) {
        return false;
      }
      reactions_[index] = std::move(rxn);
      return true;
    }
    default:
      return false;
  }
}

bool ImageAssembler::complete() const {
  if (!state_seen_) {
    return false;
  }
  const bool code_done =
      std::all_of(code_seen_.begin(), code_seen_.end(),
                  [](bool b) { return b; });
  const bool stack_done =
      std::all_of(stack_msg_seen_.begin(), stack_msg_seen_.end(),
                  [](bool b) { return b; }) &&
      std::all_of(
          stack_slots_.begin(), stack_slots_.end(),
          [](const std::optional<ts::Value>& v) { return v.has_value(); });
  const bool heap_done =
      std::all_of(heap_msg_seen_.begin(), heap_msg_seen_.end(),
                  [](bool b) { return b; }) &&
      heap_entries_.size() == expected_heap_;
  const bool rxn_done = std::all_of(
      reactions_.begin(), reactions_.end(),
      [](const std::optional<ts::Reaction>& x) { return x.has_value(); });
  return code_done && stack_done && heap_done && rxn_done;
}

AgentImage ImageAssembler::take() {
  assert(complete());
  image_.code = std::move(code_);
  image_.stack.clear();
  for (auto& slot : stack_slots_) {
    image_.stack.push_back(*slot);
  }
  image_.heap = std::move(heap_entries_);
  image_.reactions.clear();
  for (auto& rxn : reactions_) {
    image_.reactions.push_back(std::move(*rxn));
  }
  return std::move(image_);
}

}  // namespace agilla::core
