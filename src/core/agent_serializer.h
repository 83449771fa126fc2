// Agent <-> migration-message serialization.
//
// Paper Fig. 5 fixes the wire footprint of a migration:
//   State    20 B  (pc, code size, condition code, stack pointer, ...)
//   Code     28 B  (one 22-byte instruction block)
//   Heap     32 B  (four variables and their addresses)
//   Stack    30 B  (four variables)
//   Reaction 36 B  (one reaction)
// Our payload layouts reproduce those sizes exactly (asserted in tests);
// reserved bytes stand in for the nesC struct padding. "At a minimum, a
// migration requires two messages: one state and one code."
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <span>
#include <vector>

#include "core/agent.h"
#include "sim/frame.h"
#include "sim/types.h"
#include "tuplespace/reaction.h"

namespace agilla::core {

enum class MigrationOp : std::uint8_t {
  kSMove = 0,
  kWMove = 1,
  kSClone = 2,
  kWClone = 3,
};

[[nodiscard]] const char* to_string(MigrationOp op);
[[nodiscard]] constexpr bool is_strong(MigrationOp op) {
  return op == MigrationOp::kSMove || op == MigrationOp::kSClone;
}
[[nodiscard]] constexpr bool is_clone(MigrationOp op) {
  return op == MigrationOp::kSClone || op == MigrationOp::kWClone;
}

/// Everything needed to reconstruct an agent on another node, laid out as
/// Agent holds it. Weak images carry code only (pc/stack/heap/reactions
/// reset, paper Sec. 2.2). One image travels per migration: the sender
/// encodes each message from it as the message goes out, and the receiver
/// assembles the arriving messages into its own image in place.
struct AgentImage {
  std::uint16_t agent_id = 0;
  MigrationOp op = MigrationOp::kSMove;
  sim::Location dest;
  std::uint16_t pc = 0;
  std::int16_t condition = 0;
  std::vector<std::uint8_t> code;
  std::array<ts::Value, Agent::kStackDepth> stack{};  ///< bottom first
  std::uint8_t stack_depth = 0;
  /// By slot; an invalid Value is an empty slot.
  std::array<ts::Value, kHeapSlots> heap{};
  std::vector<ts::Reaction> reactions;

  [[nodiscard]] std::span<const ts::Value> live_stack() const {
    return {stack.data(), stack_depth};
  }
  /// Slots holding a valid value.
  [[nodiscard]] std::size_t heap_slots() const;

  /// Strips state for weak operations (code + entry point only).
  void weaken();
};

/// One migration message: the AM type plus its payload, frame-sized and
/// inline.
struct MigrationMessage {
  sim::AmType am = sim::AmType::kAgentState;
  sim::FramePayload payload;
};

/// Exact payload sizes (paper Fig. 5).
inline constexpr std::size_t kStateMessageBytes = 20;
inline constexpr std::size_t kCodeMessageBytes = 28;
inline constexpr std::size_t kHeapMessageBytes = 32;
inline constexpr std::size_t kStackMessageBytes = 30;
inline constexpr std::size_t kReactionMessageBytes = 36;

/// Values per heap/stack message and template fields per reaction message.
inline constexpr std::size_t kVarsPerMessage = 4;
inline constexpr std::size_t kMaxReactionTemplateFields = 4;

/// How many messages each section of a transfer takes. A transfer is the
/// state message, then the code blocks, stack, heap and reactions, in that
/// order; message i of it is numbered i on both sides.
struct MessageCounts {
  std::size_t code = 0;
  std::size_t stack = 0;
  std::size_t heap = 0;
  std::size_t reactions = 0;

  [[nodiscard]] std::size_t total() const {
    return 1 + code + stack + heap + reactions;
  }
};

/// The section counts of a transfer whose state message declares these
/// sizes.
[[nodiscard]] MessageCounts message_counts(MigrationOp op,
                                           std::size_t code_bytes,
                                           std::size_t stack_values,
                                           std::size_t heap_slots,
                                           std::size_t reactions);
[[nodiscard]] MessageCounts message_counts(const AgentImage& image);

/// Encodes message `index` (0 = state, below message_counts(image).total())
/// of `image`'s transfer. `transfer_id` ties the messages of one transfer
/// together across retransmissions.
[[nodiscard]] MigrationMessage encode_message(const AgentImage& image,
                                              std::uint8_t transfer_id,
                                              std::size_t index);

/// Reassembles an AgentImage from migration messages (receiver side).
/// Tolerates arbitrary arrival order but requires the state message before
/// completeness can be determined.
class ImageAssembler {
 public:
  /// Feeds one message. Returns false if the payload is malformed,
  /// belongs to a different (agent, transfer), or carries other than its
  /// share of its section.
  bool feed(sim::AmType am, std::span<const std::uint8_t> payload);

  [[nodiscard]] bool has_state() const { return seen_.test(0); }
  [[nodiscard]] bool complete() const {
    return has_state() && seen_.count() == counts_.total();
  }

  /// Key of the transfer this assembler is locked onto (valid once any
  /// message has been fed).
  [[nodiscard]] std::uint16_t agent_id() const { return agent_id_; }
  [[nodiscard]] std::uint8_t transfer_id() const { return transfer_id_; }

  /// Extracts the finished image; only valid when complete().
  [[nodiscard]] AgentImage take();

 private:
  /// The state message counts each section in one byte, and the stack and
  /// heap take at most four and three messages.
  static constexpr std::size_t kMaxMessages = 1 + 255 + 4 + 3 + 255;

  bool accept_key(std::uint16_t agent_id, std::uint8_t transfer_id);
  /// Marks message `index` arrived; false if it already had (a
  /// retransmission, accepted without being applied again).
  bool first_arrival(std::size_t index);

  bool any_seen_ = false;
  std::uint16_t agent_id_ = 0;
  std::uint8_t transfer_id_ = 0;
  std::uint8_t heap_slots_ = 0;
  AgentImage image_;
  MessageCounts counts_;
  /// Which messages of the transfer have arrived, by number.
  std::bitset<kMaxMessages> seen_;
};

}  // namespace agilla::core
