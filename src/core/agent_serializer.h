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

#include <cstdint>
#include <optional>
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

/// Everything needed to reconstruct an agent on another node. Weak images
/// carry code only (pc/stack/heap/reactions reset, paper Sec. 2.2).
struct AgentImage {
  std::uint16_t agent_id = 0;
  MigrationOp op = MigrationOp::kSMove;
  sim::Location dest;
  std::uint16_t pc = 0;
  std::int16_t condition = 0;
  std::vector<std::uint8_t> code;
  std::vector<ts::Value> stack;  // bottom first
  std::vector<std::pair<std::uint8_t, ts::Value>> heap;
  std::vector<ts::Reaction> reactions;

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

/// Splits an image into messages: state first, then code blocks, stack,
/// heap, reactions. `transfer_id` ties the messages of one transfer
/// together across retransmissions.
std::vector<MigrationMessage> to_messages(const AgentImage& image,
                                          std::uint8_t transfer_id);

/// Reassembles an AgentImage from migration messages (receiver side).
/// Tolerates arbitrary arrival order but requires the state message before
/// completeness can be determined.
class ImageAssembler {
 public:
  /// Feeds one message. Returns false if the payload is malformed or
  /// belongs to a different (agent, transfer).
  bool feed(sim::AmType am, std::span<const std::uint8_t> payload);

  [[nodiscard]] bool has_state() const { return state_seen_; }
  [[nodiscard]] bool complete() const;

  /// Key of the transfer this assembler is locked onto (valid once any
  /// message has been fed).
  [[nodiscard]] std::uint16_t agent_id() const { return agent_id_; }
  [[nodiscard]] std::uint8_t transfer_id() const { return transfer_id_; }

  /// Extracts the finished image; only valid when complete().
  [[nodiscard]] AgentImage take();

 private:
  bool accept_key(std::uint16_t agent_id, std::uint8_t transfer_id);

  bool any_seen_ = false;
  bool state_seen_ = false;
  std::uint16_t agent_id_ = 0;
  std::uint8_t transfer_id_ = 0;
  AgentImage image_;
  std::size_t expected_code_messages_ = 0;
  std::size_t expected_stack_ = 0;
  std::size_t expected_heap_ = 0;
  std::size_t expected_reactions_ = 0;
  std::vector<bool> code_seen_;
  std::vector<std::optional<ts::Value>> stack_slots_;
  std::vector<bool> stack_msg_seen_;
  std::vector<std::pair<std::uint8_t, ts::Value>> heap_entries_;
  std::vector<bool> heap_msg_seen_;
  std::vector<std::optional<ts::Reaction>> reactions_;
  std::vector<std::uint8_t> code_;
  std::uint16_t code_size_ = 0;
};

}  // namespace agilla::core
