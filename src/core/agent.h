// The mobile-agent context (paper Fig. 6): operand stack, 12-slot heap, and
// the ID / PC / condition registers, plus the agent's code. The agent is a
// passive record; the engine interprets it.
//
// The code lives in one place: the immutable DecodedProgram the agent is
// created holding (core/vm_dispatch.h) — its bytes, one decoded
// instruction per byte offset, and its content hash. The mote's CodePool
// only counts the blocks those bytes would occupy.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/isa.h"
#include "sim/event_queue.h"
#include "sim/fifo.h"
#include "tuplespace/tuple.h"
#include "tuplespace/tuple_match.h"

namespace agilla::core {

class DecodedProgram;

/// Network-unique agent identity: high byte derives from the node that
/// created the agent, low byte is a per-node counter (see DESIGN.md).
struct AgentId {
  std::uint16_t value = 0;

  friend constexpr auto operator<=>(AgentId, AgentId) = default;
};

enum class AgentRunState : std::uint8_t {
  kReady,       ///< in the engine's round-robin queue
  kSleeping,    ///< in `sleep`; a timer will wake it
  kBlockedTs,   ///< blocked in `in`/`rd`, re-probes on insertion
  kWaitingRxn,  ///< in `wait`; a firing reaction resumes it
  kBlockedOp,   ///< a migration / remote op is in flight
};

[[nodiscard]] const char* to_string(AgentRunState s);

class Agent {
 public:
  static constexpr std::size_t kStackDepth = 16;  ///< paper Fig. 6

  Agent(AgentId id, std::shared_ptr<const DecodedProgram> program);

  // --- registers -----------------------------------------------------------
  [[nodiscard]] AgentId id() const { return id_; }
  void set_id(AgentId id) { id_ = id; }
  [[nodiscard]] std::uint16_t pc() const { return pc_; }
  void set_pc(std::uint16_t pc) { pc_ = pc; }
  [[nodiscard]] std::int16_t condition() const { return condition_; }
  void set_condition(std::int16_t c) { condition_ = c; }

  // --- operand stack ---------------------------------------------------------
  /// False on overflow (a VM error; the engine kills the agent).
  [[nodiscard]] bool push(const ts::Value& v) {
    if (depth_ >= kStackDepth) {
      return false;
    }
    stack_[depth_++] = v;
    return true;
  }
  /// Pushes a tuple's fields last first, so field 0 ends on top; false on
  /// overflow.
  [[nodiscard]] bool push_fields(const ts::Tuple& tuple) {
    for (std::size_t i = tuple.arity(); i-- > 0;) {
      if (!push(tuple.field(i))) {
        return false;
      }
    }
    return true;
  }
  /// Invalid Value on underflow.
  ts::Value pop() { return depth_ == 0 ? ts::Value{} : stack_[--depth_]; }
  [[nodiscard]] const ts::Value& peek(std::size_t depth_from_top = 0) const {
    return depth_from_top < depth_ ? stack_[depth_ - 1 - depth_from_top]
                                   : kNoValue;
  }
  [[nodiscard]] std::size_t stack_depth() const { return depth_; }
  /// The live entries, bottom first.
  [[nodiscard]] std::span<const ts::Value> stack() const {
    return {stack_.data(), depth_};
  }
  void clear_stack() { depth_ = 0; }
  /// Replaces the whole stack (migration restore); excess entries dropped.
  void restore_stack(std::span<const ts::Value> values);

  // --- heap -------------------------------------------------------------------
  [[nodiscard]] const ts::Value& heap(std::size_t slot) const {
    return slot < heap_.size() ? heap_[slot] : kNoValue;
  }
  bool set_heap(std::size_t slot, const ts::Value& v) {
    if (slot >= heap_.size()) {
      return false;
    }
    heap_[slot] = v;
    return true;
  }
  void clear_heap();

  /// The pending wakeup while the agent is in `sleep`; cancelled when a
  /// reaction wakes it early or the agent dies.
  [[nodiscard]] sim::EventHandle& sleep_timer() { return sleep_timer_; }

  /// A reaction that fired while the agent was blocked: delivered, one per
  /// wakeup, when the agent next becomes ready.
  struct PendingReaction {
    std::uint16_t handler_pc = 0;
    ts::Tuple tuple;
  };
  [[nodiscard]] sim::Fifo<PendingReaction>& pending_reactions() {
    return pending_reactions_;
  }

  // --- run state ---------------------------------------------------------------
  [[nodiscard]] AgentRunState run_state() const { return run_state_; }
  void set_run_state(AgentRunState s) { run_state_ = s; }

  /// While blocked in `in`/`rd`: the probe to retry on wakeup. Holds the
  /// compiled form — the template was lowered once when the op first ran,
  /// and every wakeup re-probe reuses it.
  struct BlockedProbe {
    ts::CompiledTemplate templ;
    bool remove = false;  ///< true for `in`, false for `rd`
  };
  [[nodiscard]] const std::optional<BlockedProbe>& blocked_probe() const {
    return blocked_probe_;
  }
  void set_blocked_probe(std::optional<BlockedProbe> probe) {
    blocked_probe_ = std::move(probe);
  }

  /// The agent's code. Shared ownership: a handler can destroy the agent
  /// mid-slice, so the dispatch loop pins a copy for the duration of the
  /// slice; clones on one mote share one program.
  [[nodiscard]] const std::shared_ptr<const DecodedProgram>& program() const {
    return program_;
  }

 private:
  /// What peek/heap return for an empty stack slot or a bad heap slot.
  static constexpr ts::Value kNoValue{};

  AgentId id_;
  std::uint16_t pc_ = 0;
  std::int16_t condition_ = 0;
  std::array<ts::Value, kStackDepth> stack_{};
  std::array<ts::Value, kHeapSlots> heap_{};
  std::uint8_t depth_ = 0;
  AgentRunState run_state_ = AgentRunState::kReady;
  std::optional<BlockedProbe> blocked_probe_;
  std::shared_ptr<const DecodedProgram> program_;
  sim::EventHandle sleep_timer_;
  sim::Fifo<PendingReaction> pending_reactions_;
};

}  // namespace agilla::core
