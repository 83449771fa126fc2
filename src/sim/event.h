// The one observation record. Every externally observable state change in
// a deployment — agent lifecycle, tuple operations, radio traffic, node
// lifecycle, battery settling, instruction dispatch — is emitted as a plain
// sim::Event through Simulator::emit and reaches the single installed
// EventSink (api::EventBus fans it out to observers, each filtered by the
// kinds it asked for). The record is trivially copyable, with an
// inline payload and no owned memory, so shard workers can buffer it by
// value and the kernel can replay it at the epoch barrier in serial order
// (DESIGN.md "Embedding API").
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>

#include "sim/types.h"

namespace agilla::sim {

/// Why a node left (or re-joined) the network.
enum class NodeDownReason : std::uint8_t {
  kBatteryDepleted,
  kChurnCrash,
};

/// The state-changing Linda operations.
enum class TupleOp : std::uint8_t {
  kOut,  ///< tuple inserted
  kInp,  ///< tuple removed
};

enum class EventKind : std::uint8_t {
  /// Agent created: `reason` is "inject" (base station / test) or
  /// "migration" (arrival, clone install, or custody resume).
  kAgentSpawn,
  /// Agent destroyed on `node`: `reason` is "halt", "power" (node death),
  /// "migrated" (a move departed successfully), or a VM error message.
  kAgentKill,
  /// A migration left `node` toward `dest` (moves and clones; fires at
  /// protocol start, before the outcome is known).
  kAgentMigrate,
  /// Agent left the ready queue: `reason` is "sleep", "wait", "tuple"
  /// (blocked in/rd), "migrate", or "remote".
  kAgentBlock,
  /// A blocked agent re-entered the ready queue.
  kAgentResume,
  /// A local out/inp completed on `node`: `tuple_op` and the tuple's
  /// wire bytes.
  kTupleOp,
  /// A frame left a radio (`node` = sender); beacons included.
  kFrameTx,
  /// A receiver decoded a frame (`node` = receiver); `frame.lost` tells
  /// whether the channel then corrupted it.
  kFrameRx,
  kNodeDown,  ///< battery depletion or churn crash (`down`)
  kNodeUp,    ///< churn reboot with empty RAM
  /// The periodic battery-settle tick ran (kernel context; no node).
  kBatterySettle,
  /// An agent is about to execute the instruction at `pc` (`opcode` is the
  /// raw byte; undefined and truncated encodings included — they execute
  /// and kill the agent). One per instruction: only observers that ask
  /// for this kind receive it.
  kInsn,
  kCount,
};

/// A set of event kinds, one bit per EventKind: what an observer wants
/// delivered (EventBus::subscribe) and what a simulator builds records for
/// (Simulator::set_sink).
using EventKindMask = std::uint32_t;
static_assert(static_cast<unsigned>(EventKind::kCount) <
              8 * sizeof(EventKindMask));

/// The mask holding exactly `kinds`.
template <typename... Kinds>
constexpr EventKindMask mask_of(Kinds... kinds) {
  return ((EventKindMask{1} << static_cast<unsigned>(kinds)) | ...);
}

/// An observer's default interest: every kind but the per-instruction
/// kInsn stream.
inline constexpr EventKindMask kDefaultKinds =
    (mask_of(EventKind::kCount) - 1) & ~mask_of(EventKind::kInsn);

/// What an observer sees of a frame: addressing, size, and — for rx —
/// who decoded it and whether it was lost.
struct FrameSummary {
  NodeId src;
  NodeId dst;  ///< kBroadcastNode for beacons
  AmType am = AmType::kAck;
  std::uint16_t payload_bytes = 0;
  NodeId receiver;  ///< rx only
  bool lost = false;  ///< rx only

  friend bool operator==(const FrameSummary&, const FrameSummary&) = default;
};

/// Encoded tuple budget: [count u8][fields...], at most the 25 bytes of
/// ts::kMaxTupleWireBytes (tuple_space.cpp asserts they agree).
inline constexpr std::size_t kEventTupleBytes = 25;

/// One observation. Fields a kind does not use keep their defaults.
struct Event {
  Event() = default;
  Event(EventKind kind, SimTime at, NodeId node = {})
      : kind(kind), at(at), node(node) {}

  EventKind kind = EventKind::kBatterySettle;
  SimTime at = 0;
  NodeId node;
  std::uint16_t agent = 0;
  std::uint16_t pc = 0;      ///< kInsn: the instruction's address
  std::uint8_t opcode = 0;   ///< kInsn: the raw opcode byte
  /// Static string (a literal): never owned, valid forever.
  const char* reason = nullptr;
  Location dest;
  TupleOp tuple_op = TupleOp::kOut;
  std::uint8_t tuple_len = 0;
  std::array<std::uint8_t, kEventTupleBytes> tuple{};
  FrameSummary frame;
  NodeDownReason down = NodeDownReason::kBatteryDepleted;

  [[nodiscard]] std::span<const std::uint8_t> tuple_bytes() const {
    return {tuple.data(), tuple_len};
  }

  /// Field-wise (`reason` by pointer).
  friend bool operator==(const Event&, const Event&) = default;
};
static_assert(std::is_trivially_copyable_v<Event>);

/// The receiving end of Simulator::emit. Called on the driving thread in
/// serial (K=1) order whatever the shard count; a sink must not re-enter
/// the simulator (schedule or run) from on_event.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& event) = 0;
};

}  // namespace agilla::sim
