// The Agilla instruction set (paper Sec. 3.4, Fig. 7).
//
// Every opcode the paper lists keeps its published value:
//   loc=0x01, wait=0x0b, smove=0x1a, wclone=0x1d, getnbr=0x20, out=0x33,
//   inp=0x34, rd=0x37, rout=0x39, rinp=0x3a, regrxn=0x3e.
// The remaining opcodes fill the gaps consistently with those anchors.
//
// Most instructions are a single byte; pushc/pusht/pushrt carry one operand
// byte, pushcl/pushn and the jump instructions carry a 16-bit/offset
// operand, pushloc carries four bytes (paper Sec. 3.3: "a few consume 3
// bytes for pushing 16-bit variables onto the stack").
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace agilla::core {

enum class Opcode : std::uint8_t {
  // --- zero-operand basics ------------------------------------------------
  kHalt = 0x00,     ///< agent dies, resources are freed
  kLoc = 0x01,      ///< push the host node's location       (paper Fig. 7)
  kAid = 0x02,      ///< push this agent's id
  kRand = 0x03,     ///< push a random 16-bit value
  kNumNbrs = 0x04,  ///< push the acquaintance-list size
  kSense = 0x05,    ///< pop reading-type, push a sensor reading (long-run)
  kSleep = 0x06,    ///< pop tick count (1/8 s each), sleep      (long-run)
  kPutLed = 0x07,   ///< pop value, drive the (simulated) LEDs
  kCopy = 0x08,     ///< duplicate the top of stack
  kPop = 0x09,      ///< discard the top of stack
  kSwap = 0x0a,     ///< swap the top two stack entries
  kWait = 0x0b,     ///< block until a reaction fires        (paper Fig. 7)
  kJumps = 0x0c,    ///< pop an address, jump to it (reaction return)
  kDepth = 0x0d,    ///< push the current stack depth
  kClear = 0x0e,    ///< empty the stack
  kCpush = 0x0f,    ///< push the condition-code register

  // --- arithmetic / logic (pop 2, push 1 unless noted) ---------------------
  kAdd = 0x10,
  kSub = 0x11,  ///< pushes (second - top)
  kAnd = 0x12,
  kOr = 0x13,
  kNot = 0x14,  ///< pop 1; pushes logical not (0 -> 1, else 0)
  kMod = 0x15,  ///< pushes (second mod top); top==0 is a VM error
  kInc = 0x16,  ///< pop 1, push value+1
  kDec = 0x17,  ///< pop 1, push value-1
  kEq = 0x18,   ///< pushes 1 if equal else 0 (cf. ceq which sets condition)
  kMul = 0x19,

  // --- migration (paper Fig. 7 anchors smove and wclone) -------------------
  kSMove = 0x1a,   ///< strong move to [location]
  kWMove = 0x1b,   ///< weak move: code only, restarts from pc 0
  kSClone = 0x1c,  ///< strong clone
  kWClone = 0x1d,  ///< weak clone

  // --- context ------------------------------------------------------------
  kGetNbr = 0x20,   ///< pop index, push that neighbour's location
  kRandNbr = 0x21,  ///< push a uniformly random neighbour's location

  // --- condition-setting comparisons (pop 2) -------------------------------
  kCeq = 0x24,  ///< condition = (top == second)
  kClt = 0x25,  ///< condition = (top <  second)  [Fig. 13 semantics]
  kCgt = 0x26,  ///< condition = (top >  second)

  // --- control flow ---------------------------------------------------------
  kRjump = 0x28,   ///< +1 operand byte: signed pc-relative jump
  kRjumpc = 0x29,  ///< +1 operand byte: relative jump if condition != 0
  kJump = 0x2a,    ///< +1 operand byte: absolute jump

  // --- tuple space (paper Fig. 7 anchors out/inp/rd/rout/rinp/regrxn) -------
  kOut = 0x33,     ///< pop [tuple], insert into the local tuple space
  kInp = 0x34,     ///< pop [template]; non-blocking remove
  kRdp = 0x35,     ///< pop [template]; non-blocking read
  kIn = 0x36,      ///< blocking remove (built on inp + wait queue)
  kRd = 0x37,      ///< blocking read
  kTCount = 0x38,  ///< pop [template]; push number of matching tuples
  kROut = 0x39,    ///< pop [location],[tuple]; remote out
  kRInp = 0x3a,    ///< pop [location],[template]; remote inp
  kRRdp = 0x3b,    ///< pop [location],[template]; remote rdp
  kRegRxn = 0x3e,  ///< pop [address],[template]; register reaction
  kDeregRxn = 0x3f,///< pop [template]; deregister this agent's reaction

  // --- heap access: 12 slots embedded in the opcode -------------------------
  kGetVar0 = 0x40,  ///< 0x40..0x4b: push heap[slot]
  kSetVar0 = 0x50,  ///< 0x50..0x5b: pop into heap[slot]

  // --- push instructions with operands ---------------------------------------
  kPushc = 0x60,   ///< +1 byte: push unsigned 8-bit constant
  kPushcl = 0x61,  ///< +2 bytes: push signed 16-bit constant
  kPushn = 0x62,   ///< +2 bytes: push packed 3-char string
  kPusht = 0x63,   ///< +1 byte: push a field-type wildcard
  kPushloc = 0x64, ///< +4 bytes: push a location (fixed-point x, y)
  kPushrt = 0x65,  ///< +1 byte: push a reading-type (sensor designator)
};

inline constexpr std::size_t kHeapSlots = 12;

/// Cost classes behind the three latency groups of paper Fig. 12.
enum class CostClass : std::uint8_t {
  kSimple,   ///< "simply push a value onto the stack", ~75 us
  kMemory,   ///< extra memory accesses / small computation, ~150 us
  kTupleOp,  ///< tuple-space operations, ~292 us average
  kLongRun,  ///< sense/sleep/wait/migration/remote: yields the engine
};

struct OpcodeInfo {
  Opcode opcode = Opcode::kHalt;
  const char* mnemonic = "";
  std::uint8_t operand_bytes = 0;
  CostClass cost = CostClass::kSimple;
};

/// Metadata for `op`; nullptr for undefined opcodes. getvar/setvar report
/// the metadata of their 0x40/0x50 base.
const OpcodeInfo* opcode_info(std::uint8_t raw);

/// How many opcodes are defined, counting getvar and setvar once each:
/// the size of a dense per-opcode table.
inline constexpr std::size_t kDefinedOpcodes = 57;

/// Dense index of `raw` in [0, kDefinedOpcodes), with getvar/setvar folded
/// onto their base; kDefinedOpcodes for an undefined byte.
std::size_t opcode_index(std::uint8_t raw);

/// The (base) opcode at dense index `index` < kDefinedOpcodes.
Opcode opcode_at(std::size_t index);

/// Lookup by mnemonic ("smove", case-insensitive); nullopt if unknown.
/// getvar/setvar resolve to their base opcodes.
std::optional<Opcode> opcode_by_mnemonic(const std::string& mnemonic);

/// True when `raw` encodes getvar/setvar; `slot` receives the heap index.
bool is_getvar(std::uint8_t raw, std::uint8_t* slot = nullptr);
bool is_setvar(std::uint8_t raw, std::uint8_t* slot = nullptr);

/// Total instruction length in bytes (1 + operand bytes); 0 if undefined.
std::size_t instruction_length(std::uint8_t raw);

/// Human-readable name, e.g. "smove", "getvar[3]".
std::string opcode_name(std::uint8_t raw);

}  // namespace agilla::core
