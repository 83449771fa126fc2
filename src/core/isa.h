// The Agilla instruction set (paper Sec. 3.4, Fig. 7).
//
// Every opcode the paper lists keeps its published value:
//   loc=0x01, wait=0x0b, smove=0x1a, wclone=0x1d, getnbr=0x20, out=0x33,
//   inp=0x34, rd=0x37, rout=0x39, rinp=0x3a, regrxn=0x3e.
// The remaining opcodes fill the gaps consistently with those anchors.
//
// Most instructions are a single byte; an operand kind fixes how many
// operand bytes follow: one for pushc/pusht/pushrt and the jumps, two for
// pushcl/pushn, four for pushloc (paper Sec. 3.3: "a few consume 3 bytes
// for pushing 16-bit variables onto the stack").
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace agilla::core {

/// How an instruction's operand bytes are encoded. The operand width, the
/// value the decoder prebuilds, the assembler's parse and the
/// disassembler's print all follow from the kind.
enum class OperandKind : std::uint8_t {
  kNone,          ///< no operand
  kHeapSlot,      ///< heap slot 0..11 added to the opcode byte, no operand
  kU8,            ///< 1 byte: unsigned constant (number, sensor or label)
  kS16,           ///< 2 bytes LE: signed 16-bit constant (or label)
  kPackedString,  ///< 2 bytes LE: 1..3 characters, ts::pack_string
  kFieldType,     ///< 1 byte: the ts::ValueType of a field-type wildcard
  kSensor,        ///< 1 byte: a sim::SensorType reading designator
  kLocation,      ///< 4 bytes: fixed-point x then y, 2 bytes LE each
  kRel8,          ///< 1 byte: signed jump offset from the next instruction
  kAbs8,          ///< 1 byte: absolute jump address 0..255
};

/// Operand bytes that follow the opcode byte.
constexpr std::size_t operand_width(OperandKind kind) {
  switch (kind) {
    case OperandKind::kNone:
    case OperandKind::kHeapSlot:
      return 0;
    case OperandKind::kS16:
    case OperandKind::kPackedString:
      return 2;
    case OperandKind::kLocation:
      return 4;
    default:
      return 1;
  }
}

/// Cost classes behind the three latency groups of paper Fig. 12.
enum class CostClass : std::uint8_t {
  kSimple,   ///< "simply push a value onto the stack", ~75 us
  kMemory,   ///< extra memory accesses / small computation, ~150 us
  kTupleOp,  ///< tuple-space operations, ~292 us average
  kLongRun,  ///< sense/sleep/wait/migration/remote: yields the engine
};

// clang-format off
/// The instruction table: X(Name, value, "mnemonic", Operand, Cost, Class)
/// per opcode, where Operand names an OperandKind, Cost a CostClass and
/// Class the dispatcher's handler class (an AGILLA_OP_CLASSES entry in
/// core/vm_dispatch.h, named here only as a token). It generates Opcode,
/// the opcode_info() table and the dispatcher's byte-to-class map, so
/// nothing else restates what an opcode byte is.
#define AGILLA_OPCODES(X)                                                    \
  /* zero-operand basics */                                                  \
  X(Halt,     0x00, "halt",     None, Simple,  Halt)    /* agent dies */     \
  X(Loc,      0x01, "loc",      None, Simple,  Loc)     /* push location */  \
  X(Aid,      0x02, "aid",      None, Simple,  Aid)     /* push agent id */  \
  X(Rand,     0x03, "rand",     None, Memory,  Rand)    /* random 16-bit */  \
  X(NumNbrs,  0x04, "numnbrs",  None, Simple,  NumNbrs) /* nbr count */      \
  X(Sense,    0x05, "sense",    None, LongRun, Sense)   /* pop type, read */ \
  X(Sleep,    0x06, "sleep",    None, LongRun, Sleep)   /* pop ticks */      \
  X(PutLed,   0x07, "putled",   None, Simple,  PutLed)  /* pop, set LEDs */  \
  X(Copy,     0x08, "copy",     None, Simple,  Copy)    /* dup top */        \
  X(Pop,      0x09, "pop",      None, Simple,  Pop)                          \
  X(Swap,     0x0a, "swap",     None, Simple,  Swap)                         \
  X(Wait,     0x0b, "wait",     None, LongRun, Wait)    /* await reaction */ \
  X(Jumps,    0x0c, "jumps",    None, Simple,  Jumps)   /* pop address */    \
  X(Depth,    0x0d, "depth",    None, Simple,  Depth)                        \
  X(Clear,    0x0e, "clear",    None, Simple,  Clear)                        \
  X(Cpush,    0x0f, "cpush",    None, Simple,  Cpush)   /* push condition */ \
  /* arithmetic / logic: pop 2, push 1 unless noted */                       \
  X(Add,      0x10, "add",      None, Simple,  Arith)                        \
  X(Sub,      0x11, "sub",      None, Simple,  Arith)   /* second - top */   \
  X(And,      0x12, "and",      None, Simple,  Arith)                        \
  X(Or,       0x13, "or",       None, Simple,  Arith)                        \
  X(Not,      0x14, "not",      None, Simple,  Not)     /* pop 1, logical */ \
  X(Mod,      0x15, "mod",      None, Simple,  Arith)   /* second mod top */ \
  X(Inc,      0x16, "inc",      None, Simple,  IncDec)  /* pop 1 */          \
  X(Dec,      0x17, "dec",      None, Simple,  IncDec)  /* pop 1 */          \
  X(Eq,       0x18, "eq",       None, Simple,  Arith)   /* 1 if equal */     \
  X(Mul,      0x19, "mul",      None, Simple,  Arith)                        \
  /* migration to [location]: strong keeps state, weak restarts at pc 0 */   \
  X(SMove,    0x1a, "smove",    None, LongRun, Migrate)                      \
  X(WMove,    0x1b, "wmove",    None, LongRun, Migrate)                      \
  X(SClone,   0x1c, "sclone",   None, LongRun, Migrate)                      \
  X(WClone,   0x1d, "wclone",   None, LongRun, Migrate)                      \
  /* context */                                                              \
  X(GetNbr,   0x20, "getnbr",   None, Memory,  GetNbr)  /* pop index */      \
  X(RandNbr,  0x21, "randnbr",  None, Memory,  RandNbr)                      \
  /* comparisons set the condition: top ==, <, > second (Fig. 13) */         \
  X(Ceq,      0x24, "ceq",      None, Simple,  Compare)                      \
  X(Clt,      0x25, "clt",      None, Simple,  Compare)                      \
  X(Cgt,      0x26, "cgt",      None, Simple,  Compare)                      \
  /* control flow */                                                         \
  X(Rjump,    0x28, "rjump",    Rel8, Simple,  Rjump)                        \
  X(Rjumpc,   0x29, "rjumpc",   Rel8, Simple,  Rjumpc)  /* if condition */   \
  X(Jump,     0x2a, "jump",     Abs8, Simple,  Jump)                         \
  /* tuple space: pop [template] or [tuple]; rd/in block */                  \
  X(Out,      0x33, "out",      None, TupleOp, TupleOp)                      \
  X(Inp,      0x34, "inp",      None, TupleOp, TupleOp)                      \
  X(Rdp,      0x35, "rdp",      None, TupleOp, TupleOp)                      \
  X(In,       0x36, "in",       None, TupleOp, TupleOp)                      \
  X(Rd,       0x37, "rd",       None, TupleOp, TupleOp)                      \
  X(TCount,   0x38, "tcount",   None, TupleOp, TupleOp) /* push matches */   \
  X(ROut,     0x39, "rout",     None, LongRun, Remote)  /* + [location] */   \
  X(RInp,     0x3a, "rinp",     None, LongRun, Remote)                       \
  X(RRdp,     0x3b, "rrdp",     None, LongRun, Remote)                       \
  X(RegRxn,   0x3e, "regrxn",   None, Memory,  TupleOp) /* + [address] */    \
  X(DeregRxn, 0x3f, "deregrxn", None, Memory,  TupleOp)                      \
  /* heap access: 0x40..0x4b push heap[slot], 0x50..0x5b pop into it */      \
  X(GetVar0,  0x40, "getvar",   HeapSlot,     Memory, GetVar)                \
  X(SetVar0,  0x50, "setvar",   HeapSlot,     Memory, SetVar)                \
  /* push instructions with operands */                                      \
  X(Pushc,    0x60, "pushc",    U8,           Simple, Push)                  \
  X(Pushcl,   0x61, "pushcl",   S16,          Memory, Push)                  \
  X(Pushn,    0x62, "pushn",    PackedString, Memory, Push)                  \
  X(Pusht,    0x63, "pusht",    FieldType,    Memory, Push)                  \
  X(Pushloc,  0x64, "pushloc",  Location,     Memory, Push)                  \
  X(Pushrt,   0x65, "pushrt",   Sensor,       Memory, Push)
// clang-format on

enum class Opcode : std::uint8_t {
#define AGILLA_OPCODE_ENUM(name, value, mnemonic, operand, cost, cls) \
  k##name = value,
  AGILLA_OPCODES(AGILLA_OPCODE_ENUM)
#undef AGILLA_OPCODE_ENUM
};

inline constexpr std::size_t kHeapSlots = 12;

struct OpcodeInfo {
  Opcode opcode = Opcode::kHalt;
  const char* mnemonic = "";
  OperandKind operand = OperandKind::kNone;
  CostClass cost = CostClass::kSimple;
};

/// Metadata for `op`; nullptr for undefined opcodes. getvar/setvar report
/// the metadata of their 0x40/0x50 base.
const OpcodeInfo* opcode_info(std::uint8_t raw);

/// How many opcodes are defined, counting getvar and setvar once each:
/// the size of a dense per-opcode table.
#define AGILLA_OPCODE_COUNT(name, value, mnemonic, operand, cost, cls) +1
inline constexpr std::size_t kDefinedOpcodes =
    0 AGILLA_OPCODES(AGILLA_OPCODE_COUNT);
#undef AGILLA_OPCODE_COUNT

/// Dense index of `raw` in [0, kDefinedOpcodes), with getvar/setvar folded
/// onto their base; kDefinedOpcodes for an undefined byte.
std::size_t opcode_index(std::uint8_t raw);

/// The (base) opcode at dense index `index` < kDefinedOpcodes.
Opcode opcode_at(std::size_t index);

/// Lookup by mnemonic ("smove", case-insensitive); nullopt if unknown.
/// getvar/setvar resolve to their base opcodes.
std::optional<Opcode> opcode_by_mnemonic(const std::string& mnemonic);

/// Total instruction length in bytes (1 + operand bytes); 0 if undefined.
std::size_t instruction_length(std::uint8_t raw);

}  // namespace agilla::core
