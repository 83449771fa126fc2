#include "core/isa.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <string_view>
#include <unordered_map>

namespace agilla::core {
namespace {

constexpr std::array kOpcodeTable = {
    OpcodeInfo{Opcode::kHalt, "halt", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kLoc, "loc", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kAid, "aid", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kRand, "rand", 0, CostClass::kMemory},
    OpcodeInfo{Opcode::kNumNbrs, "numnbrs", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kSense, "sense", 0, CostClass::kLongRun},
    OpcodeInfo{Opcode::kSleep, "sleep", 0, CostClass::kLongRun},
    OpcodeInfo{Opcode::kPutLed, "putled", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kCopy, "copy", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kPop, "pop", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kSwap, "swap", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kWait, "wait", 0, CostClass::kLongRun},
    OpcodeInfo{Opcode::kJumps, "jumps", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kDepth, "depth", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kClear, "clear", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kCpush, "cpush", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kAdd, "add", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kSub, "sub", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kAnd, "and", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kOr, "or", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kNot, "not", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kMod, "mod", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kInc, "inc", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kDec, "dec", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kEq, "eq", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kMul, "mul", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kSMove, "smove", 0, CostClass::kLongRun},
    OpcodeInfo{Opcode::kWMove, "wmove", 0, CostClass::kLongRun},
    OpcodeInfo{Opcode::kSClone, "sclone", 0, CostClass::kLongRun},
    OpcodeInfo{Opcode::kWClone, "wclone", 0, CostClass::kLongRun},
    OpcodeInfo{Opcode::kGetNbr, "getnbr", 0, CostClass::kMemory},
    OpcodeInfo{Opcode::kRandNbr, "randnbr", 0, CostClass::kMemory},
    OpcodeInfo{Opcode::kCeq, "ceq", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kClt, "clt", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kCgt, "cgt", 0, CostClass::kSimple},
    OpcodeInfo{Opcode::kRjump, "rjump", 1, CostClass::kSimple},
    OpcodeInfo{Opcode::kRjumpc, "rjumpc", 1, CostClass::kSimple},
    OpcodeInfo{Opcode::kJump, "jump", 1, CostClass::kSimple},
    OpcodeInfo{Opcode::kOut, "out", 0, CostClass::kTupleOp},
    OpcodeInfo{Opcode::kInp, "inp", 0, CostClass::kTupleOp},
    OpcodeInfo{Opcode::kRdp, "rdp", 0, CostClass::kTupleOp},
    OpcodeInfo{Opcode::kIn, "in", 0, CostClass::kTupleOp},
    OpcodeInfo{Opcode::kRd, "rd", 0, CostClass::kTupleOp},
    OpcodeInfo{Opcode::kTCount, "tcount", 0, CostClass::kTupleOp},
    OpcodeInfo{Opcode::kROut, "rout", 0, CostClass::kLongRun},
    OpcodeInfo{Opcode::kRInp, "rinp", 0, CostClass::kLongRun},
    OpcodeInfo{Opcode::kRRdp, "rrdp", 0, CostClass::kLongRun},
    OpcodeInfo{Opcode::kRegRxn, "regrxn", 0, CostClass::kMemory},
    OpcodeInfo{Opcode::kDeregRxn, "deregrxn", 0, CostClass::kMemory},
    OpcodeInfo{Opcode::kGetVar0, "getvar", 0, CostClass::kMemory},
    OpcodeInfo{Opcode::kSetVar0, "setvar", 0, CostClass::kMemory},
    OpcodeInfo{Opcode::kPushc, "pushc", 1, CostClass::kSimple},
    OpcodeInfo{Opcode::kPushcl, "pushcl", 2, CostClass::kMemory},
    OpcodeInfo{Opcode::kPushn, "pushn", 2, CostClass::kMemory},
    OpcodeInfo{Opcode::kPusht, "pusht", 1, CostClass::kMemory},
    OpcodeInfo{Opcode::kPushloc, "pushloc", 4, CostClass::kMemory},
    OpcodeInfo{Opcode::kPushrt, "pushrt", 1, CostClass::kMemory},
};

static_assert(kOpcodeTable.size() == kDefinedOpcodes);

/// Raw byte -> index into kOpcodeTable (kDefinedOpcodes when undefined).
constexpr auto kIndexByRaw = [] {
  std::array<std::uint8_t, 256> index{};
  index.fill(static_cast<std::uint8_t>(kDefinedOpcodes));
  for (std::size_t i = 0; i < kOpcodeTable.size(); ++i) {
    const auto base = static_cast<std::size_t>(kOpcodeTable[i].opcode);
    const bool heap_op = kOpcodeTable[i].opcode == Opcode::kGetVar0 ||
                         kOpcodeTable[i].opcode == Opcode::kSetVar0;
    for (std::size_t slot = 0; slot < (heap_op ? kHeapSlots : 1); ++slot) {
      index[base + slot] = static_cast<std::uint8_t>(i);
    }
  }
  return index;
}();

}  // namespace

std::size_t opcode_index(std::uint8_t raw) { return kIndexByRaw[raw]; }

Opcode opcode_at(std::size_t index) { return kOpcodeTable[index].opcode; }

const OpcodeInfo* opcode_info(std::uint8_t raw) {
  const std::size_t index = opcode_index(raw);
  return index < kDefinedOpcodes ? &kOpcodeTable[index] : nullptr;
}

std::optional<Opcode> opcode_by_mnemonic(const std::string& mnemonic) {
  static const auto by_mnemonic = [] {
    std::unordered_map<std::string_view, Opcode> map;
    for (const auto& info : kOpcodeTable) {
      map.emplace(info.mnemonic, info.opcode);
    }
    return map;
  }();
  std::string lower(mnemonic);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const auto it = by_mnemonic.find(lower);
  return it == by_mnemonic.end() ? std::nullopt
                                 : std::optional<Opcode>(it->second);
}

bool is_getvar(std::uint8_t raw, std::uint8_t* slot) {
  const auto base = static_cast<std::uint8_t>(Opcode::kGetVar0);
  if (raw >= base && raw < base + kHeapSlots) {
    if (slot != nullptr) {
      *slot = static_cast<std::uint8_t>(raw - base);
    }
    return true;
  }
  return false;
}

bool is_setvar(std::uint8_t raw, std::uint8_t* slot) {
  const auto base = static_cast<std::uint8_t>(Opcode::kSetVar0);
  if (raw >= base && raw < base + kHeapSlots) {
    if (slot != nullptr) {
      *slot = static_cast<std::uint8_t>(raw - base);
    }
    return true;
  }
  return false;
}

std::size_t instruction_length(std::uint8_t raw) {
  const OpcodeInfo* info = opcode_info(raw);
  if (info == nullptr) {
    return 0;
  }
  return 1 + static_cast<std::size_t>(info->operand_bytes);
}

std::string opcode_name(std::uint8_t raw) {
  std::uint8_t slot = 0;
  if (is_getvar(raw, &slot)) {
    return "getvar[" + std::to_string(slot) + "]";
  }
  if (is_setvar(raw, &slot)) {
    return "setvar[" + std::to_string(slot) + "]";
  }
  const OpcodeInfo* info = opcode_info(raw);
  if (info == nullptr) {
    return "undef(0x" + std::to_string(raw) + ")";
  }
  return info->mnemonic;
}

}  // namespace agilla::core
