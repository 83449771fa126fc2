#include "core/isa.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <string_view>
#include <unordered_map>

namespace agilla::core {
namespace {

constexpr std::array<OpcodeInfo, kDefinedOpcodes> kOpcodeTable = {{
#define AGILLA_OPCODE_INFO(name, value, mnemonic, operand, cost, cls) \
  {Opcode::k##name, mnemonic, OperandKind::k##operand, CostClass::k##cost},
    AGILLA_OPCODES(AGILLA_OPCODE_INFO)
#undef AGILLA_OPCODE_INFO
}};

/// Raw byte -> index into kOpcodeTable (kDefinedOpcodes when undefined).
constexpr auto kIndexByRaw = [] {
  std::array<std::uint8_t, 256> index{};
  index.fill(static_cast<std::uint8_t>(kDefinedOpcodes));
  for (std::size_t i = 0; i < kOpcodeTable.size(); ++i) {
    const auto base = static_cast<std::size_t>(kOpcodeTable[i].opcode);
    const bool heap_op = kOpcodeTable[i].operand == OperandKind::kHeapSlot;
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

std::size_t instruction_length(std::uint8_t raw) {
  const OpcodeInfo* info = opcode_info(raw);
  if (info == nullptr) {
    return 0;
  }
  return 1 + operand_width(info->operand);
}

}  // namespace agilla::core
