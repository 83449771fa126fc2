#include "core/isa.h"

#include <gtest/gtest.h>

namespace agilla::core {
namespace {

TEST(Isa, PaperFig7OpcodesAreHonored) {
  // Every opcode published in paper Fig. 7 keeps its exact value.
  EXPECT_EQ(static_cast<std::uint8_t>(Opcode::kLoc), 0x01);
  EXPECT_EQ(static_cast<std::uint8_t>(Opcode::kWait), 0x0b);
  EXPECT_EQ(static_cast<std::uint8_t>(Opcode::kSMove), 0x1a);
  EXPECT_EQ(static_cast<std::uint8_t>(Opcode::kWClone), 0x1d);
  EXPECT_EQ(static_cast<std::uint8_t>(Opcode::kGetNbr), 0x20);
  EXPECT_EQ(static_cast<std::uint8_t>(Opcode::kOut), 0x33);
  EXPECT_EQ(static_cast<std::uint8_t>(Opcode::kInp), 0x34);
  EXPECT_EQ(static_cast<std::uint8_t>(Opcode::kRd), 0x37);
  EXPECT_EQ(static_cast<std::uint8_t>(Opcode::kROut), 0x39);
  EXPECT_EQ(static_cast<std::uint8_t>(Opcode::kRInp), 0x3a);
  EXPECT_EQ(static_cast<std::uint8_t>(Opcode::kRegRxn), 0x3e);
}

TEST(Isa, MnemonicLookupIsCaseInsensitive) {
  EXPECT_EQ(opcode_by_mnemonic("smove"), Opcode::kSMove);
  EXPECT_EQ(opcode_by_mnemonic("SMOVE"), Opcode::kSMove);
  EXPECT_EQ(opcode_by_mnemonic("Pushloc"), Opcode::kPushloc);
  EXPECT_FALSE(opcode_by_mnemonic("flibber").has_value());
}

TEST(Isa, OperandWidths) {
  EXPECT_EQ(instruction_length(static_cast<std::uint8_t>(Opcode::kHalt)), 1u);
  EXPECT_EQ(instruction_length(static_cast<std::uint8_t>(Opcode::kPushc)), 2u);
  EXPECT_EQ(instruction_length(static_cast<std::uint8_t>(Opcode::kPushcl)),
            3u);
  EXPECT_EQ(instruction_length(static_cast<std::uint8_t>(Opcode::kPushn)), 3u);
  EXPECT_EQ(instruction_length(static_cast<std::uint8_t>(Opcode::kPushloc)),
            5u);
  EXPECT_EQ(instruction_length(static_cast<std::uint8_t>(Opcode::kRjump)), 2u);
}

TEST(Isa, UndefinedOpcodeHasNoInfo) {
  EXPECT_EQ(opcode_info(0xFF), nullptr);
  EXPECT_EQ(instruction_length(0xFF), 0u);
}

TEST(Isa, GetVarSetVarRanges) {
  // Each heap op covers kHeapSlots bytes from its base.
  EXPECT_EQ(opcode_info(0x40)->opcode, Opcode::kGetVar0);
  EXPECT_EQ(opcode_info(0x4b)->opcode, Opcode::kGetVar0);
  EXPECT_EQ(opcode_info(0x4c), nullptr);
  EXPECT_EQ(opcode_info(0x55)->opcode, Opcode::kSetVar0);
  EXPECT_EQ(opcode_info(0x5b)->opcode, Opcode::kSetVar0);
  EXPECT_EQ(opcode_info(0x5c), nullptr);
}

TEST(Isa, GetVarInstructionsAreSingleByte) {
  EXPECT_EQ(instruction_length(0x43), 1u);
  EXPECT_EQ(instruction_length(0x57), 1u);
}

TEST(Isa, OperandKinds) {
  const auto kind = [](std::uint8_t raw) { return opcode_info(raw)->operand; };
  EXPECT_EQ(kind(0x42), OperandKind::kHeapSlot);
  EXPECT_EQ(kind(0x5b), OperandKind::kHeapSlot);
  EXPECT_EQ(kind(0x60), OperandKind::kU8);
  EXPECT_EQ(kind(0x61), OperandKind::kS16);
  EXPECT_EQ(kind(0x62), OperandKind::kPackedString);
  EXPECT_EQ(kind(0x63), OperandKind::kFieldType);
  EXPECT_EQ(kind(0x64), OperandKind::kLocation);
  EXPECT_EQ(kind(0x65), OperandKind::kSensor);
  EXPECT_EQ(kind(0x28), OperandKind::kRel8);
  EXPECT_EQ(kind(0x29), OperandKind::kRel8);
  EXPECT_EQ(kind(0x2a), OperandKind::kAbs8);
  EXPECT_EQ(kind(0x1a), OperandKind::kNone);
}

TEST(Isa, CostClassesMatchPaperGroups) {
  // Paper Fig. 12: loc/aid/numnbrs are the cheap class; pushn/pushcl/
  // pushloc/regrxn/deregrxn/randnbr the memory class; TS ops the slow one.
  EXPECT_EQ(opcode_info(static_cast<std::uint8_t>(Opcode::kLoc))->cost,
            CostClass::kSimple);
  EXPECT_EQ(opcode_info(static_cast<std::uint8_t>(Opcode::kAid))->cost,
            CostClass::kSimple);
  EXPECT_EQ(opcode_info(static_cast<std::uint8_t>(Opcode::kPushn))->cost,
            CostClass::kMemory);
  EXPECT_EQ(opcode_info(static_cast<std::uint8_t>(Opcode::kRandNbr))->cost,
            CostClass::kMemory);
  EXPECT_EQ(opcode_info(static_cast<std::uint8_t>(Opcode::kRegRxn))->cost,
            CostClass::kMemory);
  EXPECT_EQ(opcode_info(static_cast<std::uint8_t>(Opcode::kOut))->cost,
            CostClass::kTupleOp);
  EXPECT_EQ(opcode_info(static_cast<std::uint8_t>(Opcode::kIn))->cost,
            CostClass::kTupleOp);
  EXPECT_EQ(opcode_info(static_cast<std::uint8_t>(Opcode::kSMove))->cost,
            CostClass::kLongRun);
}

TEST(Isa, EveryTableEntryRoundTripsByMnemonic) {
  for (std::uint16_t raw = 0; raw < 256; ++raw) {
    const OpcodeInfo* info = opcode_info(static_cast<std::uint8_t>(raw));
    if (info == nullptr) {
      continue;
    }
    const auto back = opcode_by_mnemonic(info->mnemonic);
    ASSERT_TRUE(back.has_value()) << info->mnemonic;
  }
}

}  // namespace
}  // namespace agilla::core
