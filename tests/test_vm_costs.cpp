#include "core/vm_costs.h"

#include <gtest/gtest.h>

namespace agilla::core {
namespace {

std::uint8_t raw(Opcode op) { return static_cast<std::uint8_t>(op); }

TEST(VmCosts, ThreeClassesOrderedLikePaperFig12) {
  const auto simple = instruction_cost(raw(Opcode::kLoc), 0, false);
  const auto memory = instruction_cost(raw(Opcode::kPushn), 0, false);
  const auto tuple = instruction_cost(raw(Opcode::kOut), 100, false);
  EXPECT_LT(simple, memory);
  EXPECT_LT(memory, tuple);
}

TEST(VmCosts, SimpleClassNearPaper75us) {
  const auto cost = instruction_cost(raw(Opcode::kLoc), 0, false);
  EXPECT_GE(cost, 60u);
  EXPECT_LE(cost, 90u);
}

TEST(VmCosts, MemoryClassNearPaper150us) {
  const auto cost = instruction_cost(raw(Opcode::kPushloc), 0, false);
  EXPECT_GE(cost, 120u);
  EXPECT_LE(cost, 170u);
}

TEST(VmCosts, TupleOpsScaleWithBytesTouched) {
  const auto empty = instruction_cost(raw(Opcode::kRdp), 0, false);
  const auto busy = instruction_cost(raw(Opcode::kRdp), 400, false);
  EXPECT_LT(empty, busy);
  EXPECT_NEAR(static_cast<double>(busy - empty), 0.33 * 400, 1.0);
}

TEST(VmCosts, TupleOpsFallInPaperRange) {
  // Paper: tuple ops average 292 us, everything within 60-440 us.
  for (std::size_t bytes : {0u, 100u, 300u, 600u}) {
    const auto cost = instruction_cost(raw(Opcode::kOut), bytes, false);
    EXPECT_GE(cost, 200u);
    EXPECT_LE(cost, 445u);
  }
}

TEST(VmCosts, BlockingWrapperAddsOverhead) {
  // Paper: "blocking tuple space operations take slightly longer than the
  // non-blocking ones".
  const auto inp = instruction_cost(raw(Opcode::kInp), 50, false);
  const auto in = instruction_cost(raw(Opcode::kIn), 50, true);
  EXPECT_GT(in, inp);
  EXPECT_LE(in - inp, 50u);
}

TEST(VmCosts, UnknownOpcodeFallsBackToSimple) {
  EXPECT_EQ(instruction_cost(0xFF, 0, false),
            instruction_cost(raw(Opcode::kLoc), 0, false));
}

TEST(VmCosts, ContextSwitchSmall) {
  EXPECT_GT(kContextSwitchCost, 0u);
  EXPECT_LT(kContextSwitchCost, 50u);
}

TEST(VmCosts, ToTimeRounds) {
  EXPECT_EQ(to_time(1.4), 1u);
  EXPECT_EQ(to_time(1.6), 2u);
  EXPECT_EQ(to_time(-5.0), 0u);
}

}  // namespace
}  // namespace agilla::core
