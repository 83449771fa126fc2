#include "core/vm_costs.h"

namespace agilla::core {

sim::SimTime instruction_cost(std::uint8_t raw_opcode,
                              std::size_t bytes_touched,
                              bool blocking_wrapper) {
  const OpcodeInfo* info = opcode_info(raw_opcode);
  if (info == nullptr) {
    return to_time(kSimpleUs);
  }
  double us = 0.0;
  switch (info->cost) {
    case CostClass::kSimple:
      us = kSimpleUs;
      break;
    case CostClass::kMemory:
      us = kMemoryUs;
      break;
    case CostClass::kTupleOp:
      us = kTupleBaseUs + kPerByteUs * static_cast<double>(bytes_touched);
      break;
    case CostClass::kLongRun:
      us = kLongRunUs;
      break;
  }
  if (blocking_wrapper) {
    us += kBlockingExtraUs;
  }
  return to_time(us);
}

}  // namespace agilla::core
