// The CPU cost model that stands in for the 8 MHz ATmega128L.
//
// Paper Fig. 12 groups local instructions into three latency classes
// (~75 us plain pushes, ~150 us memory-touching ops, ~292 us average for
// tuple-space ops, 60-440 us overall). We charge
//     cost = base(cost class) + per_byte * bytes_touched
// so the ordering between instructions (in > inp, rd > rdp, out grows with
// tuple size) emerges from the bytes each handler actually moves rather
// than from per-instruction constants. Calibration notes live in DESIGN.md.
#pragma once

#include "core/isa.h"
#include "sim/types.h"

namespace agilla::core {

// Simulated microseconds; the first three are the per-class bases
// (calibration in DESIGN.md).
inline constexpr double kSimpleUs = 72.0;
inline constexpr double kMemoryUs = 138.0;
inline constexpr double kTupleBaseUs = 240.0;
/// Per byte scanned/moved by tuple-space ops.
inline constexpr double kPerByteUs = 0.33;
/// in/rd wrap inp/rdp (paper Sec. 4).
inline constexpr double kBlockingExtraUs = 28.0;
/// Issue cost of sense/sleep/migration.
inline constexpr double kLongRunUs = 120.0;
/// Simulated ADC acquisition.
inline constexpr double kSenseLatencyUs = 210.0;
/// Round-robin switch between slices.
inline constexpr double kContextSwitchUs = 9.0;

/// Rounds simulated microseconds to the SimTime tick (negatives are 0).
[[nodiscard]] constexpr sim::SimTime to_time(double us) {
  return us <= 0.0 ? 0 : static_cast<sim::SimTime>(us + 0.5);
}

/// Cost of one instruction; `bytes_touched` only matters for kTupleOp.
[[nodiscard]] sim::SimTime instruction_cost(std::uint8_t raw_opcode,
                                            std::size_t bytes_touched,
                                            bool blocking_wrapper);

inline constexpr sim::SimTime kContextSwitchCost = to_time(kContextSwitchUs);
inline constexpr sim::SimTime kSenseCost = to_time(kSenseLatencyUs);

}  // namespace agilla::core
