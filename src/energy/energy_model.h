// Energy cost models for the MICA2 platform, in the style of
// core/vm_costs.h: named constants with calibration sources in DESIGN.md,
// combined into millijoule charges by small pure functions.
//
// Power figures are CC1000/ATmega128L datasheet currents at 3 V (the
// numbers PowerTOSSIM and the Mica2 power profiles use): TX at 0 dBm
// ~16.5 mA -> 49.5 mW, RX/listen ~9.6 mA -> 28.8 mW, sleep ~1 uA,
// MCU active ~8 mA -> 24 mW.
#pragma once

#include "energy/duty_cycler.h"
#include "sim/types.h"

namespace agilla::energy {

// Radio draw: per-frame TX/RX charges from on-air time, continuous
// listen/sleep draw for the idle baseline.
inline constexpr double kRadioTxMw = 49.5;      ///< CC1000 TX at 0 dBm, 3 V
inline constexpr double kRadioRxMw = 28.8;      ///< CC1000 RX / idle listen
inline constexpr double kRadioSleepMw = 0.003;  ///< CC1000 power-down (~1 uA)
/// Per-frame TX fixed cost: preamble + sync + oscillator turnaround.
inline constexpr double kRadioTxStartupMj = 0.1;

/// Energy to transmit for `on_air` microseconds (data + LPL preamble).
[[nodiscard]] inline double radio_tx_mj(sim::SimTime on_air) {
  return kRadioTxStartupMj + kRadioTxMw * static_cast<double>(on_air) / 1e6;
}
/// Energy to receive/decode a frame of `on_air` microseconds.
[[nodiscard]] inline double radio_rx_mj(sim::SimTime on_air) {
  return kRadioRxMw * static_cast<double>(on_air) / 1e6;
}
/// Continuous draw while awake a `listen_fraction` of the time (duty
/// cycling mixes listen and sleep power).
[[nodiscard]] inline double radio_listen_mw(double listen_fraction) {
  return kRadioRxMw * listen_fraction +
         kRadioSleepMw * (1.0 - listen_fraction);
}

// The bridge from the VM cost model's simulated microseconds to
// millijoules, plus the fixed per-event CPU charges the VM issues.
inline constexpr double kCpuActiveMw = 24.0;  ///< ATmega128L at 8 MHz, 3 V
inline constexpr double kSenseMjPerSample = 0.02;  ///< ADC + sensor board
/// Serialization/deserialization work per migration message.
inline constexpr double kMigrationMsgMj = 0.004;

/// Energy for `us` microseconds of active CPU (what the VM cost model
/// charged for a slice).
[[nodiscard]] inline double cpu_mj(sim::SimTime us) {
  return kCpuActiveMw * static_cast<double>(us) / 1e6;
}

/// Idle-draw settling + depletion-check cadence (also the adaptive LPL
/// controller's observation tick).
inline constexpr sim::SimTime kSettlePeriod = 1 * sim::kSecond;

/// Everything sim::Network needs to run the energy subsystem.
struct EnergyOptions {
  /// Battery capacity per node; <= 0 means no batteries (immortal nodes,
  /// but duty-cycle latency still applies if configured).
  double battery_mj = 0.0;
  DutyCycler::Options duty{};
  /// Node 0 (the paper's base-station / gateway mote) is mains-powered:
  /// no battery, never churned. False puts the gateway on battery like
  /// everyone else (the `gateway_powered` harness knob).
  bool gateway_powered = true;
  /// Charge RX to awake in-range nodes that decode a unicast frame only
  /// to filter it out by address — real radios pay for overheard traffic.
  /// Off by default (the paper model charges only connected receivers).
  bool overhearing = false;
};

}  // namespace agilla::energy
