// Per-node battery: a finite energy reserve in millijoules plus a
// per-component draw ledger (radio TX/RX/idle-listen, CPU, sensing).
//
// Accounting invariant: the battery's total drop is DEFINED as the sum of
// the per-component draws — remaining() is derived, never tracked
// separately — so conservation (total drop == sum of draws) holds exactly,
// by construction, and tests can assert it with == rather than a
// tolerance. Idle-listen draw is continuous; it is accrued lazily via
// settle(), which charges `idle_draw_mw` for the elapsed virtual time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/types.h"

namespace agilla::energy {

/// Who drew the energy. Indexes the Battery ledger.
enum class EnergyComponent : std::uint8_t {
  kRadioTx = 0,    ///< frame transmissions (incl. LPL preamble, startup)
  kRadioRx = 1,    ///< frame receptions (decode time at the receiver)
  kRadioIdle = 2,  ///< idle listening / sleep baseline, via settle()
  kCpu = 3,        ///< VM instruction execution (core/vm_costs.h microseconds)
  kSense = 4,      ///< ADC acquisitions issued by the sense instruction
};

inline constexpr std::size_t kEnergyComponentCount = 5;

[[nodiscard]] const char* to_string(EnergyComponent c);

class Battery {
 public:
  /// A battery holding `capacity_mj` millijoules, idle accrual starting
  /// at virtual time `now`.
  Battery(double capacity_mj, sim::SimTime now)
      : capacity_mj_(capacity_mj), last_settle_(now) {}

  /// Records a draw against `component`. The applied amount is clamped to
  /// what the battery still holds, so the ledger never exceeds capacity.
  void drain(EnergyComponent component, double mj);

  /// Accrues idle-listen draw (`idle_draw_mw` over the time since the
  /// last settle) into kRadioIdle. Idempotent at a fixed `now`.
  void settle(sim::SimTime now);

  /// Changes the continuous draw rate (duty-cycle wake/sleep, node death).
  /// Call settle() first so the old rate covers the elapsed interval.
  void set_idle_draw_mw(double mw) { idle_draw_mw_ = mw; }

  [[nodiscard]] double capacity_mj() const { return capacity_mj_; }
  [[nodiscard]] double drained_mj(EnergyComponent component) const {
    return drained_[static_cast<std::size_t>(component)];
  }
  /// Sum of the per-component draws — the battery's total drop.
  [[nodiscard]] double total_drained_mj() const;
  [[nodiscard]] double remaining_mj() const;
  [[nodiscard]] bool depleted() const { return remaining_mj() <= 0.0; }
  [[nodiscard]] double idle_draw_mw() const { return idle_draw_mw_; }

 private:
  double capacity_mj_;
  std::array<double, kEnergyComponentCount> drained_{};
  double idle_draw_mw_ = 0.0;
  sim::SimTime last_settle_;
};

}  // namespace agilla::energy
