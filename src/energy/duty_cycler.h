// Low-power-listening duty cycler (B-MAC style, as TinyOS ships for the
// CC1000): the receiver wakes for a short channel sample every check
// period and sleeps in between; a sender prepends a preamble long enough
// to span one full check period so the receiver's next sample catches it.
//
// The listen fraction is the knob (`duty_cycle` on the harness axis): the
// wake time is fixed and the check period derived as wake / fraction, so
// a lower fraction means a LONGER check period — less idle draw, but every
// frame pays a longer preamble (more TX energy and more latency). That is
// exactly the tradeoff bench_ablation_energy sweeps.
//
// Adaptive mode (`adaptive_lpl` axis) turns the fraction into a per-node
// controller: each settle tick the node feeds observe() the number of
// frames it heard, and the controller halves the listen fraction (doubles
// the check period) after a silent tick and doubles it (halves the
// period) when a tick hears at least kBusyFrames frames, clamped to
// [min_fraction, max_fraction]. The control law and its stability bound
// are documented in DESIGN.md ("Routing & LPL").
#pragma once

#include "sim/types.h"

namespace agilla::energy {

/// Channel-sample duration per wakeup (B-MAC default scale); the check
/// period is kWakeTime / listen fraction.
inline constexpr sim::SimTime kWakeTime = 8 * sim::kMillisecond;
/// Frames heard per settle tick at or above which the adaptive controller
/// narrows the check period; a tick with zero frames widens it.
inline constexpr std::uint32_t kBusyFrames = 4;

class DutyCycler {
 public:
  struct Options {
    /// Fraction of time the radio listens; >= 1 disables duty cycling
    /// (ignored as a disable switch when `adaptive` is set — it is then
    /// the controller's starting point, clamped into the bounds).
    double listen_fraction = 1.0;
    /// Traffic-adaptive control (per node; bounds below).
    bool adaptive = false;
    double min_fraction = 0.02;  ///< duty floor when the channel is quiet
    double max_fraction = 0.5;   ///< duty ceiling under sustained load
    /// Congestion coupling (`lpl_tx_busy` knob): a settle tick whose TX
    /// queue depth is at or above this counts as busy even if nothing
    /// was heard — a congested node keeps its radio duty up so its own
    /// backlog (and its neighbours' retries) drain instead of paying
    /// ever-longer preambles. 0 disables the signal.
    std::uint32_t tx_busy_depth = 0;

    /// True when low-power listening is on: a static fraction below 1,
    /// or the adaptive controller.
    [[nodiscard]] bool active() const {
      return listen_fraction < 1.0 || adaptive;
    }
  };

  DutyCycler() = default;
  explicit DutyCycler(Options options);

  [[nodiscard]] bool enabled() const {
    return options_.adaptive ||
           (fraction_ < 1.0 && fraction_ > 0.0);
  }

  /// Effective listen fraction in [0,1]; 1 when duty cycling is off.
  [[nodiscard]] double listen_fraction() const {
    return enabled() ? fraction_ : 1.0;
  }

  /// Interval between channel samples: kWakeTime / fraction.
  [[nodiscard]] sim::SimTime check_period() const;

  /// Extra on-air time every frame pays for its long preamble
  /// (check_period - kWakeTime); 0 when duty cycling is off.
  [[nodiscard]] sim::SimTime preamble_extension() const;

  /// The check period quantized to wake-time units for the 1-byte beacon
  /// field (1 = always on, 255 caps the advertisable period at ~2 s).
  [[nodiscard]] std::uint8_t period_units() const;

  /// The longest preamble the controller can ever demand (the min_fraction
  /// bound when adaptive, the static extension otherwise) — what protocol
  /// timeouts must absorb per frame.
  [[nodiscard]] sim::SimTime max_preamble_extension() const;

  /// Feeds the controller one settle tick's traffic observation: frames
  /// heard plus the node's own pending-TX depth (the congestion signal).
  /// Returns true when the listen fraction changed (the caller re-bases
  /// the idle draw). No-op unless `adaptive`.
  bool observe(std::uint32_t frames_heard, std::uint32_t tx_pending = 0);

 private:
  [[nodiscard]] static sim::SimTime period_for(double fraction);

  Options options_;
  double fraction_ = 1.0;  ///< current listen fraction (moves if adaptive)
};

}  // namespace agilla::energy
