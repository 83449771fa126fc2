#include "energy/duty_cycler.h"

#include <algorithm>
#include <cmath>

namespace agilla::energy {

DutyCycler::DutyCycler(Options options) : options_(options) {
  fraction_ = options_.listen_fraction;
  if (options_.adaptive) {
    fraction_ = std::clamp(fraction_, options_.min_fraction,
                           options_.max_fraction);
  }
}

sim::SimTime DutyCycler::period_for(double fraction) {
  return static_cast<sim::SimTime>(static_cast<double>(kWakeTime) / fraction);
}

sim::SimTime DutyCycler::check_period() const {
  if (!enabled()) {
    return kWakeTime;
  }
  return period_for(fraction_);
}

sim::SimTime DutyCycler::preamble_extension() const {
  if (!enabled()) {
    return 0;
  }
  return check_period() - kWakeTime;
}

std::uint8_t DutyCycler::period_units() const {
  const double units =
      std::round(static_cast<double>(check_period()) /
                 static_cast<double>(kWakeTime));
  return static_cast<std::uint8_t>(std::clamp(units, 1.0, 255.0));
}

sim::SimTime DutyCycler::max_preamble_extension() const {
  if (options_.adaptive) {
    return period_for(options_.min_fraction) - kWakeTime;
  }
  return preamble_extension();
}

bool DutyCycler::observe(std::uint32_t frames_heard,
                         std::uint32_t tx_pending) {
  if (!options_.adaptive) {
    return false;
  }
  const bool congested =
      options_.tx_busy_depth > 0 && tx_pending >= options_.tx_busy_depth;
  const double before = fraction_;
  if (frames_heard >= kBusyFrames || congested) {
    fraction_ = std::min(fraction_ * 2.0, options_.max_fraction);
  } else if (frames_heard == 0) {
    fraction_ = std::max(fraction_ / 2.0, options_.min_fraction);
  }
  return fraction_ != before;
}

}  // namespace agilla::energy
