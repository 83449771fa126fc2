#include "sim/radio_model.h"

#include <algorithm>
#include <cmath>

namespace agilla::sim {
namespace {

constexpr double kTolerance = 1e-6;

bool approximately(double a, double b) { return std::abs(a - b) < kTolerance; }

}  // namespace

bool GridNeighborRadio::connected(const NodeInfo& from,
                                  const NodeInfo& to) const {
  if (from.id == to.id) {
    return false;
  }
  const double dx = std::abs(from.location.x - to.location.x);
  const double dy = std::abs(from.location.y - to.location.y);
  const double s = options_.spacing;
  const bool axis = (approximately(dx, s) && approximately(dy, 0.0)) ||
                    (approximately(dx, 0.0) && approximately(dy, s));
  if (axis) {
    return true;
  }
  if (options_.eight_connected) {
    return approximately(dx, s) && approximately(dy, s);
  }
  return false;
}

double GridNeighborRadio::loss_probability(const NodeInfo&, const NodeInfo&,
                                           std::size_t bytes) const {
  const double p = options_.packet_loss +
                   options_.per_byte_loss * static_cast<double>(bytes);
  return std::clamp(p, 0.0, 1.0);
}

double GridNeighborRadio::max_range() const {
  const double diag = options_.eight_connected ? std::sqrt(2.0) : 1.0;
  return options_.spacing * diag + kTolerance;
}

bool PerfectRadio::connected(const NodeInfo& from, const NodeInfo& to) const {
  if (from.id == to.id) {
    return false;
  }
  return distance(from.location, to.location) <= range_ + kTolerance;
}

}  // namespace agilla::sim
