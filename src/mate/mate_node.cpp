#include "mate/mate_node.h"

#include <algorithm>

namespace agilla::mate {

MateNode::MateNode(sim::Network& network, sim::NodeId self,
                   const sim::SensorEnvironment* environment)
    : network_(network),
      self_(self),
      environment_(environment),
      link_(network, self, *this) {}

bool MateNode::on_link_message(sim::AmType am, sim::NodeId /*from*/,
                               std::span<const std::uint8_t> payload) {
  if (am != sim::AmType::kMateCapsule) {
    return false;
  }
  on_capsule(payload);
  return true;
}

void MateNode::start() {
  if (running_) {
    return;
  }
  running_ = true;
  link_.attach();
  const sim::SimTime offset =
      network_.simulator().node_rng(self_).uniform(kClockPeriod);
  clock_ = network_.simulator().schedule_in(offset, self_,
                                            [this] { run_clock(); });
}

void MateNode::install(const Capsule& capsule) {
  const auto slot = static_cast<std::size_t>(capsule.type);
  if (slot >= capsules_.size()) {
    return;
  }
  capsules_[slot] = capsule;
  stats_.capsules_installed++;
}

const Capsule* MateNode::capsule(CapsuleType type) const {
  const auto& slot = capsules_[static_cast<std::size_t>(type)];
  return slot.has_value() ? &*slot : nullptr;
}

std::uint8_t MateNode::version_of(CapsuleType type) const {
  const Capsule* c = capsule(type);
  return c == nullptr ? 0 : c->version;
}

void MateNode::run_clock() {
  if (!running_) {
    return;
  }
  if (const Capsule* clock_capsule = capsule(CapsuleType::kClock)) {
    stats_.clock_runs++;
    MateHost host;
    host.forw = [this] { broadcast_capsules(); };
    host.set_leds = [this](std::uint8_t v) { leds_ = v; };
    host.rand = [this] {
      return static_cast<std::uint16_t>(
          network_.simulator().node_rng(self_).next());
    };
    host.sense = [this]() -> std::int16_t {
      if (environment_ == nullptr) {
        return 0;
      }
      const double v = environment_->read(sim::SensorType::kTemperature,
                                          network_.info(self_).location,
                                          network_.simulator().now());
      return static_cast<std::int16_t>(
          std::clamp(v, -32768.0, 32767.0));
    };
    const MateVmResult result = run_capsule(*clock_capsule, host);
    if (result.error) {
      stats_.vm_errors++;
    }
  }
  clock_ = network_.simulator().schedule_in(kClockPeriod, self_,
                                            [this] { run_clock(); });
}

void MateNode::broadcast_capsules() {
  for (const auto& slot : capsules_) {
    if (!slot.has_value()) {
      continue;
    }
    net::Writer w;
    slot->write(w);
    stats_.capsules_broadcast++;
    link_.send_unacked(sim::kBroadcastNode, sim::AmType::kMateCapsule,
                       w.payload());
  }
}

void MateNode::on_capsule(std::span<const std::uint8_t> payload) {
  net::Reader r(payload);
  const Capsule received = Capsule::read(r);
  if (!r.ok()) {
    return;
  }
  const Capsule* mine = capsule(received.type);
  if (mine == nullptr || received.newer_than(*mine)) {
    install(received);
    // Hearing brand-new code is worth reacting to promptly: Mate re-runs
    // the clock capsule (which contains forw) on its own schedule, so the
    // viral spread is paced by kClockPeriod.
  }
}

}  // namespace agilla::mate
