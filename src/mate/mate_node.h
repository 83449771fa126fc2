// Per-node Mate runtime: capsule store, viral code distribution, and the
// periodic clock-capsule execution.
//
// Distribution follows Mate's model: executing `forw` broadcasts the
// node's capsules; a receiver installs any capsule whose version is newer
// than its own copy and, because the new clock capsule itself contains
// `forw`, keeps spreading it. Reprogramming the network = injecting a
// higher-version capsule at one node (paper Secs. 1/5: Mate floods the
// whole network and supports a single application at a time).
#pragma once

#include <array>
#include <optional>

#include "mate/mate_vm.h"
#include "net/link_layer.h"
#include "sim/network.h"
#include "sim/environment.h"

namespace agilla::mate {

class MateNode final : public net::LinkLayer::Receiver {
 public:
  /// Clock capsule cadence.
  static constexpr sim::SimTime kClockPeriod = 1 * sim::kSecond;

  struct Stats {
    std::uint64_t capsules_broadcast = 0;
    std::uint64_t capsules_installed = 0;  ///< newer versions adopted
    std::uint64_t clock_runs = 0;
    std::uint64_t vm_errors = 0;
  };

  MateNode(sim::Network& network, sim::NodeId self,
           const sim::SensorEnvironment* environment);

  MateNode(const MateNode&) = delete;
  MateNode& operator=(const MateNode&) = delete;

  /// Attaches the radio and starts the clock.
  void start();

  /// Installs a capsule locally (base-station injection).
  void install(const Capsule& capsule);

  [[nodiscard]] const Capsule* capsule(CapsuleType type) const;
  [[nodiscard]] std::uint8_t version_of(CapsuleType type) const;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint8_t leds() const { return leds_; }
  [[nodiscard]] sim::NodeId node_id() const { return self_; }

 private:
  /// The link's one upcall: Mate handles only kMateCapsule.
  bool on_link_message(sim::AmType am, sim::NodeId from,
                       std::span<const std::uint8_t> payload) override;
  void run_clock();
  void broadcast_capsules();
  void on_capsule(std::span<const std::uint8_t> payload);

  sim::Network& network_;
  sim::NodeId self_;
  const sim::SensorEnvironment* environment_;
  net::LinkLayer link_;
  std::array<std::optional<Capsule>, kCapsuleTypes> capsules_;
  sim::EventHandle clock_;
  std::uint8_t leds_ = 0;
  bool running_ = false;
  Stats stats_;
};

}  // namespace agilla::mate
