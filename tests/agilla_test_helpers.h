// Shared fixtures for core/integration tests: a grid of full Agilla
// middleware stacks over a (possibly lossy) simulated radio.
#pragma once

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/injector.h"
#include "core/middleware.h"
#include "sim/topology.h"

namespace agilla::testing {

/// Every record a simulator emits, in delivery order.
struct EventLog final : sim::EventSink {
  std::vector<sim::Event> records;

  void on_event(const sim::Event& event) override {
    records.push_back(event);
  }

  /// Records of `kind`, optionally only those with this `reason`.
  [[nodiscard]] std::size_t count(sim::EventKind kind,
                                  const char* reason = nullptr) const {
    std::size_t n = 0;
    for (const sim::Event& e : records) {
      n += e.kind == kind &&
                   (reason == nullptr ||
                    (e.reason != nullptr && std::strcmp(e.reason, reason) == 0))
               ? 1
               : 0;
    }
    return n;
  }
};

/// One line holding every field of `e` (diffable, hashable).
inline std::string to_text(const sim::Event& e) {
  std::ostringstream out;
  out << static_cast<int>(e.kind) << " t=" << e.at << " n=" << e.node.value
      << " a=" << e.agent << " pc=" << e.pc
      << " o=" << static_cast<int>(e.opcode)
      << " r=" << (e.reason != nullptr ? e.reason : "-")
      << " d=" << e.dest << " op=" << static_cast<int>(e.tuple_op) << " ts=";
  for (const std::uint8_t b : e.tuple_bytes()) {
    out << static_cast<int>(b) << ".";
  }
  out << " f=" << e.frame.src.value << ">" << e.frame.dst.value << ":"
      << static_cast<int>(e.frame.am) << ":" << e.frame.payload_bytes << ":"
      << e.frame.receiver.value << ":" << e.frame.lost
      << " down=" << static_cast<int>(e.down);
  return out.str();
}

struct MeshOptions {
  std::size_t width = 3;
  std::size_t height = 3;
  double packet_loss = 0.0;
  std::uint64_t seed = 1;
  core::AgillaConfig config{};
  bool start = true;
};

class AgillaMesh {
 public:
  explicit AgillaMesh(const MeshOptions& options = MeshOptions())
      : sim(options.seed),
        net(sim, sim::ChannelLoss{.packet_loss = options.packet_loss}) {
    sim.set_sink(&events);
    topo = sim::make_grid(net, options.width, options.height);
    for (sim::NodeId id : topo.nodes) {
      nodes.push_back(std::make_unique<core::AgillaMiddleware>(
          net, id, &env, options.config));
      if (options.start) {
        nodes.back()->start();
      }
    }
  }

  /// Node by creation index (row-major from (1,1)).
  core::AgillaMiddleware& at(std::size_t index) { return *nodes.at(index); }

  /// Node nearest to a location.
  core::AgillaMiddleware& at_loc(double x, double y) {
    return *nodes.at(
        sim::nearest_node(net, topo, sim::Location{x, y}).value);
  }

  /// Let beacons populate the neighbour tables.
  void warm(sim::SimTime duration = 5 * sim::kSecond) {
    sim.run_for(duration);
  }

  /// Total live agents across the mesh.
  [[nodiscard]] std::size_t total_agents() const {
    std::size_t n = 0;
    for (const auto& node : nodes) {
      n += node->agents().count();
    }
    return n;
  }

  EventLog events;  ///< installed as the simulator's sink at construction
  sim::Simulator sim;
  sim::Network net;
  sim::SensorEnvironment env;
  sim::Topology topo;
  std::vector<std::unique_ptr<core::AgillaMiddleware>> nodes;
};

}  // namespace agilla::testing
