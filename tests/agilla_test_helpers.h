// Shared fixtures for core/integration tests: a grid of full Agilla
// middleware stacks over a (possibly lossy) simulated radio.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/deployment.h"
#include "core/agent_library.h"
#include "core/injector.h"
#include "core/middleware.h"
#include "core/vm_dispatch.h"
#include "sim/environment.h"
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

/// The code-memory identity: the mote's code pool has exactly the blocks
/// its live agents' code needs reserved — no leaked blocks from a reject,
/// a kill or a migration, and none missing.
inline ::testing::AssertionResult code_memory_balanced(
    core::AgillaMiddleware& mote) {
  std::size_t needed = 0;
  for (const auto& agent : mote.agents().agents()) {
    needed += core::CodePool::blocks_needed(agent->program()->size());
  }
  const std::size_t used = mote.code_pool().used_blocks();
  if (used == needed) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "code pool uses " << used << " blocks; the "
         << mote.agents().count() << " live agents need " << needed;
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
          net, id, &env, programs, options.config));
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
  core::ProgramTable programs;  ///< the mesh's, shared by every node
  std::vector<std::unique_ptr<core::AgillaMiddleware>> nodes;
};

/// A 16x16 mesh with the fire_tracking agents: FIREDETECTOR flood-clones
/// over every mote, and the FIRETRACKER swarm clones toward a fire that
/// ignites at the far corner 15 s after injection; returned `duration`
/// (default 60 s) in.
inline std::unique_ptr<api::Deployment> spread_fire_agents(
    std::size_t shards, sim::SimTime duration = 60 * sim::kSecond) {
  api::DeploymentOptions options;
  options.width = 16;
  options.height = 16;
  options.seed = 5;
  options.sim_shards = shards;
  auto mesh = std::make_unique<api::Deployment>(options);
  mesh->environment().set_field(
      sim::SensorType::kTemperature,
      std::make_unique<sim::FireField>(sim::FireField::Options{
          .ignition_point = {16, 16},
          .ignition_time = mesh->simulator().now() + 15 * sim::kSecond,
          .extinction_time = 0,
          .spread_speed = 0.1,
          .peak = 500.0,
          .ambient = 25.0,
          .edge_decay = 0.45,
          .ring_width = 1.6,
          .burned_over = 40.0}));
  core::BaseStation base = mesh->base();
  base.inject(core::agents::fire_tracker(/*threshold=*/180,
                                         /*nap_ticks=*/16));
  base.inject(core::agents::fire_detector(/*alert_to=*/{1, 1},
                                          /*threshold=*/200,
                                          /*sample_ticks=*/32));
  mesh->run_for(duration);
  return mesh;
}

}  // namespace agilla::testing
