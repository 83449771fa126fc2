// The base station (paper Sec. 3.1): a "laptop" wired to one gateway mote
// through which users inject agents and issue remote tuple-space
// operations. Injection is free (wired link); everything past the gateway
// pays radio costs.
#pragma once

#include <functional>
#include <optional>
#include <string_view>

#include "core/assembler.h"
#include "core/middleware.h"

namespace agilla::core {

class BaseStation {
 public:
  explicit BaseStation(AgillaMiddleware& gateway) : gateway_(gateway) {}

  /// Assembles and injects an agent on the gateway node. Returns the agent
  /// id, or nullopt on assembly failure / gateway resource exhaustion.
  std::optional<AgentId> inject(std::string_view assembly_source);

  /// Injects pre-assembled bytecode on the gateway node.
  std::optional<AgentId> inject_code(std::span<const std::uint8_t> code);

  /// Injects an agent that should run at `dest`: the image is handed to the
  /// gateway's migration manager and travels hop by hop like any agent.
  /// `done` reports the first-hop outcome.
  void inject_at(std::span<const std::uint8_t> code, sim::Location dest,
                 std::function<void(bool)> done = nullptr);

  /// Remote tuple-space operations issued from the base station.
  void rout(sim::Location dest, const ts::Tuple& tuple,
            RemoteTsManager::Completion done = nullptr);

  /// Region operation (Sec. 2.2 generalization): insert `tuple` on one or
  /// all nodes within `radius` of `center`. Best effort, no reply; false
  /// when the tuple is too large for a region frame
  /// (RegionOps::kMaxTupleBytes).
  bool out_region(const ts::Tuple& tuple, sim::Location center,
                  double radius, RegionMode mode = RegionMode::kAllNodes);
  void rinp(sim::Location dest, const ts::Template& templ,
            RemoteTsManager::Completion done);
  void rrdp(sim::Location dest, const ts::Template& templ,
            RemoteTsManager::Completion done);

  [[nodiscard]] AgillaMiddleware& gateway() { return gateway_; }

 private:
  AgillaMiddleware& gateway_;
};

}  // namespace agilla::core
