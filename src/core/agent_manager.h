// The Agent Manager (paper Fig. 4 / Sec. 3.2): fixed agent slots (default
// 4 per node), agent-id assignment, and lifecycle bookkeeping. The engine
// drives execution; this class owns storage.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/agent.h"
#include "sim/types.h"

namespace agilla::core {

class AgentManager {
 public:
  struct Options {
    std::size_t max_agents = 4;  ///< paper Sec. 3.2 default
  };

  AgentManager(sim::NodeId node, Options options);

  /// True when a slot is free and no live agent has `id`.
  [[nodiscard]] bool accepts(AgentId id) const {
    return !full() && find(id) == nullptr;
  }

  /// Creates an agent with `id` holding `program`. Returns nullptr unless
  /// accepts(id).
  Agent* create(AgentId id, std::shared_ptr<const DecodedProgram> program);

  /// Fresh network-unique id for an agent created by this node.
  [[nodiscard]] AgentId next_id();

  void destroy(AgentId id);

  [[nodiscard]] Agent* find(AgentId id);
  [[nodiscard]] const Agent* find(AgentId id) const;

  [[nodiscard]] std::size_t count() const { return agents_.size(); }
  [[nodiscard]] std::size_t capacity() const { return options_.max_agents; }
  [[nodiscard]] bool full() const { return count() >= capacity(); }

  /// Live agents in creation order (stable iteration for the engine).
  [[nodiscard]] const std::vector<std::unique_ptr<Agent>>& agents() const {
    return agents_;
  }

 private:
  sim::NodeId node_;
  Options options_;
  std::uint8_t id_counter_ = 0;
  std::vector<std::unique_ptr<Agent>> agents_;
};

}  // namespace agilla::core
