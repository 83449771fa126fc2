#include "core/agent_manager.h"

#include <algorithm>
#include <utility>

namespace agilla::core {

AgentManager::AgentManager(sim::NodeId node, Options options)
    : node_(node), options_(options) {}

AgentId AgentManager::next_id() {
  // High byte derives from the creating node, low byte counts creations.
  // 16-bit ids match the agent architecture (paper Fig. 6); wraparound
  // after 256 creations per node is acceptable for mote lifetimes and is
  // documented in DESIGN.md.
  const auto high = static_cast<std::uint16_t>((node_.value & 0xFF) << 8);
  return AgentId{static_cast<std::uint16_t>(high | id_counter_++)};
}

Agent* AgentManager::create(AgentId id,
                           std::shared_ptr<const DecodedProgram> program) {
  if (!accepts(id)) {
    return nullptr;
  }
  agents_.push_back(std::make_unique<Agent>(id, std::move(program)));
  return agents_.back().get();
}

void AgentManager::destroy(AgentId id) {
  std::erase_if(agents_, [id](const std::unique_ptr<Agent>& a) {
    return a->id() == id;
  });
}

Agent* AgentManager::find(AgentId id) {
  const auto it =
      std::find_if(agents_.begin(), agents_.end(),
                   [id](const std::unique_ptr<Agent>& a) {
                     return a->id() == id;
                   });
  return it == agents_.end() ? nullptr : it->get();
}

const Agent* AgentManager::find(AgentId id) const {
  const auto it =
      std::find_if(agents_.begin(), agents_.end(),
                   [id](const std::unique_ptr<Agent>& a) {
                     return a->id() == id;
                   });
  return it == agents_.end() ? nullptr : it->get();
}

}  // namespace agilla::core
