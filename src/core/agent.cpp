#include "core/agent.h"

#include <algorithm>
#include <utility>

namespace agilla::core {

const char* to_string(AgentRunState s) {
  switch (s) {
    case AgentRunState::kReady:
      return "ready";
    case AgentRunState::kSleeping:
      return "sleeping";
    case AgentRunState::kBlockedTs:
      return "blocked-ts";
    case AgentRunState::kWaitingRxn:
      return "waiting-rxn";
    case AgentRunState::kBlockedOp:
      return "blocked-op";
  }
  return "unknown";
}

Agent::Agent(AgentId id, std::shared_ptr<const DecodedProgram> program)
    : id_(id), program_(std::move(program)) {}

void Agent::restore_stack(std::span<const ts::Value> values) {
  depth_ = static_cast<std::uint8_t>(std::min(values.size(), kStackDepth));
  std::copy_n(values.begin(), depth_, stack_.begin());
}

void Agent::clear_heap() { heap_.fill(ts::Value{}); }

}  // namespace agilla::core
