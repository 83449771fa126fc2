#include "core/agent.h"

#include <utility>

namespace agilla::core {
namespace {

const ts::Value kInvalidValue{};

}  // namespace

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
    case AgentRunState::kDead:
      return "dead";
  }
  return "unknown";
}

Agent::Agent(AgentId id, std::shared_ptr<const DecodedProgram> program)
    : id_(id), program_(std::move(program)) {
  stack_.reserve(kStackDepth);
}

bool Agent::push(const ts::Value& v) {
  if (stack_.size() >= kStackDepth) {
    return false;
  }
  stack_.push_back(v);
  return true;
}

ts::Value Agent::pop() {
  if (stack_.empty()) {
    return kInvalidValue;
  }
  ts::Value v = stack_.back();
  stack_.pop_back();
  return v;
}

const ts::Value& Agent::peek(std::size_t depth_from_top) const {
  if (depth_from_top >= stack_.size()) {
    return kInvalidValue;
  }
  return stack_[stack_.size() - 1 - depth_from_top];
}

void Agent::restore_stack(std::vector<ts::Value> values) {
  if (values.size() > kStackDepth) {
    values.resize(kStackDepth);
  }
  stack_ = std::move(values);
}

const ts::Value& Agent::heap(std::size_t slot) const {
  if (slot >= heap_.size()) {
    return kInvalidValue;
  }
  return heap_[slot];
}

bool Agent::set_heap(std::size_t slot, const ts::Value& v) {
  if (slot >= heap_.size()) {
    return false;
  }
  heap_[slot] = v;
  return true;
}

std::vector<std::pair<std::uint8_t, ts::Value>> Agent::heap_entries() const {
  std::vector<std::pair<std::uint8_t, ts::Value>> out;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (heap_[i].valid()) {
      out.emplace_back(static_cast<std::uint8_t>(i), heap_[i]);
    }
  }
  return out;
}

void Agent::clear_heap() { heap_.fill(ts::Value{}); }

}  // namespace agilla::core
