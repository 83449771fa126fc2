#include "core/engine.h"

#include <algorithm>

#include "core/vm_dispatch.h"
#include "energy/energy_model.h"

namespace agilla::core {
namespace {

/// Cap on queued reactions for a busy agent.
constexpr std::size_t kMaxPendingReactions = 4;

}  // namespace

const char* to_string(DispatchMode mode) {
  switch (mode) {
    case DispatchMode::kSwitch:
      return "switch";
    case DispatchMode::kThreaded:
      break;
  }
  return "threaded";
}

AgillaEngine::AgillaEngine(sim::Simulator& sim, sim::NodeId node,
                           Options options, CodePool& code_pool,
                           ts::TupleSpace& tuple_space,
                           ContextManager& context, SensorBoard& sensors,
                           MigrationManager& migration,
                           RemoteTsManager& remote_ts, ProgramTable& programs)
    : sim_(sim),
      options_(options),
      code_pool_(code_pool),
      tuple_space_(tuple_space),
      context_(context),
      sensors_(sensors),
      migration_(migration),
      remote_ts_(remote_ts),
      dispatcher_(std::make_unique<VmDispatcher>(*this, programs)),
      node_(node) {}

AgillaEngine::~AgillaEngine() = default;

void AgillaEngine::emit_agent(sim::EventKind kind, AgentId agent,
                              const char* reason, sim::Location dest) {
  if (sim_.observes(kind)) {
    sim::Event event(kind, sim_.now(), node_);
    event.agent = agent.value;
    event.reason = reason;
    event.dest = dest;
    sim_.emit(event);
  }
}

Agent* AgillaEngine::admit(std::span<const std::uint8_t> code,
                           std::optional<AgentId> id) {
  // The pool's capacity check comes first, so an image it rejects is
  // never decoded.
  if (!code_pool_.reserve(code.size())) {
    stats_.agents_rejected++;
    return nullptr;
  }
  const AgentId agent_id = id.has_value() ? *id : next_id();
  if (agents_.size() >= options_.max_agents || find(agent_id) != nullptr) {
    code_pool_.release(code.size());
    stats_.agents_rejected++;
    return nullptr;
  }
  if (profile_ == nullptr) {
    profile_ = std::make_unique<OpcodeTable>();
  }
  agents_.push_back(
      std::make_unique<Agent>(agent_id, dispatcher_->program_for(code)));
  return agents_.back().get();
}

Agent* AgillaEngine::find(AgentId id) {
  for (const std::unique_ptr<Agent>& agent : agents_) {
    if (agent->id() == id) {
      return agent.get();
    }
  }
  return nullptr;
}

std::optional<AgentId> AgillaEngine::launch(
    std::span<const std::uint8_t> code) {
  Agent* agent = admit(code, std::nullopt);
  if (agent == nullptr) {
    return std::nullopt;
  }
  stats_.agents_launched++;
  emit_agent(sim::EventKind::kAgentSpawn, agent->id(), "inject");
  make_ready(*agent);
  return agent->id();
}

bool AgillaEngine::install(AgentImage image, bool reached_dest) {
  Agent* agent = admit(image.code, AgentId{image.agent_id});
  if (agent == nullptr) {
    return false;
  }
  agent->set_pc(image.pc);
  agent->set_condition(reached_dest ? 1 : 0);
  if (is_strong(image.op)) {
    agent->restore_stack(image.live_stack());
    for (std::size_t slot = 0; slot < kHeapSlots; ++slot) {
      agent->set_heap(slot, image.heap[slot]);
    }
    for (ts::Reaction reaction : image.reactions) {
      reaction.agent_id = image.agent_id;
      tuple_space_.register_reaction(std::move(reaction));
    }
  }
  stats_.agents_installed++;
  emit_agent(sim::EventKind::kAgentSpawn, agent->id(), "migration");
  make_ready(*agent);
  return true;
}

void AgillaEngine::make_ready(Agent& agent) {
  const bool was_blocked = agent.run_state() != AgentRunState::kReady;
  agent.set_run_state(AgentRunState::kReady);
  if (was_blocked) {
    emit_agent(sim::EventKind::kAgentResume, agent.id());
  }
  ready_.push_back(&agent);
  // Deliver one queued reaction now that the agent can accept it. The
  // delivery can kill the agent, so it works on its own copy.
  if (auto& queue = agent.pending_reactions(); !queue.empty()) {
    const Agent::PendingReaction next = queue.front();
    queue.pop_front();
    deliver_reaction(agent, next.handler_pc, next.tuple);
  }
  // From inside tick() the end-of-batch reschedule picks the agent up with
  // the batch's accumulated cost as delay; scheduling a zero-delay tick
  // here instead would let an install-during-slice loop (e.g. a weak-clone
  // fork bomb) pin simulated time forever.
  if (!in_tick_) {
    schedule_tick(0);
  }
}

void AgillaEngine::block_agent(Agent& agent, AgentRunState state,
                               const char* reason) {
  agent.set_run_state(state);
  emit_agent(sim::EventKind::kAgentBlock, agent.id(), reason);
}

void AgillaEngine::kill_all_agents() {
  while (!agents_.empty()) {
    Agent& agent = *agents_.front();
    stats_.agents_power_lost++;
    emit_agent(sim::EventKind::kAgentKill, agent.id(), "power");
    destroy(agent);
  }
}

void AgillaEngine::charge_cpu(sim::SimTime cost) {
  if (battery_ != nullptr && cost > 0) {
    battery_->drain(energy::EnergyComponent::kCpu, energy::cpu_mj(cost));
  }
}

void AgillaEngine::schedule_tick(sim::SimTime delay) {
  if (tick_scheduled_) {
    return;
  }
  tick_scheduled_ = true;
  // Explicit affinity: ticks are also scheduled from kernel context
  // (agent injection, reboot reseeding) and must run in this node's shard.
  sim_.schedule_in(delay, node_, [this] {
    tick_scheduled_ = false;
    tick();
  });
}

void AgillaEngine::tick() {
  // Batched scheduling: drain up to batch_slices round-robin slices per
  // engine wakeup instead of paying one event-queue round trip per slice.
  // Simulated cost accrues per instruction exactly as before — only the
  // host-side wakeup overhead is amortized.
  sim::SimTime cost = 0;
  const std::size_t max_slices =
      std::max<std::size_t>(std::size_t{1}, options_.batch_slices);
  std::size_t drained = 0;
  in_tick_ = true;
  while (drained < max_slices && !ready_.empty()) {
    Agent* agent = ready_.front();
    ready_.pop_front();
    if (agent->run_state() != AgentRunState::kReady) {
      continue;  // stale queue entry
    }

    // A woken in/rd retries its probe before executing anything.
    if (agent->blocked_probe().has_value()) {
      const Agent::BlockedProbe probe = *agent->blocked_probe();
      const auto result = probe.remove ? tuple_space_.inp(probe.templ)
                                       : tuple_space_.rdp(probe.templ);
      const auto probe_raw =
          static_cast<std::uint8_t>(probe.remove ? Opcode::kIn : Opcode::kRd);
      const sim::SimTime probe_cost = instruction_cost(
          probe_raw, tuple_space_.store().last_op_bytes_touched(), true);
      OpcodeProfile& entry = (*profile_)[opcode_index(probe_raw)];
      entry.count++;
      entry.total_cost += probe_cost;
      cost += probe_cost;
      if (!result.has_value()) {
        block_agent(*agent, AgentRunState::kBlockedTs, "tuple");
        drained++;
        continue;
      }
      agent->set_blocked_probe(std::nullopt);
      const bool ok = agent->push_fields(*result);
      agent->set_condition(1);
      if (!ok) {
        die(*agent, "stack overflow resuming blocked in/rd");
        drained++;
        continue;
      }
    }

    stats_.slices++;
    running_ = agent;
    dispatcher_->run_slice(*agent, cost);
    // A slice that destroyed its agent cleared running_.
    if (running_ != nullptr && agent->run_state() == AgentRunState::kReady) {
      ready_.push_back(agent);
    }
    running_ = nullptr;
    cost += kContextSwitchCost;
    drained++;
  }
  in_tick_ = false;
  charge_cpu(cost);
  if (!ready_.empty()) {
    schedule_tick(cost);
  }
}

void AgillaEngine::destroy(Agent& agent) {
  tuple_space_.drop_reactions(agent.id().value);
  agent.sleep_timer().cancel();
  code_pool_.release(agent.program()->size());
  ready_.erase(&agent);
  if (running_ == &agent) {
    running_ = nullptr;
  }
  std::erase_if(agents_, [&agent](const std::unique_ptr<Agent>& held) {
    return held.get() == &agent;
  });
}

void AgillaEngine::die(Agent& agent, const char* reason) {
  stats_.vm_errors++;
  emit_agent(sim::EventKind::kAgentKill, agent.id(), reason);
  destroy(agent);
}

std::unordered_map<std::uint8_t, OpcodeProfile>
AgillaEngine::opcode_profile() const {
  std::unordered_map<std::uint8_t, OpcodeProfile> out;
  if (profile_ == nullptr) {
    return out;
  }
  for (std::size_t index = 0; index < kDefinedOpcodes; ++index) {
    if ((*profile_)[index].count > 0) {
      out.emplace(static_cast<std::uint8_t>(opcode_at(index)),
                  (*profile_)[index]);
    }
  }
  for (const auto& [raw, count] : undefined_profile_) {
    out.emplace(raw, OpcodeProfile{count, 0});
  }
  return out;
}

// --------------------------------------------------------------------------
// Tuple-space hooks
// --------------------------------------------------------------------------

void AgillaEngine::on_tuple_inserted(const ts::Tuple& /*tuple*/) {
  // Wake every agent blocked in in/rd so it can re-probe (paper Sec. 3.3:
  // "the agents in this queue are notified and can re-check for a match").
  // Waking an agent can deliver a queued reaction that overflows its stack
  // and kills it; its slot then holds the next agent, which is visited
  // next.
  for (std::size_t i = 0; i < agents_.size();) {
    Agent& agent = *agents_[i];
    if (agent.run_state() == AgentRunState::kBlockedTs) {
      make_ready(agent);
    }
    if (i < agents_.size() && agents_[i].get() == &agent) {
      ++i;
    }
  }
}

void AgillaEngine::on_reaction(const ts::Reaction& reaction,
                               const ts::Tuple& tuple) {
  Agent* agent = find(AgentId{reaction.agent_id});
  if (agent == nullptr) {
    return;
  }
  switch (agent->run_state()) {
    case AgentRunState::kReady:
      deliver_reaction(*agent, reaction.handler_pc, tuple);
      return;
    case AgentRunState::kWaitingRxn:
      if (deliver_reaction(*agent, reaction.handler_pc, tuple)) {
        make_ready(*agent);
      }
      return;
    case AgentRunState::kSleeping:
      agent->sleep_timer().cancel();
      if (deliver_reaction(*agent, reaction.handler_pc, tuple)) {
        make_ready(*agent);
      }
      return;
    case AgentRunState::kBlockedTs:
    case AgentRunState::kBlockedOp:
      if (auto& queue = agent->pending_reactions();
          queue.size() < kMaxPendingReactions) {
        queue.push_back(Agent::PendingReaction{reaction.handler_pc, tuple});
      }
      return;
  }
}

bool AgillaEngine::deliver_reaction(Agent& agent, std::uint16_t handler_pc,
                                    const ts::Tuple& tuple) {
  stats_.reactions_fired++;
  // Save the interrupted PC so the handler can `jumps` back, then push the
  // matched tuple's fields in reverse order (field 0 on top) — the only
  // convention under which paper Fig. 2's `pop; sclone` sequence works.
  const bool ok = agent.push(ts::Value::number(
                      static_cast<std::int16_t>(agent.pc()))) &&
                  agent.push_fields(tuple);
  if (!ok) {
    die(agent, "stack overflow delivering reaction");
    return false;
  }
  agent.set_pc(handler_pc);
  return true;
}

}  // namespace agilla::core
