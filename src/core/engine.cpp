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
                           Options options, AgentManager& agents,
                           CodePool& code_pool, ts::TupleSpace& tuple_space,
                           ContextManager& context, SensorBoard& sensors,
                           MigrationManager& migration,
                           RemoteTsManager& remote_ts, ProgramTable& programs)
    : sim_(sim),
      options_(options),
      agents_(agents),
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
  const AgentId agent_id = id.has_value() ? *id : agents_.next_id();
  if (!agents_.accepts(agent_id)) {
    code_pool_.release(code.size());
    stats_.agents_rejected++;
    return nullptr;
  }
  return agents_.create(agent_id, dispatcher_->program_for(code));
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
    agent->restore_stack(std::move(image.stack));
    for (const auto& [slot, value] : image.heap) {
      agent->set_heap(slot, value);
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
  if (agent.run_state() == AgentRunState::kDead) {
    return;
  }
  const bool was_blocked = agent.run_state() != AgentRunState::kReady;
  agent.set_run_state(AgentRunState::kReady);
  if (was_blocked) {
    emit_agent(sim::EventKind::kAgentResume, agent.id());
  }
  ready_.push_back(agent.id());
  // Deliver one queued reaction now that the agent can accept it.
  if (auto* queue = pending_reactions_.find(agent.id().value);
      queue != nullptr && !queue->empty()) {
    PendingReaction next = std::move(queue->front());
    queue->pop_front();
    if (queue->empty()) {
      pending_reactions_.erase(agent.id().value);
    }
    deliver_reaction(agent, next.reaction, next.tuple);
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
  std::vector<AgentId> ids;
  ids.reserve(agents_.count());
  for (const auto& agent : agents_.agents()) {
    ids.push_back(agent->id());
  }
  for (const AgentId id : ids) {
    stats_.agents_power_lost++;
    emit_agent(sim::EventKind::kAgentKill, id, "power");
    destroy(id, /*drop_reactions=*/true);
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
    const AgentId id = ready_.front();
    ready_.pop_front();
    Agent* agent = agents_.find(id);
    if (agent == nullptr || agent->run_state() != AgentRunState::kReady) {
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
      OpcodeProfile& entry = profile_[opcode_index(probe_raw)];
      entry.count++;
      entry.total_cost += probe_cost;
      cost += probe_cost;
      if (!result.has_value()) {
        block_agent(*agent, AgentRunState::kBlockedTs, "tuple");
        drained++;
        continue;
      }
      agent->set_blocked_probe(std::nullopt);
      bool ok = true;
      for (std::size_t i = result->arity(); i-- > 0;) {
        ok = ok && agent->push(result->field(i));
      }
      agent->set_condition(1);
      if (!ok) {
        die(*agent, "stack overflow resuming blocked in/rd");
        drained++;
        continue;
      }
    }

    stats_.slices++;
    dispatcher_->run_slice(*agent, cost);
    // The slice may have destroyed the agent; re-resolve before requeueing.
    if (Agent* after = agents_.find(id);
        after != nullptr && after->run_state() == AgentRunState::kReady) {
      ready_.push_back(id);
    }
    cost += kContextSwitchCost;
    drained++;
  }
  in_tick_ = false;
  charge_cpu(cost);
  if (!ready_.empty()) {
    schedule_tick(cost);
  }
}

void AgillaEngine::destroy(AgentId id, bool drop_reactions) {
  if (sim::EventHandle* timer = sleep_timers_.find(id.value);
      timer != nullptr) {
    timer->cancel();
    sleep_timers_.erase(id.value);
  }
  pending_reactions_.erase(id.value);
  if (drop_reactions) {
    tuple_space_.extract_reactions(id.value);
  }
  if (Agent* agent = agents_.find(id); agent != nullptr) {
    agent->set_run_state(AgentRunState::kDead);
    code_pool_.release(agent->program()->size());
    agents_.destroy(id);
  }
  ready_.erase(id);
}

void AgillaEngine::die(Agent& agent, const char* reason) {
  stats_.vm_errors++;
  emit_agent(sim::EventKind::kAgentKill, agent.id(), reason);
  destroy(agent.id(), true);
}

std::unordered_map<std::uint8_t, OpcodeProfile>
AgillaEngine::opcode_profile() const {
  std::unordered_map<std::uint8_t, OpcodeProfile> out;
  for (std::size_t index = 0; index < kDefinedOpcodes; ++index) {
    if (profile_[index].count > 0) {
      out.emplace(static_cast<std::uint8_t>(opcode_at(index)),
                  profile_[index]);
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
  for (const auto& agent : agents_.agents()) {
    if (agent->run_state() == AgentRunState::kBlockedTs) {
      make_ready(*agent);
    }
  }
}

void AgillaEngine::on_reaction(const ts::Reaction& reaction,
                               const ts::Tuple& tuple) {
  Agent* agent = agents_.find(AgentId{reaction.agent_id});
  if (agent == nullptr) {
    return;
  }
  switch (agent->run_state()) {
    case AgentRunState::kReady:
      deliver_reaction(*agent, reaction, tuple);
      return;
    case AgentRunState::kWaitingRxn:
      deliver_reaction(*agent, reaction, tuple);
      make_ready(*agent);
      return;
    case AgentRunState::kSleeping: {
      if (sim::EventHandle* timer = sleep_timers_.find(reaction.agent_id);
          timer != nullptr) {
        timer->cancel();
        sleep_timers_.erase(reaction.agent_id);
      }
      deliver_reaction(*agent, reaction, tuple);
      make_ready(*agent);
      return;
    }
    case AgentRunState::kBlockedTs:
    case AgentRunState::kBlockedOp: {
      auto& queue = pending_reactions_[reaction.agent_id];
      if (queue.size() < kMaxPendingReactions) {
        queue.push_back(PendingReaction{reaction, tuple});
      }
      return;
    }
    case AgentRunState::kDead:
      return;
  }
}

void AgillaEngine::deliver_reaction(Agent& agent,
                                    const ts::Reaction& reaction,
                                    const ts::Tuple& tuple) {
  stats_.reactions_fired++;
  // Save the interrupted PC so the handler can `jumps` back, then push the
  // matched tuple's fields in reverse order (field 0 on top) — the only
  // convention under which paper Fig. 2's `pop; sclone` sequence works.
  bool ok = agent.push(ts::Value::number(
      static_cast<std::int16_t>(agent.pc())));
  for (std::size_t i = tuple.arity(); i-- > 0;) {
    ok = ok && agent.push(tuple.field(i));
  }
  if (!ok) {
    die(agent, "stack overflow delivering reaction");
    return;
  }
  agent.set_pc(reaction.handler_pc);
}

}  // namespace agilla::core
