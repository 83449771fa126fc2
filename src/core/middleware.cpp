#include "core/middleware.h"

namespace agilla::core {

AgillaMiddleware::AgillaMiddleware(sim::Network& network, sim::NodeId self,
                                   const sim::SensorEnvironment* environment,
                                   ProgramTable& programs, AgillaConfig config)
    : network_(network),
      self_(self),
      location_(network.info(self).location),
      config_(config),
      tuple_space_(config.tuple_space, &network.simulator(), self),
      code_pool_(config.code_pool_blocks),
      agents_(self, config.agents),
      sensors_(environment, location_),
      link_(network_, self_, config_.link),
      neighbors_(network_, link_, location_, config_.neighbors),
      router_(network_, link_, neighbors_, location_, config_.routing),
      context_(location_, neighbors_),
      migration_(network_, link_, router_, location_, config_.migration),
      remote_ts_(network_.simulator(), router_, tuple_space_, location_,
                 config_.remote_ts),
      region_ops_(network_, link_, router_, tuple_space_, location_),
      engine_(network_.simulator(), self_, config_.engine, agents_, code_pool_,
              tuple_space_, context_, sensors_, migration_, remote_ts_,
              programs) {
  // Wire the upcalls: reactions and wakeups flow from the tuple space to
  // the engine; arriving agents flow from the migration manager.
  tuple_space_.set_reaction_callback(
      [this](const ts::Reaction& r, const ts::Tuple& t) {
        engine_.on_reaction(r, t);
      });
  tuple_space_.set_insertion_callback(
      [this](const ts::Tuple& t) { engine_.on_tuple_inserted(t); });
  migration_.set_arrival_handler(
      [this](AgentImage image, bool reached_dest) {
        engine_.install(std::move(image), reached_dest);
      });
  // A NEW acquaintance (first discovery, or a rebooted node re-appearing
  // after eviction) drops a fresh <"ctx", loc> tuple into the local
  // space. Deployment agents (FIREDETECTOR / SENTINEL) register a
  // reaction on it and re-flood clones — the self-healing path for nodes
  // that reboot agent-less after churn.
  neighbors_.set_discovery_handler(
      [this](sim::NodeId, sim::Location loc) {
        // The tuple is an event, not state: out() fires the reactions
        // (handlers get a copy of the fields), then the tuple is removed
        // so discoveries never eat into the 600-byte store.
        tuple_space_.out(ts::Tuple{ts::Value::string("ctx"),
                                   ts::Value::location(loc)});
        tuple_space_.inp(ts::CompiledTemplate(
            ts::Template{ts::Value::string("ctx"),
                         ts::Value::location(loc)}));
      });
}

void AgillaMiddleware::start() {
  link_.attach();
  // Beacons advertise this node's energy state: residual battery (full
  // for mains-powered / battery-less nodes) and the current LPL check
  // period, read fresh at every beacon/piggyback.
  neighbors_.set_self_state([this] {
    net::BeaconSelfState state;
    if (energy::Battery* battery = network_.battery(self_)) {
      battery->settle(network_.simulator().now());
      state.residual = net::encode_residual(battery->remaining_mj() /
                                            battery->capacity_mj());
    }
    state.period_units = network_.node_duty(self_).period_units();
    return state;
  });
  if (neighbors_.suppressing()) {
    // Beacon suppression: data frames double as beacons.
    link_.set_piggyback(
        [this] { return neighbors_.make_piggyback(); },
        [this](sim::NodeId from, std::span<const std::uint8_t> bytes) {
          neighbors_.on_piggyback(from, bytes);
        });
  }
  neighbors_.start();
  context_.seed_context_tuples(tuple_space_, sensors_);
  // Energy wiring: when the network runs the energy subsystem, the VM and
  // the migration protocol charge this node's battery (nullptr for the
  // mains-powered gateway — charging no-ops).
  if (const energy::EnergyOptions* energy = network_.energy_options();
      energy != nullptr) {
    engine_.set_energy(network_.battery(self_));
    migration_.set_energy(network_.battery(self_));
    if (energy->duty.adaptive) {
      // Per-receiver preamble tracking: size each frame's preamble for
      // the destination's advertised check period instead of a global
      // constant (the sender's own schedule is the broadcast fallback).
      link_.set_preamble_oracle([this](sim::NodeId dst) {
        return neighbors_.preamble_extension_for(dst);
      });
    }
  }
}

void AgillaMiddleware::power_down() {
  engine_.kill_all_agents();
  migration_.drop_in_flight();
  tuple_space_.store().clear();
  tuple_space_.clear_reactions();
  neighbors_.stop();
  neighbors_.clear();
}

void AgillaMiddleware::power_up() {
  neighbors_.start();
  context_.seed_context_tuples(tuple_space_, sensors_);
}

std::optional<AgentId> AgillaMiddleware::inject(
    std::span<const std::uint8_t> code) {
  return engine_.launch(code);
}

MemoryBudget AgillaMiddleware::memory_budget() const {
  // Struct sizes model the nesC structs on the mote (16-bit MCU layouts),
  // not this host's sizeof(); see DESIGN.md.
  constexpr std::size_t kValueBytes = 5;    // type + 2x int16
  // id + location + age + residual + LPL period + beacon-interval code
  constexpr std::size_t kNeighborBytes = 13;
  MemoryBudget budget;
  budget.add("tuple space store",
             config_.tuple_space.store_capacity_bytes);
  budget.add("reaction registry", config_.tuple_space.registry.capacity_bytes);
  budget.add("instruction manager (code pool)",
             config_.code_pool_blocks * CodePool::kBlockSize);
  budget.add("code pool block table (next+flags)",
             config_.code_pool_blocks * 3);
  const std::size_t per_agent =
      Agent::kStackDepth * kValueBytes +  // operand stack
      kHeapSlots * kValueBytes +          // heap
      10;                                 // id, pc, condition, code handle
  budget.add("agent contexts (" + std::to_string(config_.agents.max_agents) +
                 " x " + std::to_string(per_agent) + ")",
             config_.agents.max_agents * per_agent);
  budget.add("acquaintance list (" +
                 std::to_string(net::NeighborTable::kCapacity) + " entries)",
             net::NeighborTable::kCapacity * kNeighborBytes);
  budget.add("link layer (dedup cache + pending)",
             net::LinkLayer::kDedupCache * 4 + 64);
  budget.add("migration assembler buffer",
             kStateMessageBytes + config_.code_pool_blocks / 2 * 2 +
                 Agent::kStackDepth * kValueBytes / 2 + 128);
  budget.add("remote-op replay cache",
             RemoteTsManager::kReplayCache * 32);
  budget.add("radio tx/rx buffers (2 x 48 + queue)", 2 * 48 + 96);
  budget.add("engine (ready queue, timers, misc)", 96);
  // Energy subsystem state (src/energy/): the battery ledger (capacity +
  // five 4-byte component accumulators + settle timestamp) and the LPL
  // duty-cycler schedule (fraction, wake time, next-sample alarm).
  budget.add("battery ledger (5 components + settle)", 4 + 5 * 4 + 4);
  budget.add("duty cycler (LPL schedule)", 8);
  return budget;
}

}  // namespace agilla::core
