#include "core/middleware.h"

namespace agilla::core {

AgillaMiddleware::AgillaMiddleware(sim::Network& network, sim::NodeId self,
                                   const sim::SensorEnvironment* environment,
                                   ProgramTable& programs, AgillaConfig config)
    : network_(network),
      self_(self),
      location_(network.info(self).location),
      config_(config),
      tuple_space_(config.tuple_space, &network.simulator(), self, this),
      code_pool_(config.code_pool_blocks),
      sensors_(environment, location_),
      link_(network_, self_, *this, &neighbors_, config_.link),
      neighbors_(network_, link_, location_, config_.neighbors, this),
      router_(link_, neighbors_, location_, *this, config_.routing),
      context_(location_, neighbors_),
      migration_(network_, link_, router_, engine_, location_,
                 config_.migration),
      remote_ts_(network_.simulator(), router_, tuple_space_, location_,
                 config_.remote_ts),
      region_ops_(link_, router_, tuple_space_, location_),
      engine_(network_.simulator(), self_, config_.engine, code_pool_,
              tuple_space_, context_, sensors_, migration_, remote_ts_,
              programs) {}

bool AgillaMiddleware::on_link_message(sim::AmType am, sim::NodeId from,
                                       std::span<const std::uint8_t> payload) {
  switch (am) {
    case sim::AmType::kBeacon:
      neighbors_.on_beacon(from, payload);
      return true;
    case sim::AmType::kGeo:
      router_.on_geo_frame(payload);
      return true;
    case sim::AmType::kAgentState:
    case sim::AmType::kAgentCode:
    case sim::AmType::kAgentHeap:
    case sim::AmType::kAgentStack:
    case sim::AmType::kAgentReaction:
      return migration_.on_message(am, from, payload);
    case sim::AmType::kRegionFlood:
      region_ops_.on_flood(from, payload);
      return true;
    default:
      return false;  // not an Agilla message (e.g. a Mate capsule)
  }
}

void AgillaMiddleware::on_geo_message(const net::GeoHeader& header,
                                      std::span<const std::uint8_t> payload) {
  switch (header.inner_am) {
    case sim::AmType::kTsRequest:
      remote_ts_.on_request(header, payload);
      return;
    case sim::AmType::kTsReply:
      remote_ts_.on_reply(header, payload);
      return;
    case sim::AmType::kRegionOut:
      region_ops_.on_seed(header, payload);
      return;
    default:
      return;
  }
}

void AgillaMiddleware::on_neighbor_discovered(sim::NodeId /*id*/,
                                              sim::Location location) {
  // A NEW acquaintance (first discovery, or a rebooted node re-appearing
  // after eviction) drops a fresh <"ctx", loc> tuple into the local
  // space. Deployment agents (FIREDETECTOR / SENTINEL) register a
  // reaction on it and re-flood clones — the self-healing path for nodes
  // that reboot agent-less after churn. The tuple is an event, not state:
  // out() fires the reactions (handlers get a copy of the fields), then
  // the tuple is removed so discoveries never eat into the 600-byte store.
  tuple_space_.out(
      ts::Tuple{ts::Value::string("ctx"), ts::Value::location(location)});
  tuple_space_.inp(ts::CompiledTemplate(
      ts::Template{ts::Value::string("ctx"), ts::Value::location(location)}));
}

void AgillaMiddleware::on_reaction(const ts::Reaction& reaction,
                                   const ts::Tuple& tuple) {
  engine_.on_reaction(reaction, tuple);
}

void AgillaMiddleware::on_tuple_inserted(const ts::Tuple& tuple) {
  engine_.on_tuple_inserted(tuple);
}

void AgillaMiddleware::start() {
  link_.attach();
  neighbors_.start();
  context_.seed_context_tuples(tuple_space_, sensors_);
  // Energy wiring: when the network runs the energy subsystem, the VM and
  // the migration protocol charge this node's battery (nullptr for the
  // mains-powered gateway — charging no-ops).
  if (network_.energy_options() != nullptr) {
    engine_.set_energy(network_.battery(self_));
    migration_.set_energy(network_.battery(self_));
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
  budget.add("agent contexts (" + std::to_string(config_.engine.max_agents) +
                 " x " + std::to_string(per_agent) + ")",
             config_.engine.max_agents * per_agent);
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
