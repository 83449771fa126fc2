// AgillaMiddleware: the per-node facade that instantiates and wires every
// manager of paper Fig. 4 — link layer, neighbour discovery, geographic
// routing, tuple space, agent/context/instruction managers, the migration
// and remote-op protocols, and the engine.
#pragma once

#include <optional>

#include "core/agent_manager.h"
#include "core/context_manager.h"
#include "core/engine.h"
#include "core/memory_budget.h"
#include "core/migration.h"
#include "core/program_table.h"
#include "core/region_ops.h"
#include "core/remote_ts.h"
#include "net/geo_router.h"
#include "net/link_layer.h"
#include "net/neighbor_table.h"
#include "sim/environment.h"
#include "sim/network.h"

namespace agilla::core {

struct AgillaConfig {
  std::size_t code_pool_blocks = CodePool::kDefaultBlocks;  ///< 440 bytes
  AgentManager::Options agents{};            ///< 4 agents (paper default)
  ts::TupleSpace::Options tuple_space{};     ///< 600 B store, 400 B registry
  net::LinkLayer::Options link{};            ///< 0.1 s ack timeout, 4 retries
  net::NeighborTable::Options neighbors{};
  net::GeoRouter::Options routing{};         ///< greedy-geo vs max-min residual
  MigrationManager::Options migration{};     ///< 0.25 s receiver abort
  RemoteTsManager::Options remote_ts{};      ///< 2 s reply timeout
  AgillaEngine::Options engine{};            ///< dispatch mode, batching
};

class AgillaMiddleware {
 public:
  /// Creates the middleware stack for node `self`. `environment` may be
  /// nullptr (no sensors). `programs` is the program table the node's
  /// agents share with every other node built on it (one per deployment);
  /// it must outlive the instance. The instance must outlive the
  /// simulation run.
  AgillaMiddleware(sim::Network& network, sim::NodeId self,
                   const sim::SensorEnvironment* environment,
                   ProgramTable& programs,
                   AgillaConfig config = AgillaConfig());

  AgillaMiddleware(const AgillaMiddleware&) = delete;
  AgillaMiddleware& operator=(const AgillaMiddleware&) = delete;

  /// Attaches the radio, starts beaconing, and seeds the context tuples.
  void start();

  /// Node death (battery depletion or churn crash): kills every agent,
  /// wipes the tuple space, reactions, and acquaintance list, and stops
  /// beaconing — the mote's RAM is gone. The network layer has already
  /// silenced the radio; in-flight protocol exchanges with this node time
  /// out at their initiators and report failure there.
  void power_down();

  /// Reboot after a churn crash: resumes beaconing and reseeds the
  /// context tuples into the (empty) tuple space.
  void power_up();

  /// Injects an agent on this node (the paper's base-station injection).
  std::optional<AgentId> inject(std::span<const std::uint8_t> code);

  [[nodiscard]] sim::NodeId node_id() const { return self_; }
  [[nodiscard]] sim::Location location() const { return location_; }
  [[nodiscard]] sim::Simulator& simulator() { return network_.simulator(); }

  [[nodiscard]] AgillaEngine& engine() { return engine_; }
  [[nodiscard]] const AgillaEngine& engine() const { return engine_; }
  [[nodiscard]] ts::TupleSpace& tuple_space() { return tuple_space_; }
  [[nodiscard]] AgentManager& agents() { return agents_; }
  [[nodiscard]] CodePool& code_pool() { return code_pool_; }
  [[nodiscard]] ContextManager& context() { return context_; }
  [[nodiscard]] net::LinkLayer& link() { return link_; }
  [[nodiscard]] net::NeighborTable& neighbors() { return neighbors_; }
  [[nodiscard]] net::GeoRouter& router() { return router_; }
  [[nodiscard]] MigrationManager& migration() { return migration_; }
  [[nodiscard]] RemoteTsManager& remote_ts() { return remote_ts_; }
  [[nodiscard]] RegionOps& region_ops() { return region_ops_; }
  [[nodiscard]] const AgillaConfig& config() const { return config_; }

  /// The data-RAM ledger for this node's configuration (paper's 3.59 KB
  /// figure). Computed from the concrete config, not hard-coded.
  [[nodiscard]] MemoryBudget memory_budget() const;

 private:
  sim::Network& network_;
  sim::NodeId self_;
  sim::Location location_;
  AgillaConfig config_;

  // The layers live inline, so a mote is one allocation. Declaration
  // order is construction order, and it matters: each layer takes
  // references to the ones before it.
  ts::TupleSpace tuple_space_;
  CodePool code_pool_;
  AgentManager agents_;
  SensorBoard sensors_;
  net::LinkLayer link_;
  net::NeighborTable neighbors_;
  net::GeoRouter router_;
  ContextManager context_;
  MigrationManager migration_;
  RemoteTsManager remote_ts_;
  RegionOps region_ops_;
  AgillaEngine engine_;
};

}  // namespace agilla::core
