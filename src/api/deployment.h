// The public embedding facade of the Agilla reproduction.
//
// A Deployment composes everything a simulated Agilla mesh needs —
// simulator, lossy grid radio, sensor environment, one AgillaMiddleware
// per mote, the energy/churn subsystems, and the instrumentation
// EventBus — from one DeploymentOptions value, without the caller ever
// wiring harness internals. Third-party workloads (the `examples/`
// programs), the experiment harness' scenarios, and future backends all
// program against this class.
//
// DeploymentOptions holds the mesh's structure (grid, radio loss, seed,
// warm-up, shards) and, nested, the option struct of each layer that
// reads a setting: core::AgillaConfig, energy::EnergyOptions and
// sim::ChurnOptions. Every setting has exactly one field. It is set
// directly, through SimulationBuilder, or by name through the
// KnobRegistry (api/knob_registry.h; SimulationBuilder::set and
// api::apply_knobs, the path the CLI's --axis/--param take), whose
// accessors address the nested field. The constructor overwrites none of
// them: it only derives (attaches energy when needed, stretches protocol
// timeouts under LPL).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/events.h"
#include "core/injector.h"
#include "core/middleware.h"
#include "core/program_table.h"
#include "sim/environment.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace agilla::api {

/// Loss calibration shared with the paper experiments (see bench_common.h
/// for the derivation): per-packet floor + per-byte fade.
inline constexpr double kDefaultLoss = 0.02;
inline constexpr double kDefaultPerByteLoss = 0.0016;

struct DeploymentOptions {
  std::size_t width = 5;
  std::size_t height = 5;
  double packet_loss = kDefaultLoss;
  double per_byte_loss = 0.0;
  std::uint64_t seed = 1;
  /// Every mote's middleware settings: tuple store, VM dispatch, routing
  /// policy, beacon suppression, protocol timeouts.
  core::AgillaConfig config{};
  /// Neighbour-discovery warm-up run before the constructor returns.
  sim::SimTime warmup = 5 * sim::kSecond;
  /// Batteries, LPL duty cycling, overhearing, a mains-powered gateway.
  /// Attached only when there is a battery or LPL is on, so the defaults
  /// keep the classic immortal, always-on mesh.
  energy::EnergyOptions energy{};
  /// Poisson crash/reboot churn; a zero rate keeps every node up. The
  /// gateway is spared while energy.gateway_powered.
  sim::ChurnOptions churn{};
  /// Spatial shards of the event engine (registry knob sim_shards): the
  /// mesh is split into contiguous x-strips, each drained by its own
  /// worker inside conservative lookahead epochs. 1 = the exact serial
  /// loop; any K produces byte-identical results (DESIGN.md "Sharded
  /// event engine"), observer-derived ones included. Only host speed
  /// differs.
  std::size_t sim_shards = 1;
};

/// A fully composed Agilla mesh: the unit every workload runs against,
/// and the unit the harness thread pool executes (one Deployment per
/// trial, no state shared between trials).
class Deployment {
 public:
  /// Builds and warms up the mesh. `observers` are subscribed to the
  /// event bus before any mote exists, so they see warm-up traffic too.
  explicit Deployment(DeploymentOptions options,
                      std::vector<Observer*> observers = {});

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] sim::Network& network() { return network_; }
  [[nodiscard]] sim::SensorEnvironment& environment() {
    return environment_;
  }
  [[nodiscard]] const sim::Topology& topology() const { return topology_; }
  [[nodiscard]] const DeploymentOptions& options() const { return options_; }

  /// The instrumentation bus. Subscribe/unsubscribe at any point (from
  /// the driving thread); records are dispatched in subscription order
  /// (determinism contract in api/events.h).
  [[nodiscard]] EventBus& bus() { return bus_; }

  [[nodiscard]] std::size_t mote_count() const { return motes_.size(); }
  [[nodiscard]] core::AgillaMiddleware& mote(std::size_t index) {
    return *motes_.at(index);
  }
  [[nodiscard]] core::AgillaMiddleware& mote_at(double x, double y);

  /// Base station wired to mote 0 (the grid origin corner). BaseStation
  /// is a value-semantic handle onto the gateway mote.
  [[nodiscard]] core::BaseStation base() {
    return core::BaseStation(*motes_.front());
  }

  /// Advances virtual time (sugar for simulator().run_for).
  void run_for(sim::SimTime duration) { simulator_.run_for(duration); }

  /// Assembles a `.aga` source file (macros, includes, `.tuple` literals —
  /// see core/assembler.h) and injects the agent on `mote_index` (default:
  /// the gateway mote). Throws std::runtime_error carrying the assembler's
  /// file:line diagnostics when the source does not assemble; returns
  /// nullopt when the mote is out of resources.
  std::optional<core::AgentId> inject_file(const std::string& path,
                                           std::size_t mote_index = 0);

  /// Empties every mote's tuple store (between dependent sub-runs, so
  /// result markers cannot fill the 600-byte stores).
  void clear_all_stores();

  /// Runs the simulation until `mote`'s space holds a tuple matching
  /// `templ` or `timeout` elapses; returns the virtual observation time.
  std::optional<sim::SimTime> await_tuple(
      core::AgillaMiddleware& mote, const ts::Template& templ,
      sim::SimTime timeout,
      sim::SimTime poll_step = 2 * sim::kMillisecond);

  /// Number of motes whose space currently matches `templ`.
  [[nodiscard]] std::size_t motes_matching(const ts::Template& templ) const;

  /// Total matching tuples across all motes.
  [[nodiscard]] std::size_t tuples_matching(const ts::Template& templ) const;

  /// Total live agents across all motes.
  [[nodiscard]] std::size_t agent_count() const;

  // ------------------------------------------------------------- energy
  struct DeathEvent {
    sim::NodeId node;
    sim::SimTime at = 0;
    sim::NodeDownReason reason = sim::NodeDownReason::kBatteryDepleted;
  };

  /// Node deaths (battery + churn) across the whole run, in the serial
  /// engine's order whatever sim_shards is: an internal bus observer
  /// records the kNodeDown records. Call between run() calls.
  [[nodiscard]] const std::vector<DeathEvent>& death_log() const {
    return lifecycle_.deaths;
  }
  [[nodiscard]] std::size_t reboot_count() const {
    return lifecycle_.reboots;
  }

  /// Network-wide drain for one ledger component, batteries settled to
  /// now() first. 0 when energy is disabled.
  [[nodiscard]] double total_drained_mj(energy::EnergyComponent component);

 private:
  /// Observes node deaths and reboots (kNodeDown/kNodeUp) off the bus.
  struct LifecycleLog final : Observer {
    std::vector<DeathEvent> deaths;
    std::size_t reboots = 0;

    void on_event(const sim::Event& event) override;
  };

  DeploymentOptions options_;
  sim::Simulator simulator_;
  sim::Network network_;
  sim::SensorEnvironment environment_;
  sim::Topology topology_;
  LifecycleLog lifecycle_;  ///< declared before the bus: outlives it
  EventBus bus_;
  core::ProgramTable programs_;  ///< declared before the motes: outlives them
  std::vector<std::unique_ptr<core::AgillaMiddleware>> motes_;
};

/// Fluent assembly of a Deployment. Typed setters for the structural
/// parameters; `set(name, value)` reaches every registry knob by name
/// (validated against its type and range — std::invalid_argument on a
/// bad name or value, so embedder typos fail loudly, like the CLI's).
class SimulationBuilder {
 public:
  SimulationBuilder& grid(std::size_t width, std::size_t height);
  SimulationBuilder& packet_loss(double loss);
  SimulationBuilder& per_byte_loss(double loss);
  SimulationBuilder& seed(std::uint64_t seed);
  SimulationBuilder& warmup(sim::SimTime duration);
  SimulationBuilder& config(const core::AgillaConfig& config);

  /// Sets a registry knob by name (range-checked). Knobs not mapped onto
  /// DeploymentOptions (scenario-read knobs like "hops") are kept in a
  /// side map readable via knob()/params().
  SimulationBuilder& set(std::string_view name, double value);

  /// Reads a knob's current value (the registry default when unset).
  [[nodiscard]] double knob(std::string_view name) const;

  /// Subscribes `observer` to the deployment's bus at build time, before
  /// warm-up, in call order.
  SimulationBuilder& observe(Observer& observer);

  [[nodiscard]] const DeploymentOptions& options() const { return options_; }
  /// Scenario-read knob values accumulated by set().
  [[nodiscard]] const std::map<std::string, double>& params() const {
    return params_;
  }

  /// Composes the deployment (Deployment is not movable: it is a web of
  /// internal references, hence the unique_ptr).
  [[nodiscard]] std::unique_ptr<Deployment> build() const;

 private:
  DeploymentOptions options_;
  std::map<std::string, double> params_;
  std::vector<Observer*> observers_;
};

}  // namespace agilla::api
