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
// DeploymentOptions is populated three ways, all equivalent:
//   1. directly, by designated initializer;
//   2. through SimulationBuilder's typed setters;
//   3. by name through the KnobRegistry (SimulationBuilder::set,
//      api::apply_knobs) — the path the CLI's --axis/--param take.
// The registry (api/knob_registry.h) is the single definition of every
// named knob: defaults here and ranges/units/docs there are asserted
// consistent by tests/test_api.cpp.
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
  ts::StoreKind store = ts::StoreKind::kLinear;
  core::AgillaConfig config{};
  /// Neighbour-discovery warm-up run before the constructor returns.
  sim::SimTime warmup = 5 * sim::kSecond;
  // Energy & lifetime (src/energy/): 0 / 1.0 / 0 keeps the classic
  // immortal, always-on mesh. The registry knobs battery_mj / duty_cycle
  // / churn_rate land here via apply_knobs().
  double battery_mj = 0.0;   ///< per-node battery; <= 0 = immortal
  double duty_cycle = 1.0;   ///< LPL listen fraction; >= 1 = always on
  double churn_rate = 0.0;   ///< Poisson crashes per node per second
  double churn_reboot_s = 0.0;  ///< crashed nodes reboot after this; 0 = never
  // Energy-aware networking (registry knobs route_policy / energy_weight /
  // adaptive_lpl / duty_min / duty_max / beacon_suppression).
  int route_policy = 0;      ///< 0 = greedy-geo, 1 = max-min residual
  double energy_weight = 0.5;   ///< distance/energy weight for max-min
  bool adaptive_lpl = false;    ///< per-node traffic-adaptive LPL
  double duty_min = 0.02;       ///< adaptive controller duty floor
  double duty_max = 0.5;        ///< adaptive controller duty ceiling
  /// Congestion coupling for adaptive LPL (registry knob lpl_tx_busy):
  /// a settle tick with at least this many pending TX frames counts as
  /// busy, so a backlogged node keeps its duty up. 0 = off.
  int lpl_tx_busy = 0;
  /// Beacon suppression (backoff + piggyback): -1 = auto (on whenever
  /// LPL is active), 0 = off, 1 = on.
  int beacon_suppression = -1;
  /// Mains-powered gateway: node 0 gets no battery and is spared from
  /// churn. False makes the sink a battery mote like every other node.
  bool gateway_powered = true;
  /// Charge RX to awake in-range nodes that filter a unicast frame out
  /// (off = the paper model; needs batteries to have any effect).
  bool overhearing = false;
  /// VM bytecode execution strategy (registry knob vm_dispatch): 0 = the
  /// reference switch interpreter, 1 = pre-decoded threaded dispatch.
  /// Simulated behaviour is byte-identical; only host speed differs.
  int vm_dispatch = 1;
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
  [[nodiscard]] std::vector<DeathEvent> death_log() const {
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
  SimulationBuilder& store(ts::StoreKind kind);
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
