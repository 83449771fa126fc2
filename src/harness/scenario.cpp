#include "harness/scenario.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "api/knob_registry.h"
#include "core/agent_library.h"
#include "core/assembler.h"
#include "core/isa.h"
#include "core/vm_costs.h"
#include "energy/battery.h"
#include "sim/environment.h"
#include "sim/stats.h"

namespace agilla::harness {
namespace {

/// A scenario-read knob's value: the trial's override, else the
/// registry default (the knob's one home).
double knob_param(const TrialSpec& trial, const char* name) {
  return trial.param(name, api::find_knob(name)->def);
}

ts::Template marker_template(const char* tag) {
  return ts::Template{ts::Value::string(tag),
                      ts::Value::type_wildcard(ts::ValueType::kLocation)};
}

void record_network_stats(const sim::Network& network,
                          TrialMetrics& metrics) {
  const sim::NetworkStats& stats = network.stats();
  metrics.set("frames_sent", static_cast<double>(stats.frames_sent));
  metrics.set("frames_lost", static_cast<double>(stats.frames_lost));
  metrics.set("beacons_sent",
              static_cast<double>(stats.sent(sim::AmType::kBeacon)));
  const double attempts = static_cast<double>(stats.frames_delivered +
                                              stats.frames_lost);
  if (attempts > 0) {
    metrics.set("delivery_rate",
                static_cast<double>(stats.frames_delivered) / attempts);
  }
}

/// Network-wide per-component energy draw, when batteries are attached.
void record_energy_stats(api::Deployment& mesh, TrialMetrics& metrics) {
  if (mesh.network().energy_options() == nullptr) {
    return;
  }
  double total = 0.0;
  for (const auto& [component, key] :
       {std::pair{energy::EnergyComponent::kRadioTx, "e_tx_mj"},
        std::pair{energy::EnergyComponent::kRadioRx, "e_rx_mj"},
        std::pair{energy::EnergyComponent::kRadioIdle, "e_idle_mj"},
        std::pair{energy::EnergyComponent::kCpu, "e_cpu_mj"},
        std::pair{energy::EnergyComponent::kSense, "e_sense_mj"}}) {
    const double mj = mesh.total_drained_mj(component);
    metrics.set(key, mj);
    total += mj;
  }
  metrics.set("e_total_mj", total);
}

/// True when the alive battery-powered motes no longer form a single
/// connected component over the ground-truth radio graph — the multi-hop
/// mesh (agent migration, remote ops, swarming are all node-to-node) has
/// torn. The mains-powered gateway is infrastructure: it never depletes,
/// so counting it would reduce every converge-cast run to "when did the
/// gateway's own neighbours die" and hide what routing policy does to
/// the corridor between the regions. (With gateway_powered=false there
/// is no mains node and every mote participates.)
bool mesh_partitioned(api::Deployment& mesh) {
  const sim::Network& network = mesh.network();
  const bool skip_gateway = network.energy_options() != nullptr &&
                            network.energy_options()->gateway_powered;
  std::vector<char> seen(network.node_count(), 0);
  std::vector<sim::NodeId> stack;
  std::size_t population = 0;
  for (const sim::NodeId id : mesh.topology().nodes) {
    if (!network.alive(id) || (skip_gateway && id.value == 0)) {
      continue;
    }
    ++population;
    if (stack.empty()) {
      stack.push_back(id);  // BFS seed: first alive battery mote
      seen[id.value] = 1;
    }
  }
  if (population <= 1) {
    return false;  // nothing left to partition
  }
  std::size_t reached = 1;
  while (!stack.empty()) {
    const sim::NodeId at = stack.back();
    stack.pop_back();
    for (const sim::NodeId next : network.connected_neighbors(at)) {
      if (!network.alive(next) || seen[next.value] != 0 ||
          (skip_gateway && next.value == 0)) {
        continue;
      }
      seen[next.value] = 1;
      ++reached;
      stack.push_back(next);
    }
  }
  return reached < population;
}

/// Residual-energy spread across surviving batteries: how evenly the
/// routing policy drained the mesh (max-min should lift the minimum).
void record_residual_stats(api::Deployment& mesh, TrialMetrics& metrics) {
  mesh.network().settle_batteries();
  sim::Summary residuals;
  for (const sim::NodeId id : mesh.topology().nodes) {
    if (const energy::Battery* battery = mesh.network().battery(id)) {
      residuals.add(battery->remaining_mj() / battery->capacity_mj());
    }
  }
  if (!residuals.empty()) {
    metrics.set("residual_min_frac", residuals.min());
    metrics.set("residual_mean_frac", residuals.mean());
  }
}

/// The battery family's outcome: node deaths, the first death, the
/// surviving fraction and live agents, then the residual spread, energy
/// draw and network stats. Returns the node lifetimes (virtual seconds
/// from boot to death), in death order.
sim::Summary record_battery_outcome(api::Deployment& mesh,
                                    TrialMetrics& metrics) {
  sim::Summary lifetimes;
  for (const api::Deployment::DeathEvent& death : mesh.death_log()) {
    lifetimes.add(static_cast<double>(death.at) / 1e6);
  }
  metrics.set("deaths", static_cast<double>(lifetimes.count()));
  if (!lifetimes.empty()) {
    metrics.set("first_death_s", lifetimes.min());
  }
  metrics.set("alive_frac",
              static_cast<double>(mesh.network().alive_count()) /
                  static_cast<double>(mesh.mote_count()));
  metrics.set("live_agents", static_cast<double>(mesh.agent_count()));
  record_residual_stats(mesh, metrics);
  record_energy_stats(mesh, metrics);
  record_network_stats(mesh.network(), metrics);
  return lifetimes;
}

// ----------------------------------------------------------- fire_tracking

/// The fire family's run, shared by fire_tracking and network_lifetime.
/// Builds the Sec. 5 burning world on `mesh`: ignition at the far corner
/// 15 s from now, spread speed scaled so the front crosses ~80 % of the
/// diagonal within the trial whatever the grid size (overridable via the
/// "spread_speed" knob). Injects the FIRETRACKER swarm, then the
/// FIREDETECTOR flood (re-alerting every `alert_every_ticks`, 0 = the
/// paper's alert-once), and runs the trial in 5 s steps, calling
/// `each_step` after each. Sets success (the first <"trk", loc> perimeter
/// mark appeared), first_track_s, perimeter_marks and live_agents;
/// returns the fire, the ground truth for the rest.
sim::FireField::Options track_fire(api::Deployment& mesh,
                                   const TrialSpec& trial,
                                   int alert_every_ticks,
                                   const std::function<void()>& each_step,
                                   TrialMetrics& metrics) {
  const sim::SimTime inject_time = mesh.simulator().now();
  const double w = static_cast<double>(trial.grid.width);
  const double h = static_cast<double>(trial.grid.height);
  const double duration_s = static_cast<double>(trial.duration) / 1e6;
  const double diagonal = std::hypot(w - 1.0, h - 1.0);
  const double default_speed =
      0.8 * std::max(diagonal, 1.0) / std::max(duration_s - 15.0, 10.0);
  const sim::FireField::Options fire{
      .ignition_point = {w, h},
      .ignition_time = inject_time + 15 * sim::kSecond,
      .extinction_time = 0,
      .spread_speed = trial.param("spread_speed", default_speed),
      .peak = 500.0,
      .ambient = 25.0,
      .edge_decay = 0.45,
      .ring_width = 1.6,
      .burned_over = 40.0};
  mesh.environment().set_field(sim::SensorType::kTemperature,
                               std::make_unique<sim::FireField>(fire));

  const int threshold = static_cast<int>(knob_param(trial, "alert_threshold"));
  core::BaseStation base = mesh.base();
  base.inject(core::agents::fire_tracker(threshold, /*nap_ticks=*/16));
  base.inject(core::agents::fire_detector(/*alert_to=*/{1, 1},
                                          /*threshold=*/200,
                                          /*sample_ticks=*/32,
                                          alert_every_ticks));

  const ts::Template trk = marker_template("trk");
  const sim::SimTime deadline = inject_time + trial.duration;
  std::optional<sim::SimTime> first_track;
  while (mesh.simulator().now() < deadline) {
    mesh.simulator().run_for(5 * sim::kSecond);
    if (!first_track && mesh.tuples_matching(trk) > 0) {
      first_track = mesh.simulator().now();
    }
    if (each_step) {
      each_step();
    }
  }

  metrics.set("success", first_track ? 1.0 : 0.0);
  if (first_track) {
    metrics.set("first_track_s",
                static_cast<double>(*first_track - fire.ignition_time) / 1e6);
  }
  metrics.set("perimeter_marks",
              static_cast<double>(mesh.tuples_matching(trk)));
  metrics.set("live_agents", static_cast<double>(mesh.agent_count()));
  return fire;
}

/// Paper Sec. 5 end to end, on an arbitrary WxH mesh: FIREDETECTOR agents
/// flood the grid, a fire ignites at the far corner and spreads, the
/// FIRETRACKER swarm marks the perimeter.
TrialMetrics run_fire_tracking(const TrialSpec& trial) {
  api::Deployment mesh(deployment_options(trial));
  TrialMetrics metrics;
  const sim::FireField fire(
      track_fire(mesh, trial, /*alert_every_ticks=*/0, {}, metrics));
  const ts::Template det = marker_template("det");
  metrics.set("detector_coverage",
              static_cast<double>(mesh.motes_matching(det)) /
                  static_cast<double>(mesh.mote_count()));

  // Of the nodes burning at the end, how many have a tracker mark?
  const ts::Template trk = marker_template("trk");
  const sim::SimTime end = mesh.simulator().now();
  std::size_t burning = 0;
  std::size_t burning_tracked = 0;
  for (std::size_t i = 0; i < mesh.mote_count(); ++i) {
    core::AgillaMiddleware& mote = mesh.mote(i);
    if (fire.value(mote.location(), end) > 200.0) {
      ++burning;
      if (mote.tuple_space().rdp(trk).has_value()) {
        ++burning_tracked;
      }
    }
  }
  if (burning > 0) {
    metrics.set("burning_tracked_frac",
                static_cast<double>(burning_tracked) /
                    static_cast<double>(burning));
  }
  record_network_stats(mesh.network(), metrics);
  return metrics;
}

// -------------------------------------------------------- intruder_pursuit

/// The pursuer is wherever two agents share a node (sentinel + pursuer).
std::optional<sim::Location> pursuer_location(api::Deployment& mesh) {
  for (std::size_t i = 0; i < mesh.mote_count(); ++i) {
    if (mesh.mote(i).engine().agents().size() >= 2) {
      return mesh.mote(i).location();
    }
  }
  return std::nullopt;
}

/// One pursuit, polled every 10 s: the pursuer's distance from the
/// intruder at each poll that found it.
struct Track {
  sim::Summary distance;
  std::size_t captures = 0;  ///< polls with the pursuer within one hop
  std::size_t polls = 0;
  std::optional<sim::SimTime> last_seen;
  sim::SimTime deadline = 0;  ///< the pursuit's end
};

/// The intruder family's run, shared by intruder_pursuit and
/// churn_pursuit: the Sec. 1 intruder, a moving magnetometer bump, patrols
/// the mesh perimeter; the sentinel flood claims the grid for 30 s, then
/// one pursuer chases the loudest signal until the trial ends. Sets
/// mean_distance, min_distance and capture_frac when the pursuer was ever
/// found.
Track pursue(api::Deployment& mesh, const TrialSpec& trial,
             TrialMetrics& metrics) {
  const double w = static_cast<double>(trial.grid.width);
  const double h = static_cast<double>(trial.grid.height);
  const sim::MovingBumpField::Options intruder_options{
      .waypoints = {{1, 1}, {w, 1}, {w, h}, {1, h}},
      .speed = knob_param(trial, "intruder_speed"),
      .peak = 400.0,
      .sigma = 1.0,
      .ambient = 5.0,
      .loop = true};
  mesh.environment().set_field(
      sim::SensorType::kMagnetometer,
      std::make_unique<sim::MovingBumpField>(intruder_options));
  const sim::MovingBumpField intruder(intruder_options);
  core::BaseStation base = mesh.base();
  base.inject(core::agents::sentinel(/*sample_ticks=*/8));
  mesh.simulator().run_for(30 * sim::kSecond);  // sentinels claim the grid
  base.inject(core::agents::pursuer(/*nap_ticks=*/8));

  Track track;
  track.deadline = mesh.simulator().now() + trial.duration;
  while (mesh.simulator().now() < track.deadline) {
    mesh.simulator().run_for(10 * sim::kSecond);
    ++track.polls;
    const std::optional<sim::Location> at = pursuer_location(mesh);
    if (!at) {
      continue;
    }
    track.last_seen = mesh.simulator().now();
    const double d =
        distance(intruder.center(mesh.simulator().now()), *at);
    track.distance.add(d);
    if (d <= 1.0) {
      ++track.captures;
    }
  }

  if (!track.distance.empty()) {
    metrics.set("mean_distance", track.distance.mean());
    metrics.set("min_distance", track.distance.min());
    metrics.set("capture_frac",
                static_cast<double>(track.captures) /
                    static_cast<double>(track.distance.count()));
  }
  return track;
}

/// Paper Sec. 1 tracking claim: SENTINELs publish magnetometer readings,
/// one PURSUER chases the loudest signal. The intruder patrols the mesh
/// perimeter; metrics score how closely the pursuer shadows it.
TrialMetrics run_intruder_pursuit(const TrialSpec& trial) {
  api::Deployment mesh(deployment_options(trial));
  TrialMetrics metrics;
  const Track track = pursue(mesh, trial, metrics);
  metrics.set("success", track.last_seen.has_value() ? 1.0 : 0.0);
  metrics.set("live_agents", static_cast<double>(mesh.agent_count()));
  record_network_stats(mesh.network(), metrics);
  return metrics;
}

// ------------------------------------------------------------ smove / rout

/// The longest hop count the grid can realize along the bottom-row-then-
/// right-edge path the Fig. 8 experiments use.
int max_hops(const GridSize& grid) {
  return static_cast<int>(grid.width) - 1 +
         static_cast<int>(grid.height) - 1;
}

/// Destination exactly `hops` grid hops from the corner (1,1): along the
/// bottom row, then up the right edge (generalizes the Fig. 8 5x5 paths).
/// `hops` must already be clamped to max_hops(grid).
sim::Location hop_target(int hops, const GridSize& grid) {
  const int width_hops = static_cast<int>(grid.width) - 1;
  if (hops <= width_hops) {
    return sim::Location{1.0 + hops, 1.0};
  }
  return sim::Location{static_cast<double>(grid.width),
                       1.0 + (hops - width_hops)};
}

int default_hops(const GridSize& grid) {
  return std::min<int>(4, static_cast<int>(grid.width) - 1);
}

/// One Fig. 8 trial on a fresh mesh: `agent(target)` goes from the corner
/// to the node `hops` away, and the trial succeeds when `done` appears on
/// the corner mote within timeout_s (default `default_timeout_s`). The
/// latency is divided by `legs`, so smove's out-and-back round trip
/// reports one migration (paper Sec. 4).
TrialMetrics run_fig8(const TrialSpec& trial,
                      std::string (*agent)(sim::Location),
                      const ts::Template& done, double default_timeout_s,
                      double legs) {
  api::Deployment mesh(deployment_options(trial));
  // Clamp unrealizable hop counts and report the realized value, so a
  // cell whose axis asks for more hops than the grid has is
  // self-describing in the JSON rather than silently mislabeled.
  const int hops = std::min(
      static_cast<int>(trial.param("hops", default_hops(trial.grid))),
      max_hops(trial.grid));
  const sim::Location target = hop_target(hops, trial.grid);
  const sim::SimTime start = mesh.simulator().now();
  mesh.base().inject(agent(target));
  const sim::SimTime timeout = static_cast<sim::SimTime>(
      trial.param("timeout_s", default_timeout_s) * 1e6);
  const auto finished = mesh.await_tuple(mesh.mote(0), done, timeout);

  TrialMetrics metrics;
  metrics.set("hops_realized", hops);
  metrics.set("success", finished ? 1.0 : 0.0);
  if (finished) {
    metrics.set("latency_ms",
                static_cast<double>(*finished - start) / 1000.0 / legs);
  }
  record_network_stats(mesh.network(), metrics);
  return metrics;
}

// --------------------------------------------------------------- store_ops

/// Sec. 3.2 ablation micro-benchmark, no radio: probe and removal cost of
/// the selected store backend with `fillers` tuples in front of the
/// target, in the simulated microseconds the VM cost model charges.
TrialMetrics run_store_ops(const TrialSpec& trial) {
  const int fillers = static_cast<int>(knob_param(trial, "fillers"));
  const auto fill = [](ts::TupleStore& store, int n) {
    for (std::int16_t i = 0; i < n; ++i) {
      if (i % 2 == 0) {
        store.insert(
            ts::Tuple{ts::Value::string("fil"), ts::Value::number(i)});
      } else {
        store.insert(ts::Tuple{ts::Value::number(i)});
      }
    }
  };

  TrialMetrics metrics;
  {
    // Probe: the target sits behind every filler (worst case for the
    // linear scan; the arity index skips the odd arity-1 fillers).
    std::unique_ptr<ts::TupleStore> store = ts::make_store(trial.store, 600);
    fill(*store, fillers);
    store->insert(
        ts::Tuple{ts::Value::string("key"), ts::Value::number(1)});
    const ts::CompiledTemplate target(
        ts::Template{ts::Value::string("key"),
                     ts::Value::type_wildcard(ts::ValueType::kNumber)});
    store->read(target);
    metrics.set("rdp_bytes",
                static_cast<double>(store->last_op_bytes_touched()));
    metrics.set("rdp_cost_us",
                static_cast<double>(core::instruction_cost(
                    static_cast<std::uint8_t>(core::Opcode::kRdp),
                    store->last_op_bytes_touched(), false)));
  }
  if (fillers > 0) {
    // Removal: the linear store shifts every byte behind the removed
    // tuple; the indexed store tombstones. With nothing stored there is
    // nothing to remove — the inp metrics are simply absent from the
    // fillers=0 cell rather than measured against a fabricated store.
    std::unique_ptr<ts::TupleStore> store = ts::make_store(trial.store, 600);
    fill(*store, fillers);
    const ts::CompiledTemplate first(
        ts::Template{ts::Value::string("fil"), ts::Value::number(0)});
    store->take(first);
    metrics.set("inp_bytes",
                static_cast<double>(store->last_op_bytes_touched()));
    metrics.set("inp_cost_us",
                static_cast<double>(core::instruction_cost(
                    static_cast<std::uint8_t>(core::Opcode::kInp),
                    store->last_op_bytes_touched(), false)));
  }
  metrics.set("success", 1.0);
  return metrics;
}

// -------------------------------------------------------- network_lifetime

/// The fire-tracking workload on battery power: every mote (except the
/// mains-powered gateway) starts with `battery_mj` millijoules and pays
/// for listening, TX/RX, VM cycles, and sensing; nodes die as batteries
/// deplete. Reports when the network starts to die and how long it
/// stays useful, with per-trial lifetime percentiles over node deaths.
TrialMetrics run_network_lifetime(const TrialSpec& trial_in) {
  TrialSpec trial = trial_in;
  // Finite by default: at the CC1000's 28.8 mW listen draw, 2 J lasts
  // ~70 s always-on — deaths land inside the default 120 s trial, and
  // duty-cycled cells visibly outlive always-on ones.
  trial.params.try_emplace("battery_mj", 2000.0);
  api::Deployment mesh(deployment_options(trial));
  const std::size_t nodes = mesh.mote_count();
  const sim::SimTime inject_time = mesh.simulator().now();

  // Periodic sense-and-report: burning nodes re-alert every
  // `alert_repeat_s` (converge-cast toward the gateway corner — the
  // relay-corridor load the route_policy axis redistributes). 0 restores
  // the paper's alert-once detector.
  const double alert_repeat_s = knob_param(trial, "alert_repeat_s");
  std::optional<sim::SimTime> first_partition;
  const auto note_partition = [&] {
    if (!first_partition && mesh_partitioned(mesh)) {
      first_partition = mesh.simulator().now();
    }
  };
  TrialMetrics metrics;
  track_fire(mesh, trial, static_cast<int>(alert_repeat_s * 8.0),
             note_partition, metrics);
  // Time-to-first-partition (absent when the mesh stayed connected):
  // the headline metric for the route_policy ablation.
  if (first_partition) {
    metrics.set("first_partition_s",
                static_cast<double>(*first_partition - inject_time) / 1e6);
  }

  // Lifetime accounting: percentiles over this trial's deaths.
  const sim::Summary lifetimes = record_battery_outcome(mesh, metrics);
  if (!lifetimes.empty()) {
    metrics.set("lifetime_p50_s", lifetimes.p50());
    metrics.set("lifetime_p95_s", lifetimes.p95());
    metrics.set("lifetime_p99_s", lifetimes.p99());
  }
  // Half-life: the instant the mesh dropped to half strength.
  if (lifetimes.count() >= nodes - nodes / 2) {
    metrics.set(
        "half_dead_s",
        static_cast<double>(
            mesh.death_log()[nodes - nodes / 2 - 1].at) /
            1e6);
  }
  return metrics;
}

// ------------------------------------------------------- report_collection

/// The canonical WSN data-collection workload, isolated from the fire
/// machinery: every battery mote runs a reporter agent that routs a
/// <"rpt", loc> tuple to the gateway every `report_s` seconds. The
/// converge-cast concentrates on the relay corridor toward the gateway
/// corner, which makes this the cleanest testbed for the route_policy /
/// adaptive_lpl / beacon_suppression axes: delivery measures whether the
/// mesh still works, partition and residual spread measure what the
/// policy did to the corridor.
TrialMetrics run_report_collection(const TrialSpec& trial) {
  api::Deployment mesh(deployment_options(trial));
  const double report_s = knob_param(trial, "report_s");
  const int report_ticks =
      std::max(1, static_cast<int>(report_s * 8.0));
  const std::vector<std::uint8_t> reporter =
      core::assemble_or_die(core::agents::reporter(report_ticks));
  for (std::size_t i = 1; i < mesh.mote_count(); ++i) {
    mesh.mote(i).inject(reporter);
  }

  const ts::Template rpt = marker_template("rpt");
  const ts::CompiledTemplate rpt_compiled(rpt);
  const sim::SimTime start = mesh.simulator().now();
  const sim::SimTime deadline = start + trial.duration;
  double delivered = 0;
  std::optional<sim::SimTime> first_partition;
  while (mesh.simulator().now() < deadline) {
    mesh.simulator().run_for(5 * sim::kSecond);
    // Drain the gateway's store so the 600-byte cap never nacks reports.
    delivered += static_cast<double>(
        mesh.mote(0).tuple_space().tcount(rpt_compiled));
    mesh.mote(0).tuple_space().store().clear();
    if (!first_partition && mesh_partitioned(mesh)) {
      first_partition = mesh.simulator().now();
    }
  }

  TrialMetrics metrics;
  const double duration_s = static_cast<double>(trial.duration) / 1e6;
  const double reporters =
      static_cast<double>(mesh.mote_count() - 1);
  metrics.set("reports_delivered", delivered);
  metrics.set("report_rate_per_node_s",
              delivered / (reporters * duration_s));
  // Success: sustained collection — better than one report per node per
  // four nominal periods over the whole run, dead nodes included.
  metrics.set("success",
              delivered >= reporters * duration_s / report_s / 4.0 ? 1.0
                                                                   : 0.0);
  if (first_partition) {
    metrics.set("first_partition_s",
                static_cast<double>(*first_partition - start) / 1e6);
  }
  record_battery_outcome(mesh, metrics);
  return metrics;
}

// ----------------------------------------------------------- churn_pursuit

/// Intruder pursuit on an unreliable substrate: nodes crash as a Poisson
/// process (`churn_rate` per node per second) and reboot with empty RAM
/// after `churn_reboot_s`. Measures whether the pursuer survives relays
/// dying under it (custody resumes) and how much sentinel coverage the
/// mesh retains — the paper's self-healing claim under real churn.
TrialMetrics run_churn_pursuit(const TrialSpec& trial_in) {
  TrialSpec trial = trial_in;
  // ~0.004 crashes/node/s on a 5x5 mesh = one crash every ~10 s.
  trial.params.try_emplace("churn_rate", 0.004);
  trial.params.try_emplace("churn_reboot_s", 20.0);
  api::Deployment mesh(deployment_options(trial));
  TrialMetrics metrics;
  const Track track = pursue(mesh, trial, metrics);
  // Survived: the pursuer was still observable in the trial's last
  // quarter despite the churn underneath it.
  const bool survived =
      track.last_seen.has_value() &&
      *track.last_seen >= track.deadline - trial.duration / 4;
  metrics.set("success", survived ? 1.0 : 0.0);
  if (track.polls > 0) {
    metrics.set("pursuer_seen_frac",
                static_cast<double>(track.distance.count()) /
                    static_cast<double>(track.polls));
  }

  // Churn + failure-path accounting, summed across the mesh.
  double hop_failures = 0;
  double custody_resumes = 0;
  double migrations_failed = 0;
  double agents_power_lost = 0;
  std::size_t sentinels = 0;
  for (std::size_t i = 0; i < mesh.mote_count(); ++i) {
    core::AgillaMiddleware& mote = mesh.mote(i);
    hop_failures +=
        static_cast<double>(mote.migration().stats().hop_failures);
    custody_resumes +=
        static_cast<double>(mote.migration().stats().custody_resumes);
    migrations_failed +=
        static_cast<double>(mote.engine().stats().migrations_failed);
    agents_power_lost +=
        static_cast<double>(mote.engine().stats().agents_power_lost);
    if (mote.engine().agents().size() >= 1) {
      ++sentinels;
    }
  }
  metrics.set("crashes", static_cast<double>(mesh.death_log().size()));
  metrics.set("reboots", static_cast<double>(mesh.reboot_count()));
  metrics.set("alive_frac",
              static_cast<double>(mesh.network().alive_count()) /
                  static_cast<double>(mesh.mote_count()));
  metrics.set("sentinel_coverage",
              static_cast<double>(sentinels) /
                  static_cast<double>(mesh.mote_count()));
  metrics.set("hop_failures", hop_failures);
  metrics.set("custody_resumes", custody_resumes);
  metrics.set("migrations_failed", migrations_failed);
  metrics.set("agents_power_lost", agents_power_lost);
  metrics.set("live_agents", static_cast<double>(mesh.agent_count()));
  record_energy_stats(mesh, metrics);
  record_network_stats(mesh.network(), metrics);
  return metrics;
}

// Knob lists come from the KnobRegistry (api/knob_registry.h): each
// scenario's own knobs first, then the shared mesh set. store_ops runs
// no radio, so it takes only its own.
std::vector<ScenarioInfo>& registry() {
  static std::vector<ScenarioInfo> scenarios = {
      {"fire_tracking",
       "Sec. 5 case study: detector flood + tracker swarm on a burning "
       "mesh",
       run_fire_tracking, api::scenario_knob_names("fire_tracking")},
      {"intruder_pursuit",
       "Sec. 1 scenario: sentinels publish readings, a pursuer shadows "
       "the intruder",
       run_intruder_pursuit, api::scenario_knob_names("intruder_pursuit")},
      {"smove",
       "Fig. 8 strong-move round trip (axis: hops)",
       [](const TrialSpec& trial) {
         return run_fig8(trial, core::agents::smove_trial,
                         ts::Template{ts::Value::number(7)},
                         /*default_timeout_s=*/15.0, /*legs=*/2.0);
       },
       api::scenario_knob_names("smove")},
      {"rout",
       "Fig. 8 remote out with acknowledgement (axis: hops)",
       [](const TrialSpec& trial) {
         return run_fig8(trial, core::agents::rout_trial,
                         ts::Template{ts::Value::string("ack"),
                                      ts::Value::number(7)},
                         /*default_timeout_s=*/10.0, /*legs=*/1.0);
       },
       api::scenario_knob_names("rout")},
      {"store_ops",
       "Sec. 3.2 ablation: tuple-store probe/remove cost (axis: fillers)",
       run_store_ops,
       api::scenario_knob_names("store_ops", /*include_shared=*/false)},
      {"network_lifetime",
       "fire tracking on battery power: node deaths, lifetime "
       "percentiles, time-to-first-partition (axes: battery_mj, "
       "duty_cycle, route_policy, adaptive_lpl)",
       run_network_lifetime, api::scenario_knob_names("network_lifetime")},
      {"churn_pursuit",
       "intruder pursuit under Poisson crash/reboot churn, with "
       "re-flood recovery (axes: churn_rate, churn_reboot_s, "
       "route_policy, adaptive_lpl)",
       run_churn_pursuit, api::scenario_knob_names("churn_pursuit")},
      {"report_collection",
       "periodic sense-and-report converge-cast to the gateway: "
       "delivery, corridor drain, partition (axes: report_s, "
       "route_policy, duty_cycle)",
       run_report_collection, api::scenario_knob_names("report_collection")},
  };
  return scenarios;
}

}  // namespace

api::DeploymentOptions deployment_options(const TrialSpec& trial) {
  api::DeploymentOptions options;
  options.width = trial.grid.width;
  options.height = trial.grid.height;
  options.packet_loss = trial.packet_loss;
  options.per_byte_loss = trial.per_byte_loss;
  options.seed = trial.seed;
  options.config.tuple_space.store_kind = trial.store;
  api::apply_knobs(options, trial.params);
  return options;
}

const std::vector<ScenarioInfo>& scenarios() { return registry(); }

const ScenarioInfo* find_scenario(std::string_view name) {
  for (const ScenarioInfo& info : registry()) {
    if (info.name == name) {
      return &info;
    }
  }
  return nullptr;
}

bool register_scenario(ScenarioInfo info) {
  if (find_scenario(info.name) != nullptr) {
    return false;
  }
  registry().push_back(std::move(info));
  return true;
}

}  // namespace agilla::harness
