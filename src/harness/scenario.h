// Scenario registry: the unit of work the harness runs.
//
// A scenario maps one TrialSpec (grid, loss, store backend, seed, knobs)
// to a flat set of named metrics. Scenarios must be pure functions of the
// TrialSpec — no global state, no wall clock, no shared RNG — which is
// what lets the runner execute trials on any number of threads and still
// produce bit-identical aggregates.
//
// Built-ins:
//   fire_tracking    paper Sec. 5 case study (detectors + tracker swarm)
//   intruder_pursuit paper Sec. 1 scenario (sentinels + pursuer)
//   smove            Fig. 8 strong-move round trip  (params: hops)
//   rout             Fig. 8 remote out              (params: hops)
//   store_ops        Sec. 3.2 store ablation micro  (params: fillers)
//   network_lifetime fire tracking on battery power (params: battery_mj,
//                    duty_cycle, route_policy, adaptive_lpl, ...): node
//                    deaths, lifetime percentiles, time-to-first-partition
//   churn_pursuit    intruder pursuit under Poisson crash/reboot churn
//                    (params: churn_rate, churn_reboot_s, ...), incl. the
//                    <"ctx"> re-flood recovery of rebooted nodes
//   report_collection periodic converge-cast to the gateway (params:
//                    report_s, ...): delivery, corridor drain, partition
//
// Every mesh-backed scenario additionally understands the energy-aware
// networking knobs (route_policy, energy_weight, adaptive_lpl, duty_min,
// duty_max, beacon_suppression) — see docs/MANUAL.md for units, defaults,
// and valid ranges (kept in sync by the CI docs-consistency gate).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/deployment.h"
#include "harness/experiment.h"

namespace agilla::harness {

/// Metrics from one trial. std::map keeps key order deterministic in the
/// JSON output. A metric a trial does not emit (e.g. latency of a failed
/// migration) is simply absent and excluded from that cell's aggregate.
struct TrialMetrics {
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
};

using ScenarioFn = std::function<TrialMetrics(const TrialSpec&)>;

struct ScenarioInfo {
  std::string name;
  std::string description;
  ScenarioFn run;
  /// Knob names this scenario understands (axis/param validation in the
  /// CLI). Empty = accept anything (externally registered scenarios).
  std::vector<std::string> knobs;
};

/// The deployment one trial runs on: grid/loss/store/seed from the spec
/// by hand, every named knob through api::apply_knobs (the registry seam).
[[nodiscard]] api::DeploymentOptions deployment_options(
    const TrialSpec& trial);

/// All registered scenarios, built-ins first, in registration order.
[[nodiscard]] const std::vector<ScenarioInfo>& scenarios();

/// nullptr when unknown.
[[nodiscard]] const ScenarioInfo* find_scenario(std::string_view name);

/// Registers an additional scenario (tests and future workloads). Returns
/// false (and does nothing) if the name is taken.
bool register_scenario(ScenarioInfo info);

}  // namespace agilla::harness
