#include "api/knob_registry.h"

#include <cmath>
#include <cstdio>
#include <limits>

namespace agilla::api {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Shorthand builders so the table below stays readable.
KnobInfo shared_knob(const char* name, KnobType type, const char* unit,
                     double def, double min, double max, bool min_open,
                     const char* doc,
                     void (*apply)(DeploymentOptions&, double),
                     double (*read)(const DeploymentOptions&)) {
  KnobInfo knob;
  knob.name = name;
  knob.type = type;
  knob.unit = unit;
  knob.def = def;
  knob.min = min;
  knob.max = max;
  knob.min_open = min_open;
  knob.doc = doc;
  knob.apply = apply;
  knob.read = read;
  return knob;
}

KnobInfo scenario_knob(const char* name, KnobType type, const char* unit,
                       double def, bool auto_default, double min, double max,
                       bool min_open, const char* scenarios,
                       const char* doc) {
  KnobInfo knob;
  knob.name = name;
  knob.type = type;
  knob.unit = unit;
  knob.def = def;
  knob.auto_default = auto_default;
  knob.min = min;
  knob.max = max;
  knob.min_open = min_open;
  knob.scenarios = scenarios;
  knob.doc = doc;
  return knob;
}

std::vector<KnobInfo> build_registry() {
  std::vector<KnobInfo> knobs;

  // ------------------------------------------- scenario-specific knobs
  knobs.push_back(scenario_knob(
      "spread_speed", KnobType::kDouble, "grid units/s", 0.0, true, 0.0,
      kInf, true, "fire_tracking,network_lifetime",
      "fire-front expansion speed; auto fits 80% of the diagonal in the "
      "trial"));
  knobs.push_back(scenario_knob(
      "alert_threshold", KnobType::kDouble, "degC", 180.0, false, 0.0,
      1000.0, false, "fire_tracking,network_lifetime",
      "tracker's node-is-hot threshold"));
  knobs.push_back(scenario_knob(
      "alert_repeat_s", KnobType::kDouble, "s", 4.0, false, 0.0, kInf,
      false, "network_lifetime",
      "burning detectors re-alert this often; 0 = paper's "
      "alert-once-then-halt"));
  knobs.push_back(scenario_knob(
      "intruder_speed", KnobType::kDouble, "grid units/s", 0.05, false,
      0.0, kInf, true, "intruder_pursuit,churn_pursuit",
      "patrol speed of the magnetometer bump"));
  knobs.push_back(scenario_knob(
      "hops", KnobType::kInt, "hops", 4.0, true, 1.0, kInf, false,
      "smove,rout",
      "hop distance of the round trip / remote op; auto = min(4, "
      "width-1), clamped to the grid and reported as hops_realized"));
  knobs.push_back(scenario_knob(
      "timeout_s", KnobType::kDouble, "s", 15.0, true, 0.0, kInf, true,
      "smove,rout",
      "per-trial give-up time; auto = 15 (smove) / 10 (rout)"));
  knobs.push_back(scenario_knob(
      "fillers", KnobType::kInt, "tuples", 20.0, false, 0.0, kInf, false,
      "store_ops", "tuples stored in front of the probe target"));
  knobs.push_back(scenario_knob(
      "report_s", KnobType::kDouble, "s", 4.0, false, 0.0, kInf, true,
      "report_collection",
      "per-node reporting period of the converge-cast"));

  // ------------------------------------------------- shared mesh knobs
  knobs.push_back(shared_knob(
      "battery_mj", KnobType::kDouble, "mJ", 0.0, 0.0, kInf, false,
      "per-node battery capacity; 0 = immortal nodes (network_lifetime "
      "overrides to 2000)",
      [](DeploymentOptions& o, double v) { o.energy.battery_mj = v; },
      [](const DeploymentOptions& o) { return o.energy.battery_mj; }));
  knobs.push_back(shared_knob(
      "duty_cycle", KnobType::kDouble, "fraction", 1.0, 0.0, 1.0, true,
      "LPL listen fraction; 1 = always-on radio; check period = 8 ms / "
      "fraction, every frame pays the period as extra preamble",
      [](DeploymentOptions& o, double v) {
        o.energy.duty.listen_fraction = v;
      },
      [](const DeploymentOptions& o) {
        return o.energy.duty.listen_fraction;
      }));
  knobs.push_back(shared_knob(
      "churn_rate", KnobType::kDouble, "crashes/node/s", 0.0, 0.0, kInf,
      false,
      "Poisson crash intensity per node (gateway spared while "
      "gateway_powered=1; churn_pursuit overrides to 0.004)",
      [](DeploymentOptions& o, double v) {
        o.churn.crash_rate_per_node_s = v;
      },
      [](const DeploymentOptions& o) {
        return o.churn.crash_rate_per_node_s;
      }));
  knobs.push_back(shared_knob(
      "churn_reboot_s", KnobType::kDouble, "s", 0.0, 0.0, kInf, false,
      "crashed nodes reboot with empty RAM after this long; 0 = never "
      "(churn_pursuit overrides to 20)",
      [](DeploymentOptions& o, double v) {
        o.churn.reboot_after = static_cast<sim::SimTime>(v * 1e6);
      },
      [](const DeploymentOptions& o) {
        return static_cast<double>(o.churn.reboot_after) / 1e6;
      }));
  knobs.push_back(shared_knob(
      "route_policy", KnobType::kInt, "enum", 0.0, 0.0, 1.0, false,
      "0 = greedy-geo (paper), 1 = max-min residual (energy-aware; "
      "DESIGN.md Routing & LPL)",
      [](DeploymentOptions& o, double v) {
        o.config.routing.policy = v == 1.0 ? net::RoutePolicy::kMaxMinResidual
                                           : net::RoutePolicy::kGreedyGeo;
      },
      [](const DeploymentOptions& o) {
        return static_cast<double>(o.config.routing.policy);
      }));
  knobs.push_back(shared_knob(
      "energy_weight", KnobType::kDouble, "fraction", 0.5, 0.0, 1.0,
      false,
      "max-min score weight: 0 = pure forward progress, 1 = pure "
      "residual energy",
      [](DeploymentOptions& o, double v) {
        o.config.routing.energy_weight = v;
      },
      [](const DeploymentOptions& o) {
        return o.config.routing.energy_weight;
      }));
  knobs.push_back(shared_knob(
      "adaptive_lpl", KnobType::kBool, "bool", 0.0, 0.0, 1.0, false,
      "per-node traffic-adaptive LPL controller; senders size preambles "
      "from each receiver's advertised check period",
      [](DeploymentOptions& o, double v) {
        o.energy.duty.adaptive = v != 0.0;
      },
      [](const DeploymentOptions& o) {
        return o.energy.duty.adaptive ? 1.0 : 0.0;
      }));
  knobs.push_back(shared_knob(
      "duty_min", KnobType::kDouble, "fraction", 0.02, 0.0, 1.0, true,
      "adaptive controller's duty floor (quiet channel)",
      [](DeploymentOptions& o, double v) { o.energy.duty.min_fraction = v; },
      [](const DeploymentOptions& o) { return o.energy.duty.min_fraction; }));
  knobs.push_back(shared_knob(
      "duty_max", KnobType::kDouble, "fraction", 0.5, 0.0, 1.0, true,
      "adaptive controller's duty ceiling (busy channel)",
      [](DeploymentOptions& o, double v) { o.energy.duty.max_fraction = v; },
      [](const DeploymentOptions& o) { return o.energy.duty.max_fraction; }));
  knobs.push_back(shared_knob(
      "lpl_tx_busy", KnobType::kInt, "frames", 0.0, 0.0, kInf, false,
      "adaptive LPL congestion coupling: a settle tick with >= this many "
      "pending TX frames counts as busy (keeps duty up under backlog); 0 "
      "= off",
      [](DeploymentOptions& o, double v) {
        o.energy.duty.tx_busy_depth = static_cast<std::uint32_t>(v);
      },
      [](const DeploymentOptions& o) {
        return static_cast<double>(o.energy.duty.tx_busy_depth);
      }));
  knobs.push_back(shared_knob(
      "beacon_suppression", KnobType::kInt, "tristate", -1.0, -1.0, 1.0,
      false,
      "-1 = auto (on whenever LPL is active), 0 = force 1 Hz beacons, 1 "
      "= force exponential backoff + piggyback",
      [](DeploymentOptions& o, double v) {
        o.config.neighbors.suppression = static_cast<net::Suppression>(v);
      },
      [](const DeploymentOptions& o) {
        return static_cast<double>(o.config.neighbors.suppression);
      }));
  knobs.push_back(shared_knob(
      "gateway_powered", KnobType::kBool, "bool", 1.0, 0.0, 1.0, false,
      "1 = node 0 is mains-powered (no battery, never churned); 0 = the "
      "sink is a battery mote like every other node",
      [](DeploymentOptions& o, double v) {
        o.energy.gateway_powered = v != 0.0;
      },
      [](const DeploymentOptions& o) {
        return o.energy.gateway_powered ? 1.0 : 0.0;
      }));
  knobs.push_back(shared_knob(
      "overhearing", KnobType::kBool, "bool", 0.0, 0.0, 1.0, false,
      "charge RX to awake in-range nodes that filter a unicast frame "
      "out; 0 = paper model (only addressed receivers pay)",
      [](DeploymentOptions& o, double v) { o.energy.overhearing = v != 0.0; },
      [](const DeploymentOptions& o) {
        return o.energy.overhearing ? 1.0 : 0.0;
      }));
  knobs.push_back(shared_knob(
      "vm_dispatch", KnobType::kInt, "enum", 1.0, 0.0, 1.0, false,
      "0 = reference switch interpreter, 1 = pre-decoded threaded "
      "dispatch (DESIGN.md VM dispatch); simulated behaviour is "
      "byte-identical, only host speed differs",
      [](DeploymentOptions& o, double v) {
        o.config.engine.dispatch = v == 0.0 ? core::DispatchMode::kSwitch
                                            : core::DispatchMode::kThreaded;
      },
      [](const DeploymentOptions& o) {
        return static_cast<double>(o.config.engine.dispatch);
      }));
  knobs.push_back(shared_knob(
      "sim_shards", KnobType::kInt, "shards", 1.0, 1.0, 256.0, false,
      "spatial shards of the event engine, each drained by its own "
      "worker thread (DESIGN.md Sharded event engine); results are "
      "byte-identical for any value, only host speed differs",
      [](DeploymentOptions& o, double v) {
        o.sim_shards = static_cast<std::size_t>(v);
      },
      [](const DeploymentOptions& o) {
        return static_cast<double>(o.sim_shards);
      }));
  return knobs;
}

}  // namespace

bool KnobInfo::owned_by(std::string_view scenario) const {
  std::string_view list = scenarios;
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    if (list.substr(0, comma) == scenario) {
      return true;
    }
    if (comma == std::string_view::npos) {
      break;
    }
    list.remove_prefix(comma + 1);
  }
  return false;
}

const std::vector<KnobInfo>& knob_registry() {
  static const std::vector<KnobInfo> registry = build_registry();
  return registry;
}

const KnobInfo* find_knob(std::string_view name) {
  for (const KnobInfo& knob : knob_registry()) {
    if (knob.name == name) {
      return &knob;
    }
  }
  return nullptr;
}

std::string_view to_string(KnobType type) {
  switch (type) {
    case KnobType::kInt:
      return "int";
    case KnobType::kBool:
      return "bool";
    case KnobType::kDouble:
      break;
  }
  return "double";
}

namespace {

std::string bound_to_string(double value) {
  if (std::isinf(value)) {
    return value > 0 ? "inf" : "-inf";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace

std::string range_to_string(const KnobInfo& knob) {
  if (knob.type == KnobType::kBool) {
    return "{0, 1}";
  }
  std::string range;
  range += knob.min_open ? '(' : '[';
  range += bound_to_string(knob.min);
  range += ", ";
  range += bound_to_string(knob.max);
  range += std::isinf(knob.max) ? ')' : ']';
  return range;
}

std::string default_to_string(const KnobInfo& knob) {
  return knob.auto_default ? "auto" : bound_to_string(knob.def);
}

std::string validate_knob(const KnobInfo& knob, double value) {
  const auto fail = [&] {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return std::string(knob.name) + " = " + buf + " is invalid: want " +
           std::string(to_string(knob.type)) + " in " +
           range_to_string(knob) + " (" + knob.unit + ")";
  };
  if (!std::isfinite(value)) {
    return fail();
  }
  if (knob.type != KnobType::kDouble && value != std::floor(value)) {
    return fail();
  }
  if (value > knob.max || value < knob.min ||
      (knob.min_open && value == knob.min)) {
    return fail();
  }
  return "";
}

std::string validate_knob(std::string_view name, double value) {
  const KnobInfo* knob = find_knob(name);
  if (knob == nullptr) {
    return "unknown knob: " + std::string(name);
  }
  return validate_knob(*knob, value);
}

void apply_knobs(DeploymentOptions& options,
                 const std::map<std::string, double>& params) {
  for (const auto& [name, value] : params) {
    if (const KnobInfo* knob = find_knob(name);
        knob != nullptr && knob->apply != nullptr) {
      knob->apply(options, value);
    }
  }
}

std::vector<std::string> scenario_knob_names(std::string_view scenario,
                                             bool include_shared) {
  std::vector<std::string> names;
  for (const KnobInfo& knob : knob_registry()) {
    if (knob.owned_by(scenario)) {
      names.emplace_back(knob.name);
    }
  }
  if (include_shared) {
    for (const KnobInfo& knob : knob_registry()) {
      if (knob.shared()) {
        names.emplace_back(knob.name);
      }
    }
  }
  return names;
}

}  // namespace agilla::api
