// agilla_sim: the experiment-harness CLI.
//
// Sweeps a scenario over a parameter grid of mesh sizes, packet-loss
// rates, and tuple-store backends, runs every trial on a worker pool, and
// emits deterministic JSON: for a fixed --seed the output is
// byte-identical whatever --threads is.
//
//   # 16x16 fire-tracking sweep, 2 loss rates, both stores, 8 trials/cell
//   $ agilla_sim --scenario fire_tracking --grid 16x16 --trials 8
//       --loss 0.0 --loss 0.05 --stores both --threads 8 --out fire.json
//
//   # Fig. 9/10 style hop sweep
//   $ agilla_sim --scenario smove --axis hops=1,2,3,4,5 --trials 20
//
//   $ agilla_sim --list
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "api/knob_registry.h"
#include "harness/runner.h"

#include "cli_args.h"

using namespace agilla;

namespace {

// Rough per-mote host footprint, used only to warn before very large
// meshes are attempted — the sharded engine handles 100k-mote grids, but
// they need host RAM. `bench_scale --grid 100 --grid 200 --grid 316`
// (battery + churn mesh, no agents; x86-64 Release, glibc malloc) peaks
// at 5.2-5.3 KiB per mote at 100x100 and 5.0 KiB at 200x200 and 316x316
// over shards 1-8. Motes that host agents add their decoded programs on
// top.
constexpr double kApproxBytesPerMote = 5.5 * 1024.0;
constexpr std::size_t kWarnGridMotes = 64 * 64;

void print_usage() {
  std::printf(
      "usage: agilla_sim [options]\n"
      "  --scenario NAME      scenario to run (default: fire_tracking)\n"
      "  --list               list registered scenarios and exit\n"
      "  --list-scenarios     machine-readable scenario list (docs gate)\n"
      "  --list-knobs         machine-readable knob-registry table "
      "(docs gate)\n"
      "  --grid WxH           mesh size, repeatable (default: 5x5; large\n"
      "                       grids print a memory estimate — pair with\n"
      "                       --param sim_shards=K for parallel drain)\n"
      "  --trials N           trials per parameter cell (default: 8)\n"
      "  --loss P             packet-loss rate, repeatable (default: "
      "0.02)\n"
      "  --per-byte-loss P    extra per-on-air-byte loss (default: 0)\n"
      "  --stores KIND        linear | indexed | both (default: linear)\n"
      "  --axis NAME=V1,V2    extra sweep axis, repeatable (e.g. "
      "hops=1,2,3)\n"
      "  --param NAME=V       fixed scenario knob, repeatable\n"
      "  --seed S             base RNG seed (default: 1)\n"
      "  --duration SECONDS   virtual seconds per trial (default: 120)\n"
      "  --threads N          worker threads, 0 = hardware (default: 0)\n"
      "  --name NAME          experiment name in the JSON (default: "
      "scenario)\n"
      "  --out FILE           write JSON here and print a summary table;\n"
      "                       without --out the JSON goes to stdout\n");
}

void print_scenarios() {
  std::printf("registered scenarios:\n");
  for (const harness::ScenarioInfo& info : harness::scenarios()) {
    std::printf("  %-18s %s\n", info.name.c_str(),
                info.description.c_str());
    if (!info.knobs.empty()) {
      std::string knobs;
      for (const std::string& knob : info.knobs) {
        knobs += (knobs.empty() ? "" : ", ") + knob;
      }
      std::printf("  %-18s   knobs: %s\n", "", knobs.c_str());
    }
  }
}

// Machine-readable listings, consumed by the docs-consistency gate in
// scripts/check.sh: the committed tables in docs/MANUAL.md must match
// this output byte for byte, so MANUAL.md cannot drift from the binary.
void print_scenario_lines() {
  for (const harness::ScenarioInfo& info : harness::scenarios()) {
    std::printf("%s | %s\n", info.name.c_str(), info.description.c_str());
  }
}

/// One line per registry knob — name, type, unit, default, range, scope
/// (shared = every mesh-backed scenario), doc. Generated solely from the
/// KnobRegistry, so this listing (and the MANUAL.md block the gate
/// checks against it) cannot drift from what the binary accepts.
void print_knob_lines() {
  for (const api::KnobInfo& knob : api::knob_registry()) {
    std::printf("%s | %s | %s | default %s | range %s | %s | %s\n",
                knob.name, std::string(api::to_string(knob.type)).c_str(),
                knob.unit, api::default_to_string(knob).c_str(),
                api::range_to_string(knob).c_str(),
                knob.shared() ? "shared" : knob.scenarios, knob.doc);
  }
}

std::vector<double> parse_double_list(std::string_view s, bool& ok) {
  std::vector<double> values;
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    const std::string_view item = s.substr(0, comma);
    const auto v = tools::parse_finite(item);
    if (!v) {
      ok = false;
      return values;
    }
    values.push_back(*v);
    if (comma == std::string_view::npos) {
      break;
    }
    s.remove_prefix(comma + 1);
  }
  ok = !values.empty();
  return values;
}

/// One human-readable line per cell: the cell coordinates plus every
/// metric's mean (the JSON holds the full distributions).
void print_summary(const harness::ExperimentResult& result) {
  std::printf("experiment %s (scenario %s): %zu cells x %d trials\n",
              result.spec.name.c_str(), result.spec.scenario.c_str(),
              result.cells.size(), result.spec.trials);
  for (const harness::CellResult& cell : result.cells) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%zux%zu loss=%g %s",
                  cell.cell.grid.width, cell.cell.grid.height,
                  cell.cell.packet_loss, ts::to_string(cell.cell.store));
    std::string label = buf;
    for (const auto& [name, value] : cell.cell.axis_values) {
      std::snprintf(buf, sizeof(buf), " %s=%g", name.c_str(), value);
      label += buf;
    }
    std::printf("  %-40s", label.c_str());
    for (const auto& [name, aggregate] : cell.metrics) {
      std::printf(" %s=%.3g", name.c_str(), aggregate.summary.mean());
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentSpec spec;
  spec.scenario = "fire_tracking";
  spec.grids.clear();
  spec.loss_rates.clear();
  spec.stores.clear();
  harness::RunnerOptions runner;
  std::string out_path;
  std::string name_override;

  const auto fail = [](const std::string& message) {
    std::fprintf(stderr, "agilla_sim: %s\n", message.c_str());
    return 2;
  };

  bool list_scenarios = false;
  bool list_knobs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    }
    if (arg == "--list") {
      print_scenarios();
      return 0;
    }
    if (arg == "--list-scenarios") {
      list_scenarios = true;
      continue;
    }
    if (arg == "--list-knobs") {
      list_knobs = true;
      continue;
    }
    if (i + 1 >= argc) {
      return fail("missing value for " + std::string(arg));
    }
    const std::string_view value = argv[++i];
    if (arg == "--scenario") {
      spec.scenario = value;
    } else if (arg == "--grid") {
      const auto grid = harness::parse_grid(value);
      if (!grid) {
        return fail("bad --grid (want WxH): " + std::string(value));
      }
      if (const std::size_t motes = grid->width * grid->height;
          motes > kWarnGridMotes) {
        std::fprintf(stderr,
                     "agilla_sim: note: %zux%zu = %zu motes, roughly "
                     "%.1f GiB of host memory per concurrent trial; "
                     "consider --threads 1 --param sim_shards=8\n",
                     grid->width, grid->height, motes,
                     static_cast<double>(motes) * kApproxBytesPerMote /
                         (1024.0 * 1024.0 * 1024.0));
      }
      spec.grids.push_back(*grid);
    } else if (arg == "--trials") {
      const auto trials = tools::parse_u64(value);
      if (!trials || *trials == 0 ||
          *trials > static_cast<std::uint64_t>(
                         std::numeric_limits<int>::max())) {
        return fail("bad --trials: " + std::string(value));
      }
      spec.trials = static_cast<int>(*trials);
    } else if (arg == "--loss") {
      const auto loss = tools::parse_finite(value);
      if (!loss || *loss < 0.0 || *loss >= 1.0) {
        return fail("bad --loss (want [0,1)): " + std::string(value));
      }
      spec.loss_rates.push_back(*loss);
    } else if (arg == "--per-byte-loss") {
      const auto loss = tools::parse_finite(value);
      if (!loss || *loss < 0.0) {
        return fail("bad --per-byte-loss: " + std::string(value));
      }
      spec.per_byte_loss = *loss;
    } else if (arg == "--stores" || arg == "--store") {
      if (value == "both") {
        spec.stores = {ts::StoreKind::kLinear, ts::StoreKind::kIndexed};
      } else {
        const auto kind = ts::store_kind_from_string(value);
        if (!kind) {
          return fail("bad --stores (linear|indexed|both): " +
                      std::string(value));
        }
        spec.stores.push_back(*kind);
      }
    } else if (arg == "--axis") {
      const std::size_t eq = value.find('=');
      bool ok = false;
      if (eq != std::string_view::npos && eq > 0) {
        harness::Axis axis;
        axis.name = std::string(value.substr(0, eq));
        axis.values = parse_double_list(value.substr(eq + 1), ok);
        if (ok) {
          spec.axes.push_back(std::move(axis));
        }
      }
      if (!ok) {
        return fail("bad --axis (want name=v1,v2,...): " +
                    std::string(value));
      }
    } else if (arg == "--param") {
      const std::size_t eq = value.find('=');
      std::optional<double> v;
      if (eq != std::string_view::npos && eq > 0) {
        v = tools::parse_finite(value.substr(eq + 1));
      }
      if (!v) {
        return fail("bad --param (want name=value): " +
                    std::string(value));
      }
      spec.params[std::string(value.substr(0, eq))] = *v;
    } else if (arg == "--seed") {
      const auto seed = tools::parse_u64(value);
      if (!seed) {
        return fail("bad --seed: " + std::string(value));
      }
      spec.base_seed = *seed;
    } else if (arg == "--duration") {
      const auto seconds = tools::parse_finite(value);
      if (!seconds || *seconds <= 0.0) {
        return fail("bad --duration: " + std::string(value));
      }
      spec.duration = static_cast<sim::SimTime>(*seconds * 1e6);
    } else if (arg == "--threads") {
      // 0 is meaningful here: one worker per hardware thread.
      const auto threads = tools::parse_u64(value);
      if (!threads || *threads > std::numeric_limits<unsigned>::max()) {
        return fail("bad --threads: " + std::string(value));
      }
      runner.threads = static_cast<unsigned>(*threads);
    } else if (arg == "--name") {
      name_override = value;
    } else if (arg == "--out") {
      out_path = value;
    } else {
      print_usage();
      return fail("unknown option: " + std::string(arg));
    }
  }

  if (list_scenarios || list_knobs) {
    if (list_scenarios) {
      print_scenario_lines();
    }
    if (list_knobs) {
      print_knob_lines();
    }
    return 0;
  }

  const harness::ScenarioInfo* scenario =
      harness::find_scenario(spec.scenario);
  if (scenario == nullptr) {
    print_scenarios();
    return fail("unknown scenario: " + spec.scenario);
  }
  // Reject knobs the scenario does not understand instead of silently
  // sweeping (or fixing) a value nothing reads.
  if (!scenario->knobs.empty()) {
    const auto check_knob = [&](const std::string& name,
                                const char* flag) -> std::string {
      if (std::find(scenario->knobs.begin(), scenario->knobs.end(),
                    name) != scenario->knobs.end()) {
        return "";
      }
      std::string valid;
      for (const std::string& knob : scenario->knobs) {
        valid += (valid.empty() ? "" : ", ") + knob;
      }
      return "unknown " + std::string(flag) + " '" + name +
             "' for scenario " + spec.scenario + " (valid: " + valid + ")";
    };
    for (const harness::Axis& axis : spec.axes) {
      if (std::string error = check_knob(axis.name, "--axis");
          !error.empty()) {
        return fail(error);
      }
    }
    for (const auto& [name, value] : spec.params) {
      if (std::string error = check_knob(name, "--param");
          !error.empty()) {
        return fail(error);
      }
    }
  }
  // Range/type validation against the knob registry: an out-of-range
  // value is rejected with the registry's range and unit, so a typo'd
  // magnitude cannot silently run a nonsensical sweep. Knobs of
  // externally registered scenarios have no registry entry and pass.
  const auto range_check = [](const char* flag, const std::string& name,
                              double value) -> std::string {
    const api::KnobInfo* knob = api::find_knob(name);
    if (knob == nullptr) {
      return "";
    }
    const std::string error = api::validate_knob(*knob, value);
    return error.empty() ? "" : "bad " + std::string(flag) + ": " + error;
  };
  for (const harness::Axis& axis : spec.axes) {
    for (const double value : axis.values) {
      if (std::string error = range_check("--axis", axis.name, value);
          !error.empty()) {
        return fail(error);
      }
    }
  }
  for (const auto& [name, value] : spec.params) {
    if (std::string error = range_check("--param", name, value);
        !error.empty()) {
      return fail(error);
    }
  }
  if (spec.grids.empty()) {
    spec.grids.push_back(harness::GridSize{5, 5});
  }
  if (spec.loss_rates.empty()) {
    spec.loss_rates.push_back(api::kDefaultLoss);
  }
  if (spec.stores.empty()) {
    spec.stores.push_back(ts::StoreKind::kLinear);
  }
  spec.name = name_override.empty() ? spec.scenario : name_override;

  const harness::ExperimentResult result =
      harness::run_experiment(spec, runner);
  const std::string json = to_json(result);

  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      return fail("cannot write " + out_path);
    }
    out << json << "\n";
    out.close();
    print_summary(result);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
