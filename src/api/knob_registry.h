// The single source of truth for every named experiment knob.
//
// Each KnobInfo carries the knob's type, unit, default, valid range,
// doc string, owning scenarios, and — for shared mesh knobs — apply/read
// accessors that write and read the one layer field the knob names
// (o.energy.duty.listen_fraction, o.config.routing.policy, ...). A knob
// is a name for that field, not a second copy of it. Everything that
// deals in knobs derives from this table:
//   - DeploymentOptions population (apply_knobs / SimulationBuilder::set)
//   - per-scenario knob lists (scenario_knob_names -> ScenarioInfo.knobs)
//   - CLI --axis/--param validation, including range checks
//   - the `agilla_sim --list-knobs` listing, and through it the
//     generated knob table in docs/MANUAL.md (CI docs-consistency gate)
//   - the fallback of every scenario-read knob without auto_default
// Adding a knob means adding ONE entry here; tests/test_api.cpp asserts
// the registry round-trips (settable, readable, listed) and that every
// shared knob's default equals its layer field's initializer.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/deployment.h"

namespace agilla::api {

enum class KnobType : std::uint8_t {
  kDouble,  ///< any real in range
  kInt,     ///< integral values only (enums/counts)
  kBool,    ///< 0 or 1
};

struct KnobInfo {
  const char* name = "";
  KnobType type = KnobType::kDouble;
  /// Unit shown in listings and range errors ("mJ", "fraction", ...).
  const char* unit = "";
  /// Printable default; ignored when auto_default (computed at runtime).
  double def = 0.0;
  bool auto_default = false;
  /// Valid range. min/max are inclusive bounds unless min_open; use
  /// +/-infinity for unbounded sides.
  double min = 0.0;
  double max = 0.0;
  bool min_open = false;
  /// Comma-separated owning scenarios, or "" for the shared set every
  /// mesh-backed scenario understands.
  const char* scenarios = "";
  const char* doc = "";
  /// Writes/reads the layer field inside DeploymentOptions; nullptr for
  /// scenario-read knobs (the scenario fetches them from TrialSpec::param
  /// itself; the fallback is `def`, or a computed value when auto_default).
  void (*apply)(DeploymentOptions&, double) = nullptr;
  double (*read)(const DeploymentOptions&) = nullptr;

  /// True for knobs in the shared mesh set.
  [[nodiscard]] bool shared() const { return scenarios[0] == '\0'; }
  /// True when `scenario` owns this specific (non-shared) knob.
  [[nodiscard]] bool owned_by(std::string_view scenario) const;
};

/// All knobs: scenario-specific first, then the shared mesh set, in
/// stable registration order (the order every listing uses).
[[nodiscard]] const std::vector<KnobInfo>& knob_registry();

/// nullptr when unknown.
[[nodiscard]] const KnobInfo* find_knob(std::string_view name);

[[nodiscard]] std::string_view to_string(KnobType type);

/// "[0, 1]", "(0, inf)", "{0, 1}" (bool) — the range as listings and
/// error messages print it.
[[nodiscard]] std::string range_to_string(const KnobInfo& knob);

/// "auto" or the numeric default, as listings print it.
[[nodiscard]] std::string default_to_string(const KnobInfo& knob);

/// Empty when `value` is valid for `knob`; otherwise a human-readable
/// error naming the offending value, the valid range, and the unit.
[[nodiscard]] std::string validate_knob(const KnobInfo& knob, double value);

/// As above, by name; unknown names are an error too.
[[nodiscard]] std::string validate_knob(std::string_view name, double value);

/// Applies every registry-mapped entry of `params` onto `options`
/// (scenario-read and unknown names are skipped — the CLI has already
/// validated them against the scenario's knob list).
void apply_knobs(DeploymentOptions& options,
                 const std::map<std::string, double>& params);

/// The knob names `scenario` understands: its own specific knobs first,
/// then (unless include_shared is false — store_ops runs no radio) the
/// shared mesh set, both in registry order. This is what scenario
/// registration feeds into ScenarioInfo.knobs.
[[nodiscard]] std::vector<std::string> scenario_knob_names(
    std::string_view scenario, bool include_shared = true);

}  // namespace agilla::api
