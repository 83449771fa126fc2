// The deterministic multi-trial experiment runner.
//
// run_experiment() expands the spec's parameter grid into independent
// trials, executes them on a pool of worker threads (one api::Deployment
// simulation per trial, each seeded from derive_trial_seed), and folds
// the per-trial metrics into per-cell aggregates IN TRIAL ORDER — so the
// result, and its JSON rendering, is a pure function of the spec:
// byte-identical for 1 worker or 64.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/scenario.h"
#include "sim/stats.h"

namespace agilla::harness {

struct RunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned threads = 0;
};

/// Aggregate of one metric across a cell's trials (only the trials that
/// emitted it — e.g. latency of successful migrations).
struct MetricAggregate {
  sim::Summary summary;
};

struct CellResult {
  CellSpec cell;
  int trials = 0;
  /// Ordered by metric name (std::map) => deterministic JSON.
  std::map<std::string, MetricAggregate> metrics;
};

struct ExperimentResult {
  ExperimentSpec spec;
  std::vector<CellResult> cells;
};

/// Runs every trial of `spec` with the registered scenario. Throws
/// std::invalid_argument when spec.scenario is unknown.
[[nodiscard]] ExperimentResult run_experiment(
    const ExperimentSpec& spec, const RunnerOptions& options = {});

/// Deterministic JSON rendering (no wall-clock or thread-count fields).
[[nodiscard]] std::string to_json(const ExperimentResult& result);

}  // namespace agilla::harness
