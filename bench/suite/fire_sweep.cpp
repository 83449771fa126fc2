// fire_sweep: what agilla_sim users run. harness::run_experiment on the
// Sec. 5 fire_tracking scenario: 12x12, loss {0, 0.05}, both stores,
// 120 virtual s per trial, two runner threads. Many small deployments,
// whose time goes to set-up, detector/tracker migration and beacons.
//
// The grid is 12x12 because at 16x16, 20x20 and 24x24 the case study
// never succeeds (success=0, no perimeter marks); at 12x12 every cell
// succeeds, so the sweep measures the workload users actually want.
//
// Trials run through a wrapper scenario registered around the built-in
// ScenarioFn: it times each trial (op_ms_*) and records a harness.trial
// span, and changes no metric, so the sweep JSON is byte-identical to
// `agilla_sim` for the same spec (the outcome digest hashes exactly that
// JSON).
#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "api/deployment.h"
#include "core/agent_library.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "suite.h"

namespace bench {
namespace {

using namespace agilla;

constexpr const char* kWrapped = "bench.fire_tracking";

/// What the wrapper learns from each trial; written by runner threads.
struct TrialLog {
  std::mutex mutex;
  std::vector<std::uint32_t> op_ns;
  std::vector<Tick> done_at;
  std::uint64_t failed = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_lost = 0;
};

TrialLog& trial_log() {
  static TrialLog log;
  return log;
}

void register_wrapper() {
  static const bool registered = [] {
    const harness::ScenarioInfo* inner =
        harness::find_scenario("fire_tracking");
    if (inner == nullptr) {
      return false;
    }
    // Copied before register_scenario grows the registry under `inner`.
    harness::ScenarioFn run = inner->run;
    std::vector<std::string> knobs = inner->knobs;
    return harness::register_scenario(harness::ScenarioInfo{
        kWrapped, "fire_tracking, timed per trial by bench_suite",
        [run](const harness::TrialSpec& trial) {
          const Tick start = now_tick();
          harness::TrialMetrics metrics;
          {
            const trace::Scope span("harness.trial");
            metrics = run(trial);
          }
          const Tick end = now_tick();
          const auto value = [&metrics](const char* key) {
            const auto it = metrics.values.find(key);
            return it == metrics.values.end() ? 0.0 : it->second;
          };
          TrialLog& log = trial_log();
          const std::lock_guard<std::mutex> lock(log.mutex);
          log.op_ns.push_back(op_sample(end - start));
          log.done_at.push_back(end);
          log.failed += value("success") < 1.0 ? 1 : 0;
          log.frames_sent +=
              static_cast<std::uint64_t>(std::llround(value("frames_sent")));
          log.frames_lost +=
              static_cast<std::uint64_t>(std::llround(value("frames_lost")));
          return metrics;
        },
        std::move(knobs)});
  }();
  if (!registered) {
    throw std::runtime_error("cannot register the fire_tracking wrapper");
  }
}

class FireSweep final : public Workload {
 public:
  explicit FireSweep(const Config& config) : config_(config) {
    register_wrapper();
    const std::size_t side = config.smoke ? 6 : 12;
    spec_.name = "fire_tracking";
    spec_.scenario = kWrapped;
    spec_.grids = {{side, side}};
    spec_.loss_rates = {0.0, 0.05};
    spec_.stores = {ts::StoreKind::kLinear, ts::StoreKind::kIndexed};
    spec_.trials = config.smoke ? 1 : 12;
    spec_.base_seed = config.seed;
    spec_.duration = (config.smoke ? 60 : 120) * sim::kSecond;
  }

  const char* op_unit() const override { return "trial"; }
  double tail_percentile() const override { return 95.0; }

  /// One trial-shaped deployment: build (with warm-up) and agent
  /// injection — the set-up every trial of the sweep pays.
  double setup_only() override {
    const Tick start = now_tick();
    const trace::Scope span("setup");
    api::SimulationBuilder builder;
    builder.grid(spec_.grids.front().width, spec_.grids.front().height)
        .packet_loss(spec_.loss_rates.back())
        .seed(config_.seed);
    std::unique_ptr<api::Deployment> mesh;
    {
      const trace::Scope build("api.build");
      mesh = builder.build();
    }
    {
      const trace::Scope inject("api.inject");
      core::BaseStation base = mesh->base();
      base.inject(core::agents::fire_tracker(180, 16));
      base.inject(core::agents::fire_detector({1, 1}, 200, 32));
    }
    return tick_to_sec(now_tick() - start);
  }

  RepResult run_rep() override {
    RepResult rep;
    rep.setup_s = setup_only();
    TrialLog& log = trial_log();
    {
      const std::lock_guard<std::mutex> lock(log.mutex);
      log.op_ns.clear();
      log.done_at.clear();
      log.failed = log.frames_sent = log.frames_lost = 0;
    }
    harness::RunnerOptions runner;
    runner.threads = 2;
    harness::ExperimentResult result;
    const Tick start = now_tick();
    {
      const trace::Scope span("harness.run_experiment");
      result = harness::run_experiment(spec_, runner);
    }
    rep.measured = now_tick() - start;

    const std::lock_guard<std::mutex> lock(log.mutex);
    rep.op_ns = log.op_ns;
    rep.ops = rep.attempted = rep.op_ns.size();
    std::sort(log.done_at.begin(), log.done_at.end());
    for (std::size_t i = 0; i < log.done_at.size(); ++i) {
      rep.progress.emplace_back(log.done_at[i] - start, i + 1);
    }
    rep.failed = log.failed;
    rep.counts["harness.trials"] = rep.ops;
    rep.counts["harness.threads"] = runner.threads;
    rep.counts["net.frames_sent"] = log.frames_sent;
    rep.counts["net.frames_lost"] = log.frames_lost;
    for (const harness::CellResult& cell : result.cells) {
      const auto it = cell.metrics.find("success");
      if (it == cell.metrics.end() || it->second.summary.mean() < 1.0) {
        rep.errors.push_back("fire_sweep: a cell has success < 1");
      }
    }
    // The digest is FNV-1a of the file `agilla_sim --out` writes for the
    // same spec (README.md shows the check).
    result.spec.scenario = "fire_tracking";
    Digest digest;
    digest.add(harness::to_json(result) + "\n");
    rep.digest = digest.value();
    return rep;
  }

 private:
  Config config_;
  harness::ExperimentSpec spec_;
};

}  // namespace

std::unique_ptr<Workload> make_fire_sweep(const Config& config) {
  return std::make_unique<FireSweep>(config);
}

}  // namespace bench
