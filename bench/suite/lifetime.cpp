// lifetime_100: the network_lifetime deployment and agents on a 100x100
// mesh (10,000 motes): fire detector flood plus tracker, detectors
// re-alerting every 4 s (alert_repeat_s 4). Batteries hold 4000 mJ, so
// no node dies within the run and every rep simulates the same mesh.
// sim_shards=2 keeps the load at two busy threads; the outcome is
// identical at any shard count. 100 virtual s in 1 s run_for steps.
//
// Event-queue, radio and beacon work dominate; the VM does little. This
// is the workload for the sim and net layers at scale.
#include <algorithm>
#include <cmath>

#include "api/deployment.h"
#include "core/agent_library.h"
#include "suite.h"

namespace bench {
namespace {

using namespace agilla;

class Lifetime final : public Workload {
 public:
  explicit Lifetime(const Config& config)
      : seed_(config.seed),
        side_(config.smoke ? 16 : 100),
        horizon_s_(config.smoke ? 20 : 100),
        shards_(config.shards != 0 ? config.shards : 2) {}

  const char* op_unit() const override { return "virtual s"; }
  double tail_percentile() const override { return 90.0; }

  double setup_only() override {
    const Tick start = now_tick();
    build();
    const double seconds = tick_to_sec(now_tick() - start);
    mesh_.reset();
    return seconds;
  }

  RepResult run_rep() override {
    RepResult rep;
    const Tick setup_start = now_tick();
    build();
    rep.setup_s = tick_to_sec(now_tick() - setup_start);

    measure_steps(*mesh_, horizon_s_, rep);
    rep.attempted = rep.ops;
    const std::uint64_t deaths = mesh_->death_log().size();
    if (deaths != 0) {
      rep.errors.push_back("lifetime_100: " + std::to_string(deaths) +
                           " nodes died; the batteries are sized for none");
      rep.failed = rep.attempted;
    }
    rep.digest = digest_counts(rep.counts);
    mesh_.reset();
    return rep;
  }

 private:
  /// Build with warm-up, the burning world, and the two agents.
  void build() {
    const trace::Scope span("setup");
    api::SimulationBuilder builder;
    builder.grid(side_, side_)
        .seed(seed_)
        .set("battery_mj", 4000.0)
        .set("sim_shards", static_cast<double>(shards_));
    {
      const trace::Scope build_span("api.build");
      mesh_ = builder.build();
    }
    const trace::Scope inject("api.inject");
    // The network_lifetime world: ignition at the far corner 15 s after
    // injection, the front crossing ~80% of the diagonal by the end.
    const sim::SimTime inject_time = mesh_->simulator().now();
    const double side = static_cast<double>(side_);
    const double diagonal = std::hypot(side - 1.0, side - 1.0);
    mesh_->environment().set_field(
        sim::SensorType::kTemperature,
        std::make_unique<sim::FireField>(sim::FireField::Options{
            .ignition_point = {side, side},
            .ignition_time = inject_time + 15 * sim::kSecond,
            .extinction_time = 0,
            .spread_speed = 0.8 * std::max(diagonal, 1.0) /
                            std::max(horizon_s_ - 15.0, 10.0),
            .peak = 500.0,
            .ambient = 25.0,
            .edge_decay = 0.45,
            .ring_width = 1.6,
            .burned_over = 40.0}));
    core::BaseStation base = mesh_->base();
    base.inject(core::agents::fire_tracker(180, 16));
    base.inject(core::agents::fire_detector({1, 1}, 200, 32, 32));
  }

  std::uint64_t seed_;
  std::size_t side_;
  int horizon_s_;
  std::size_t shards_;
  std::unique_ptr<api::Deployment> mesh_;
};

}  // namespace

std::unique_ptr<Workload> make_lifetime(const Config& config) {
  return std::make_unique<Lifetime>(config);
}

}  // namespace bench
