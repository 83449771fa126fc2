// agent_dense: a 16x16 mesh where every mote runs a compute-loop agent
// next to a tuple agent. On odd motes the tuple agent writes (out/inp
// churn); on even motes it reads (rdp probes, half of them missing
// against 20 fillers). 20 virtual s in 1 s run_for steps after a 2 s
// warm-up. The radio carries only beacons, so this isolates the VM
// (core.vm) and the tuple store (tuplespace), with writes next to reads.
#include <stdexcept>

#include "api/deployment.h"
#include "core/assembler.h"
#include "suite.h"

namespace bench {
namespace {

using namespace agilla;

std::vector<std::uint8_t> assemble_agent(const std::string& dir,
                                         const char* file) {
  const core::AssemblyResult result = core::assemble_file(dir + "/" + file);
  if (!result.ok()) {
    throw std::runtime_error(result.error_text());
  }
  return result.code;
}

class AgentDense final : public Workload {
 public:
  explicit AgentDense(const Config& config)
      : seed_(config.seed),
        side_(config.smoke ? 6 : 16),
        horizon_s_(config.smoke ? 5 : 20),
        compute_(assemble_agent(config.agents_dir, "compute_loop.aga")),
        writer_(assemble_agent(config.agents_dir, "tuple_writer.aga")),
        reader_(assemble_agent(config.agents_dir, "tuple_reader.aga")) {}

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
    rep.attempted = build();
    rep.setup_s = tick_to_sec(now_tick() - setup_start);

    measure_steps(*mesh_, horizon_s_, rep);
    const std::uint64_t alive = rep.counts["agents.alive"];
    rep.failed = rep.attempted > alive ? rep.attempted - alive : 0;
    if (rep.counts["core.vm.errors"] != 0) {
      rep.errors.push_back("agent_dense: " +
                           std::to_string(rep.counts["core.vm.errors"]) +
                           " agents died of VM errors");
    }
    if (alive != rep.attempted) {
      rep.errors.push_back("agent_dense: " + std::to_string(alive) + " of " +
                           std::to_string(rep.attempted) +
                           " agents alive at the end");
    }
    rep.digest = digest_counts(rep.counts);
    mesh_.reset();
    return rep;
  }

 private:
  /// Builds the mesh, injects both agents on every mote and warms them up
  /// for 2 virtual s. Returns the number of agents injected.
  std::uint64_t build() {
    const trace::Scope span("setup");
    api::SimulationBuilder builder;
    builder.grid(side_, side_).seed(seed_).warmup(2 * sim::kSecond);
    {
      const trace::Scope build_span("api.build");
      mesh_ = builder.build();
    }
    std::uint64_t injected = 0;
    {
      const trace::Scope inject("api.inject");
      for (std::size_t i = 0; i < mesh_->mote_count(); ++i) {
        core::AgillaMiddleware& mote = mesh_->mote(i);
        injected += mote.inject(compute_).has_value() ? 1 : 0;
        injected += mote.inject(i % 2 == 1 ? writer_ : reader_).has_value()
                        ? 1
                        : 0;
      }
    }
    if (injected != 2 * mesh_->mote_count()) {
      throw std::runtime_error("agent_dense: injection refused");
    }
    const trace::Scope warm("sim.warmup");
    mesh_->simulator().run_for(2 * sim::kSecond);
    return injected;
  }

  std::uint64_t seed_;
  std::size_t side_;
  int horizon_s_;
  std::vector<std::uint8_t> compute_;
  std::vector<std::uint8_t> writer_;
  std::vector<std::uint8_t> reader_;
  std::unique_ptr<api::Deployment> mesh_;
};

}  // namespace

std::unique_ptr<Workload> make_agent_dense(const Config& config) {
  return std::make_unique<AgentDense>(config);
}

}  // namespace bench
