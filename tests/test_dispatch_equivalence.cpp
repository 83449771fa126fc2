// Cross-dispatch equivalence: the pre-decoded threaded dispatch
// (core/vm_dispatch.h) must be byte-identical in simulated behaviour to
// the reference switch interpreter — same records, same stats, same final
// tuple-space state, same agent registers — over hand-written programs, a
// random-bytecode corpus, and a full harness sweep. Only host-side speed
// may differ (bench_vm_throughput measures that).
#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "agilla_test_helpers.h"
#include "core/assembler.h"
#include "core/vm_dispatch.h"
#include "harness/runner.h"
#include "sim/rng.h"

namespace agilla {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

std::vector<std::uint8_t> random_bytes(sim::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.uniform(max_len + 1));
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.uniform(256));
  }
  return out;
}

/// Everything observable about one mote after a run, rendered to text so
/// failures diff readably.
std::string observable_state(core::AgillaMiddleware& mote) {
  std::ostringstream out;
  const core::EngineStats& s = mote.engine().stats();
  out << "instructions=" << s.instructions << " slices=" << s.slices
      << " vm_errors=" << s.vm_errors << " launched=" << s.agents_launched
      << " halted=" << s.agents_halted
      << " installed=" << s.agents_installed
      << " rejected=" << s.agents_rejected
      << " migrations=" << s.migrations_started << "/"
      << s.migrations_failed << " remote=" << s.remote_ops
      << " reactions=" << s.reactions_fired << "\n";
  out << "leds=" << static_cast<int>(mote.engine().leds())
      << " pool_blocks=" << mote.code_pool().used_blocks() << "\n";
  for (const auto& agent : mote.agents().agents()) {
    out << "agent#" << agent->id().value << " pc=" << agent->pc()
        << " cond=" << agent->condition()
        << " state=" << core::to_string(agent->run_state())
        << " stack=[";
    for (const ts::Value& v : agent->stack()) {
      out << v.to_string() << ",";
    }
    out << "] heap=[";
    for (const auto& [slot, value] : agent->heap_entries()) {
      out << static_cast<int>(slot) << ":" << value.to_string() << ",";
    }
    out << "]\n";
  }
  for (const ts::Tuple& tuple : mote.tuple_space().store().snapshot()) {
    out << "tuple " << tuple.to_string() << "\n";
  }
  return out.str();
}

/// Runs `programs` on a fresh mesh under `mode` and returns the merged
/// observable state of every mote, then the mesh's whole record log.
std::string run_mesh(core::DispatchMode mode,
                     const std::vector<std::vector<std::uint8_t>>& programs,
                     std::size_t width, std::size_t height,
                     sim::SimTime duration) {
  MeshOptions options;
  options.width = width;
  options.height = height;
  options.seed = 7;
  options.config.engine.dispatch = mode;
  AgillaMesh mesh(options);
  mesh.warm();
  for (const auto& program : programs) {
    mesh.at(0).inject(program);
  }
  mesh.sim.run_for(duration);
  std::string merged;
  for (std::size_t i = 0; i < mesh.nodes.size(); ++i) {
    merged += "--- node " + std::to_string(i) + "\n";
    merged += observable_state(mesh.at(i));
  }
  for (const sim::Event& event : mesh.events.records) {
    merged += testing::to_text(event) + "\n";
  }
  return merged;
}

// ---------------------------------------------------------------- programs

// Touch every subsystem a slice can reach: arithmetic, heap, tuple ops,
// reactions, sleep, clone-migration, LEDs, sensing.
const char* const kPrograms[] = {
    // arithmetic + heap round trip, then halt
    "pushc 21\npushc 2\nmul\nsetvar 3\ngetvar 3\npushc 14\nadd\n"
    "setvar 4\nhalt\n",
    // tuple out, blocking in, re-out, rd, halt
    "pushc 9\npushc 1\nout\npusht NUMBER\npushc 1\nin\npushc 1\nout\n"
    "pusht NUMBER\npushc 1\nrd\nhalt\n",
    // sleep then LED
    "pushc 3\nsleep\npushc 7\nputled\nhalt\n",
    // registered reaction + wait; a later out fires the handler
    "pushc 1\npushc 50\nregrxn\npushc 50\npushc 1\nout\nwait\n",
    // sense + comparisons + conditional jump loop
    "pushc 1\nsense\npushc 0\ncgt\npushcl 0\nrjumpc SKIP\npushc 1\n"
    "SKIP pushc 2\nhalt\n",
    // clone to own location (local fork), both halt
    "loc\nwclone\nhalt\n",
    // stack churn: copy/swap/depth/clear
    "pushc 1\npushc 2\ncopy\nswap\ndepth\nclear\nhalt\n",
};

TEST(DispatchEquivalence, HandWrittenProgramsByteIdentical) {
  std::vector<std::vector<std::uint8_t>> programs;
  for (const char* source : kPrograms) {
    programs.push_back(core::assemble_or_die(source));
  }
  for (const auto& program : programs) {
    const std::vector<std::vector<std::uint8_t>> one = {program};
    EXPECT_EQ(
        run_mesh(core::DispatchMode::kSwitch, one, 1, 1, 30 * sim::kSecond),
        run_mesh(core::DispatchMode::kThreaded, one, 1, 1,
                 30 * sim::kSecond));
  }
  // All together on one mote: round-robin interleaving must match too.
  EXPECT_EQ(run_mesh(core::DispatchMode::kSwitch, programs, 1, 1,
                     30 * sim::kSecond),
            run_mesh(core::DispatchMode::kThreaded, programs, 1, 1,
                     30 * sim::kSecond));
}

TEST(DispatchEquivalence, MigratingAgentByteIdentical) {
  // A strong move across a 2x2 mesh exercises serialization, install, and
  // the arrival-side pre-decode.
  const auto program = core::assemble_or_die(
      "pushloc 2 2\nsmove\npushc 5\npushc 1\nout\nhalt\n");
  const std::vector<std::vector<std::uint8_t>> programs = {program};
  EXPECT_EQ(run_mesh(core::DispatchMode::kSwitch, programs, 2, 2,
                     40 * sim::kSecond),
            run_mesh(core::DispatchMode::kThreaded, programs, 2, 2,
                     40 * sim::kSecond));
}

TEST(DispatchEquivalence, RandomBytecodeCorpusByteIdentical) {
  // The fuzz corpus hits undefined opcodes, truncated instructions, jump
  // targets in the middle of instructions, and stack errors — exactly the
  // paths where a pre-decoder could diverge from fetch-at-pc semantics.
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    sim::Rng rng(seed);
    std::vector<std::vector<std::uint8_t>> corpus;
    for (int i = 0; i < 40; ++i) {
      auto code = random_bytes(rng, 64);
      if (code.empty()) {
        code.push_back(0x00);
      }
      corpus.push_back(std::move(code));
    }
    for (const auto& program : corpus) {
      const std::vector<std::vector<std::uint8_t>> one = {program};
      ASSERT_EQ(run_mesh(core::DispatchMode::kSwitch, one, 1, 1,
                         10 * sim::kSecond),
                run_mesh(core::DispatchMode::kThreaded, one, 1, 1,
                         10 * sim::kSecond))
          << "seed " << seed;
    }
  }
}

TEST(DispatchEquivalence, TemplateCacheReusedAcrossClones) {
  MeshOptions options;
  options.width = 1;
  options.height = 1;
  AgillaMesh mesh(options);
  const auto program = core::assemble_or_die("pushc 1\nsleep\nhalt\n");
  mesh.at(0).inject(program);
  mesh.at(0).inject(program);
  mesh.at(0).inject(program);
  const core::VmDispatcher::CacheStats stats =
      mesh.at(0).engine().dispatcher().cache_stats();
  EXPECT_EQ(stats.programs_compiled, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(mesh.at(0).engine().dispatcher().cached_programs(), 1u);

  // A different image compiles separately.
  mesh.at(0).inject(core::assemble_or_die("pushc 2\nsleep\nhalt\n"));
  EXPECT_EQ(mesh.at(0).engine().dispatcher().cache_stats().programs_compiled,
            2u);

  // Templates are released with their last agent.
  mesh.sim.run_for(60 * sim::kSecond);
  ASSERT_EQ(mesh.at(0).agents().count(), 0u);
  EXPECT_EQ(mesh.at(0).engine().dispatcher().cached_programs(), 0u);
}

TEST(DispatchEquivalence, SwitchModeCompilesNothing) {
  MeshOptions options;
  options.width = 1;
  options.height = 1;
  options.config.engine.dispatch = core::DispatchMode::kSwitch;
  AgillaMesh mesh(options);
  mesh.at(0).inject(core::assemble_or_die("pushc 1\nsleep\nhalt\n"));
  EXPECT_EQ(mesh.at(0).engine().dispatcher().cache_stats().programs_compiled,
            0u);
  EXPECT_EQ(mesh.at(0).engine().dispatcher().cached_programs(), 0u);
}

TEST(DispatchEquivalence, BatchSizeDoesNotChangeOutcomes) {
  // batch_slices amortizes host-side event overhead. Every slice still
  // charges its full simulated cost, but a batch advances the clock once
  // at its end, so timer *timestamps* may land microseconds apart across
  // batch sizes. All outcomes — instruction counts, final registers,
  // tuple-space state — must be invariant.
  std::vector<std::vector<std::uint8_t>> programs;
  for (const char* source : kPrograms) {
    programs.push_back(core::assemble_or_die(source));
  }
  auto run_with_batch = [&](std::size_t batch) {
    MeshOptions options;
    options.width = 1;
    options.height = 1;
    options.seed = 7;
    options.config.engine.batch_slices = batch;
    AgillaMesh mesh(options);
    mesh.warm();
    for (const auto& program : programs) {
      mesh.at(0).inject(program);
    }
    mesh.sim.run_for(30 * sim::kSecond);
    return observable_state(mesh.at(0));
  };
  const std::string batch1 = run_with_batch(1);
  EXPECT_EQ(batch1, run_with_batch(8));
  EXPECT_EQ(batch1, run_with_batch(64));
}

// ---------------------------------------------------------------- harness

/// The runner echoes every spec param into the JSON; the vm_dispatch line
/// is the one *intended* difference between the two sweeps, so strip it
/// before comparing.
std::string strip_dispatch_param(std::string json) {
  return std::regex_replace(
      json, std::regex("[ \t]*\"vm_dispatch\": [0-9]+,?\n"), "");
}

TEST(DispatchEquivalence, FireTrackingSweepByteIdenticalAcrossModes) {
  harness::ExperimentSpec spec;
  spec.name = "dispatch_equivalence";
  spec.scenario = "fire_tracking";
  spec.grids = {{3, 3}};
  spec.loss_rates = {0.0, 0.05};
  spec.trials = 2;
  spec.duration = 30 * sim::kSecond;

  spec.params["vm_dispatch"] = 0.0;
  const std::string sw = strip_dispatch_param(to_json(
      harness::run_experiment(spec, harness::RunnerOptions{.threads = 1})));
  spec.params["vm_dispatch"] = 1.0;
  const std::string th = strip_dispatch_param(to_json(
      harness::run_experiment(spec, harness::RunnerOptions{.threads = 1})));
  EXPECT_EQ(sw, th);

  // And the observer/threading determinism guarantee holds in the new
  // default mode: 1 worker vs 8 workers, byte-identical JSON.
  const std::string th8 = strip_dispatch_param(to_json(
      harness::run_experiment(spec, harness::RunnerOptions{.threads = 8})));
  EXPECT_EQ(th, th8);
}

}  // namespace
}  // namespace agilla
