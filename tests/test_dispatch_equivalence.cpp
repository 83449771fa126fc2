// Cross-dispatch equivalence: the pre-decoded threaded dispatch
// (core/vm_dispatch.h) must be byte-identical in simulated behaviour to
// the reference switch interpreter — same records, same stats, same final
// tuple-space state, same agent registers — over hand-written programs, a
// random-bytecode corpus, and a full harness sweep. Only host-side speed
// may differ (bench_vm_throughput measures that).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "agilla_test_helpers.h"
#include "core/assembler.h"
#include "core/vm_dispatch.h"
#include "harness/runner.h"
#include "net/packet.h"
#include "sim/rng.h"

namespace agilla {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

/// A random program of up to `max_len` bytes; a zero-length draw yields
/// the one-byte `halt` program, since an agent needs at least one byte.
std::vector<std::uint8_t> random_bytes(sim::Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.uniform(max_len + 1);
  if (len == 0) {
    return {0x00};
  }
  std::vector<std::uint8_t> out(len);
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
  const core::VmDispatcher::CacheStats& cache =
      mote.engine().dispatcher().cache_stats();
  out << "leds=" << static_cast<int>(mote.engine().leds())
      << " pool_blocks=" << mote.code_pool().used_blocks()
      << " programs_compiled=" << cache.programs_compiled
      << " cache_hits=" << cache.cache_hits << "\n";
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

/// How many distinct programs the mote's live agents hold.
std::size_t distinct_programs(core::AgillaMiddleware& mote) {
  std::set<const core::DecodedProgram*> programs;
  for (const auto& agent : mote.agents().agents()) {
    programs.insert(agent->program().get());
  }
  return programs.size();
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
      corpus.push_back(random_bytes(rng, 64));
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
  EXPECT_EQ(distinct_programs(mesh.at(0)), 1u);
  const std::weak_ptr<const core::DecodedProgram> shared =
      mesh.at(0).agents().agents().front()->program();

  // A different image compiles separately.
  mesh.at(0).inject(core::assemble_or_die("pushc 2\nsleep\nhalt\n"));
  EXPECT_EQ(mesh.at(0).engine().dispatcher().cache_stats().programs_compiled,
            2u);
  EXPECT_EQ(distinct_programs(mesh.at(0)), 2u);

  // Programs die with their last agent.
  mesh.sim.run_for(60 * sim::kSecond);
  ASSERT_EQ(mesh.at(0).agents().count(), 0u);
  EXPECT_TRUE(shared.expired());
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


// ------------------------------------------------------------ decode table

// What decode_insn() makes of every opcode byte with all operand bytes
// present: the handler class, the instruction length and the fixed-cost
// precharge. The cross-mode tests above cannot catch a misclassified
// byte (both loops decode through the same table), so this pins it.
// Format: "raw class length precharge", four bytes per line.
constexpr const char* kDecodeTable = R"(
00 Halt 1 72 | 01 Loc 1 72 | 02 Aid 1 72 | 03 Rand 1 138
04 NumNbrs 1 72 | 05 Sense 1 120 | 06 Sleep 1 120 | 07 PutLed 1 72
08 Copy 1 72 | 09 Pop 1 72 | 0a Swap 1 72 | 0b Wait 1 120
0c Jumps 1 72 | 0d Depth 1 72 | 0e Clear 1 72 | 0f Cpush 1 72
10 Arith 1 72 | 11 Arith 1 72 | 12 Arith 1 72 | 13 Arith 1 72
14 Not 1 72 | 15 Arith 1 72 | 16 IncDec 1 72 | 17 IncDec 1 72
18 Arith 1 72 | 19 Arith 1 72 | 1a Migrate 1 120 | 1b Migrate 1 120
1c Migrate 1 120 | 1d Migrate 1 120 | 1e Undefined 1 0 | 1f Undefined 1 0
20 GetNbr 1 138 | 21 RandNbr 1 138 | 22 Undefined 1 0 | 23 Undefined 1 0
24 Compare 1 72 | 25 Compare 1 72 | 26 Compare 1 72 | 27 Undefined 1 0
28 Rjump 2 72 | 29 Rjumpc 2 72 | 2a Jump 2 72 | 2b Undefined 1 0
2c Undefined 1 0 | 2d Undefined 1 0 | 2e Undefined 1 0 | 2f Undefined 1 0
30 Undefined 1 0 | 31 Undefined 1 0 | 32 Undefined 1 0 | 33 TupleOp 1 240
34 TupleOp 1 240 | 35 TupleOp 1 240 | 36 TupleOp 1 240 | 37 TupleOp 1 240
38 TupleOp 1 240 | 39 Remote 1 120 | 3a Remote 1 120 | 3b Remote 1 120
3c Undefined 1 0 | 3d Undefined 1 0 | 3e TupleOp 1 138 | 3f TupleOp 1 138
40 GetVar 1 138 | 41 GetVar 1 138 | 42 GetVar 1 138 | 43 GetVar 1 138
44 GetVar 1 138 | 45 GetVar 1 138 | 46 GetVar 1 138 | 47 GetVar 1 138
48 GetVar 1 138 | 49 GetVar 1 138 | 4a GetVar 1 138 | 4b GetVar 1 138
4c Undefined 1 0 | 4d Undefined 1 0 | 4e Undefined 1 0 | 4f Undefined 1 0
50 SetVar 1 138 | 51 SetVar 1 138 | 52 SetVar 1 138 | 53 SetVar 1 138
54 SetVar 1 138 | 55 SetVar 1 138 | 56 SetVar 1 138 | 57 SetVar 1 138
58 SetVar 1 138 | 59 SetVar 1 138 | 5a SetVar 1 138 | 5b SetVar 1 138
5c Undefined 1 0 | 5d Undefined 1 0 | 5e Undefined 1 0 | 5f Undefined 1 0
60 Push 2 72 | 61 Push 3 138 | 62 Push 3 138 | 63 Push 2 138
64 Push 5 138 | 65 Push 2 138 | 66 Undefined 1 0 | 67 Undefined 1 0
68 Undefined 1 0 | 69 Undefined 1 0 | 6a Undefined 1 0 | 6b Undefined 1 0
6c Undefined 1 0 | 6d Undefined 1 0 | 6e Undefined 1 0 | 6f Undefined 1 0
70 Undefined 1 0 | 71 Undefined 1 0 | 72 Undefined 1 0 | 73 Undefined 1 0
74 Undefined 1 0 | 75 Undefined 1 0 | 76 Undefined 1 0 | 77 Undefined 1 0
78 Undefined 1 0 | 79 Undefined 1 0 | 7a Undefined 1 0 | 7b Undefined 1 0
7c Undefined 1 0 | 7d Undefined 1 0 | 7e Undefined 1 0 | 7f Undefined 1 0
80 Undefined 1 0 | 81 Undefined 1 0 | 82 Undefined 1 0 | 83 Undefined 1 0
84 Undefined 1 0 | 85 Undefined 1 0 | 86 Undefined 1 0 | 87 Undefined 1 0
88 Undefined 1 0 | 89 Undefined 1 0 | 8a Undefined 1 0 | 8b Undefined 1 0
8c Undefined 1 0 | 8d Undefined 1 0 | 8e Undefined 1 0 | 8f Undefined 1 0
90 Undefined 1 0 | 91 Undefined 1 0 | 92 Undefined 1 0 | 93 Undefined 1 0
94 Undefined 1 0 | 95 Undefined 1 0 | 96 Undefined 1 0 | 97 Undefined 1 0
98 Undefined 1 0 | 99 Undefined 1 0 | 9a Undefined 1 0 | 9b Undefined 1 0
9c Undefined 1 0 | 9d Undefined 1 0 | 9e Undefined 1 0 | 9f Undefined 1 0
a0 Undefined 1 0 | a1 Undefined 1 0 | a2 Undefined 1 0 | a3 Undefined 1 0
a4 Undefined 1 0 | a5 Undefined 1 0 | a6 Undefined 1 0 | a7 Undefined 1 0
a8 Undefined 1 0 | a9 Undefined 1 0 | aa Undefined 1 0 | ab Undefined 1 0
ac Undefined 1 0 | ad Undefined 1 0 | ae Undefined 1 0 | af Undefined 1 0
b0 Undefined 1 0 | b1 Undefined 1 0 | b2 Undefined 1 0 | b3 Undefined 1 0
b4 Undefined 1 0 | b5 Undefined 1 0 | b6 Undefined 1 0 | b7 Undefined 1 0
b8 Undefined 1 0 | b9 Undefined 1 0 | ba Undefined 1 0 | bb Undefined 1 0
bc Undefined 1 0 | bd Undefined 1 0 | be Undefined 1 0 | bf Undefined 1 0
c0 Undefined 1 0 | c1 Undefined 1 0 | c2 Undefined 1 0 | c3 Undefined 1 0
c4 Undefined 1 0 | c5 Undefined 1 0 | c6 Undefined 1 0 | c7 Undefined 1 0
c8 Undefined 1 0 | c9 Undefined 1 0 | ca Undefined 1 0 | cb Undefined 1 0
cc Undefined 1 0 | cd Undefined 1 0 | ce Undefined 1 0 | cf Undefined 1 0
d0 Undefined 1 0 | d1 Undefined 1 0 | d2 Undefined 1 0 | d3 Undefined 1 0
d4 Undefined 1 0 | d5 Undefined 1 0 | d6 Undefined 1 0 | d7 Undefined 1 0
d8 Undefined 1 0 | d9 Undefined 1 0 | da Undefined 1 0 | db Undefined 1 0
dc Undefined 1 0 | dd Undefined 1 0 | de Undefined 1 0 | df Undefined 1 0
e0 Undefined 1 0 | e1 Undefined 1 0 | e2 Undefined 1 0 | e3 Undefined 1 0
e4 Undefined 1 0 | e5 Undefined 1 0 | e6 Undefined 1 0 | e7 Undefined 1 0
e8 Undefined 1 0 | e9 Undefined 1 0 | ea Undefined 1 0 | eb Undefined 1 0
ec Undefined 1 0 | ed Undefined 1 0 | ee Undefined 1 0 | ef Undefined 1 0
f0 Undefined 1 0 | f1 Undefined 1 0 | f2 Undefined 1 0 | f3 Undefined 1 0
f4 Undefined 1 0 | f5 Undefined 1 0 | f6 Undefined 1 0 | f7 Undefined 1 0
f8 Undefined 1 0 | f9 Undefined 1 0 | fa Undefined 1 0 | fb Undefined 1 0
fc Undefined 1 0 | fd Undefined 1 0 | fe Undefined 1 0 | ff Undefined 1 0
)";

TEST(DecodeTable, EveryByteDecodesAsPinned) {
  static const char* const kClassNames[] = {
#define AGILLA_OP_CLASS_NAME(cls, handler) #cls,
      AGILLA_OP_CLASSES(AGILLA_OP_CLASS_NAME)
#undef AGILLA_OP_CLASS_NAME
  };
  std::ostringstream out;
  out << "\n";
  for (int raw = 0; raw < 256; ++raw) {
    const core::DecodedInsn d =
        core::decode_insn(static_cast<std::uint8_t>(raw), {}, 4);
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%02x %s %u %llu", raw,
                  kClassNames[static_cast<int>(d.cls)], d.length,
                  static_cast<unsigned long long>(d.precharge));
    out << buf << (raw % 4 == 3 ? "\n" : " | ");
  }
  EXPECT_EQ(out.str(), kDecodeTable);
}

TEST(DecodeTable, PushImmediatesFollowTheOperandEncoding) {
  const std::array<std::uint8_t, 4> operand{0x85, 0xff, 0x40, 0x01};
  const auto imm = [&](core::Opcode op) {
    return core::decode_insn(static_cast<std::uint8_t>(op), operand, 4).imm;
  };
  EXPECT_EQ(imm(core::Opcode::kPushc), ts::Value::number(0x85));
  EXPECT_EQ(imm(core::Opcode::kPushcl), ts::Value::number(-123));
  EXPECT_EQ(imm(core::Opcode::kPushn), ts::Value::packed_string(0xff85));
  EXPECT_EQ(imm(core::Opcode::kPusht),
            ts::Value::type_wildcard(static_cast<ts::ValueType>(0x85)));
  EXPECT_EQ(imm(core::Opcode::kPushrt),
            ts::Value::reading_type(static_cast<sim::SensorType>(0x85)));
  EXPECT_EQ(imm(core::Opcode::kPushloc),
            ts::Value::location(sim::Location{net::decode_coordinate(-123),
                                              net::decode_coordinate(0x140)}));
  EXPECT_EQ(imm(core::Opcode::kJump), ts::Value());
}

}  // namespace
}  // namespace agilla
