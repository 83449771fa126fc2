// VM semantics: arithmetic, stack, heap, control flow, lifecycle.
// Agents report results by `out`-ing tuples that the test inspects.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <tuple>
#include <vector>

#include "agilla_test_helpers.h"
#include "core/assembler.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

/// Runs an agent on an isolated node and returns the node's middleware.
struct SingleNode {
  SingleNode() : mesh(MeshOptions{.width = 1, .height = 1}) {}

  AgillaMiddleware& node() { return mesh.at(0); }

  std::optional<AgentId> run(const std::string& source,
                             sim::SimTime for_time = 2 * sim::kSecond) {
    const auto id = node().inject(assemble_or_die(source));
    mesh.sim.run_for(for_time);
    return id;
  }

  std::optional<std::int16_t> result_number() {
    const auto t = node().tuple_space().rdp(
        ts::Template{ts::Value::type_wildcard(ts::ValueType::kNumber)});
    if (!t.has_value()) {
      return std::nullopt;
    }
    return t->field(0).as_number();
  }

  AgillaMesh mesh;
};

TEST(EngineBasic, ArithmeticAdd) {
  SingleNode s;
  s.run("pushc 3\npushc 2\nadd\npushc 1\nout\nhalt");
  EXPECT_EQ(s.result_number(), 5);
}

TEST(EngineBasic, SubIsSecondMinusTop) {
  SingleNode s;
  s.run("pushc 10\npushc 4\nsub\npushc 1\nout\nhalt");
  EXPECT_EQ(s.result_number(), 6);
}

TEST(EngineBasic, MulModAndOrNot) {
  SingleNode s;
  s.run("pushc 7\npushc 3\nmul\npushc 1\nout\nhalt");
  EXPECT_EQ(s.result_number(), 21);

  SingleNode s2;
  s2.run("pushc 17\npushc 5\nmod\npushc 1\nout\nhalt");
  EXPECT_EQ(s2.result_number(), 2);

  SingleNode s3;
  s3.run("pushc 12\npushc 10\nand\npushc 1\nout\nhalt");
  EXPECT_EQ(s3.result_number(), 8);

  SingleNode s4;
  s4.run("pushc 12\npushc 10\nor\npushc 1\nout\nhalt");
  EXPECT_EQ(s4.result_number(), 14);

  SingleNode s5;
  s5.run("pushc 0\nnot\npushc 1\nout\nhalt");
  EXPECT_EQ(s5.result_number(), 1);
}

TEST(EngineBasic, IncDec) {
  SingleNode s;
  s.run("pushc 5\ninc\ninc\ndec\npushc 1\nout\nhalt");
  EXPECT_EQ(s.result_number(), 6);
}

TEST(EngineBasic, ModByZeroKillsAgent) {
  SingleNode s;
  s.run("pushc 5\npushc 0\nmod\npushc 1\nout\nhalt");
  EXPECT_FALSE(s.result_number().has_value());
  EXPECT_EQ(s.node().engine().stats().vm_errors, 1u);
  EXPECT_EQ(s.node().engine().agents().size(), 0u);
}

TEST(EngineBasic, EqPushesBoolean) {
  SingleNode s;
  s.run("pushc 4\npushc 4\neq\npushc 1\nout\nhalt");
  EXPECT_EQ(s.result_number(), 1);
}

TEST(EngineBasic, CltMatchesPaperFig13Semantics) {
  // Fig. 13: sense; pushcl 200; clt => condition = 1 iff temperature > 200.
  // Equivalent numeric program: push 250, push 200, clt -> cond 1.
  SingleNode s;
  s.run(R"(
      pushcl 250
      pushcl 200
      clt
      cpush
      pushc 1
      out
      halt
  )");
  EXPECT_EQ(s.result_number(), 1);

  SingleNode s2;
  s2.run(R"(
      pushcl 150
      pushcl 200
      clt
      cpush
      pushc 1
      out
      halt
  )");
  EXPECT_EQ(s2.result_number(), 0);
}

TEST(EngineBasic, CgtAndCeq) {
  SingleNode s;
  s.run("pushc 5\npushc 9\ncgt\ncpush\npushc 1\nout\nhalt");
  EXPECT_EQ(s.result_number(), 1);  // top(9) > second(5)

  SingleNode s2;
  s2.run("pushc 5\npushc 5\nceq\ncpush\npushc 1\nout\nhalt");
  EXPECT_EQ(s2.result_number(), 1);
}

TEST(EngineBasic, StackOps) {
  SingleNode s;
  s.run("pushc 1\npushc 2\nswap\npop\npushc 1\nout\nhalt");
  EXPECT_EQ(s.result_number(), 2);  // swap put 1 on top; pop removed it

  SingleNode s2;
  s2.run("pushc 6\ncopy\nadd\npushc 1\nout\nhalt");
  EXPECT_EQ(s2.result_number(), 12);

  SingleNode s3;
  s3.run("pushc 1\npushc 2\npushc 3\ndepth\npushc 1\nout\nhalt");
  EXPECT_EQ(s3.result_number(), 3);

  SingleNode s4;
  s4.run("pushc 9\nclear\ndepth\npushc 1\nout\nhalt");
  EXPECT_EQ(s4.result_number(), 0);
}

TEST(EngineBasic, HeapGetSet) {
  SingleNode s;
  s.run("pushc 42\nsetvar 3\ngetvar 3\ngetvar 3\nadd\npushc 1\nout\nhalt");
  EXPECT_EQ(s.result_number(), 84);
}

TEST(EngineBasic, RelativeJumpLoop) {
  // Count down from 3 using a loop, then out the accumulated sum 3+2+1=6.
  SingleNode s;
  s.run(R"(
      pushc 0
      setvar 0       // sum = 0
      pushc 3
      setvar 1       // i = 3
      LOOP getvar 1
      getvar 0
      add
      setvar 0       // sum += i
      getvar 1
      dec
      setvar 1       // i--
      getvar 1
      pushc 0
      cgt            // cond = (0 > i)? no: top=0, second=i -> 0 > i false while i>0
      rjumpc DONE
      rjump LOOP
      DONE getvar 0
      pushc 1
      out
      halt
  )");
  // cgt: cond = top(0) > second(i) -> true when i < 0... loop runs while
  // i >= 0: sum = 3+2+1+0 = 6.
  EXPECT_EQ(s.result_number(), 6);
}

TEST(EngineBasic, AbsoluteJumpAndJumps) {
  SingleNode s;
  s.run(R"(
      jump OVER
      pushc 99
      pushc 1
      out
      halt
      OVER pushc 7
      pushc 1
      out
      halt
  )");
  EXPECT_EQ(s.result_number(), 7);

  SingleNode s2;
  s2.run(R"(
      pushc TARGET
      jumps
      halt
      TARGET pushc 5
      pushc 1
      out
      halt
  )");
  EXPECT_EQ(s2.result_number(), 5);
}

TEST(EngineBasic, HaltFreesAllResources) {
  SingleNode s;
  s.run("halt");
  EXPECT_EQ(s.node().engine().agents().size(), 0u);
  EXPECT_EQ(s.node().code_pool().used_blocks(), 0u);
  EXPECT_EQ(s.node().engine().stats().agents_halted, 1u);
}

TEST(EngineBasic, StackUnderflowKillsAgent) {
  SingleNode s;
  s.run("pop\nhalt");
  EXPECT_EQ(s.node().engine().stats().vm_errors, 1u);
  EXPECT_EQ(s.node().engine().agents().size(), 0u);
}

TEST(EngineBasic, StackOverflowKillsAgent) {
  std::string source;
  for (std::size_t i = 0; i < Agent::kStackDepth + 1; ++i) {
    source += "pushc 1\n";
  }
  source += "halt\n";
  SingleNode s;
  s.run(source);
  EXPECT_EQ(s.node().engine().stats().vm_errors, 1u);
}

TEST(EngineBasic, PcOutOfRangeKillsAgent) {
  SingleNode s;
  s.run("pushc 1");  // falls off the end of code
  EXPECT_EQ(s.node().engine().stats().vm_errors, 1u);
}

TEST(EngineBasic, PutLedDrivesLeds) {
  SingleNode s;
  s.run("pushc 5\nputled\nhalt");
  EXPECT_EQ(s.node().engine().leds(), 5u);
}

TEST(EngineBasic, RandPushesSomething) {
  SingleNode s;
  s.run("rand\npushc 1\nout\nhalt");
  EXPECT_TRUE(s.result_number().has_value());
}

TEST(EngineBasic, SleepDelaysExecution) {
  SingleNode s;
  // Sleep 8 ticks = 1 s, then out.
  s.node().inject(assemble_or_die("pushc 8\nsleep\npushc 1\npushc 1\nout\nhalt"));
  s.mesh.sim.run_for(500 * sim::kMillisecond);
  EXPECT_FALSE(s.result_number().has_value());
  s.mesh.sim.run_for(700 * sim::kMillisecond);
  EXPECT_TRUE(s.result_number().has_value());
}

TEST(EngineBasic, PushclAndPushnValues) {
  SingleNode s;
  s.run("pushcl 4800\npushc 1\nout\nhalt");
  EXPECT_EQ(s.result_number(), 4800);

  SingleNode s2;
  s2.run("pushn fir\npushc 1\nout\nhalt");
  const auto t = s2.node().tuple_space().rdp(
      ts::Template{ts::Value::string("fir")});
  EXPECT_TRUE(t.has_value());
}

TEST(EngineBasic, MultipleAgentsRoundRobin) {
  SingleNode s;
  s.node().inject(assemble_or_die("pushc 1\npushc 1\nout\nhalt"));
  s.node().inject(assemble_or_die("pushc 2\npushc 1\nout\nhalt"));
  s.node().inject(assemble_or_die("pushc 3\npushc 1\nout\nhalt"));
  s.mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_EQ(s.node().tuple_space().tcount(ts::Template{
                ts::Value::type_wildcard(ts::ValueType::kNumber)}),
            3u);
  EXPECT_EQ(s.node().engine().stats().agents_halted, 3u);
}

TEST(EngineBasic, AgentSlotsExhausted) {
  SingleNode s;
  // Default capacity is 4 agents (paper Sec. 3.2); the 5th is rejected.
  const std::string forever = "LOOP pushc 100\nsleep\nrjump LOOP";
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(s.node().inject(assemble_or_die(forever)).has_value());
  }
  EXPECT_FALSE(s.node().inject(assemble_or_die(forever)).has_value());
  EXPECT_EQ(s.node().engine().stats().agents_rejected, 1u);
}

/// Installs `source` as a weakly migrated agent under `id` (reusing the id
/// of an agent that was killed).
bool install_as(AgillaMiddleware& node, AgentId id,
                const std::string& source) {
  AgentImage image;
  image.agent_id = id.value;
  image.op = MigrationOp::kWMove;
  image.code = assemble_or_die(source);
  return node.engine().install(std::move(image), /*reached_dest=*/true);
}

TEST(EngineBasic, KilledSleeperLeavesNoWakeupBehind) {
  SingleNode s;
  // Sleeps 10 s.
  const auto id = s.node().inject(assemble_or_die("pushc 80\nsleep\nhalt"));
  ASSERT_TRUE(id.has_value());
  s.mesh.sim.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(s.node().engine().find(*id)->run_state(),
            AgentRunState::kSleeping);
  const std::size_t armed = s.mesh.sim.pending_events();
  s.node().engine().kill_all_agents();
  EXPECT_EQ(s.mesh.sim.pending_events(), armed - 1);

  // An agent under the same id sleeps its own 20 s: a stale timer of the
  // killed agent would wake it at 10 s.
  ASSERT_TRUE(install_as(s.node(), *id,
                         "pushc 160\nsleep\npushc 1\npushc 1\nout\nhalt"));
  s.mesh.sim.run_for(15 * sim::kSecond);
  EXPECT_FALSE(s.result_number().has_value());
  s.mesh.sim.run_for(6 * sim::kSecond);
  EXPECT_TRUE(s.result_number().has_value());
}

/// Registers a reaction on <"rxn">, then blocks in an rinp that has no
/// route from a lone mote (it times out after 3 x 2 s).
constexpr const char* kBlockedWithReaction = R"(
        pushn rxn
        pushc 1
        pushc HIT
        regrxn
        pusht NUMBER
        pushc 1
        pushloc 9 9
        rinp
        halt
  HIT   halt
)";

TEST(EngineBasic, BlockedAgentGetsItsQueuedReactionOnResume) {
  SingleNode s;
  const auto id = s.node().inject(assemble_or_die(kBlockedWithReaction));
  ASSERT_TRUE(id.has_value());
  s.mesh.sim.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(s.node().engine().find(*id)->run_state(),
            AgentRunState::kBlockedOp);
  s.node().tuple_space().out(ts::Tuple{ts::Value::string("rxn")});
  EXPECT_EQ(s.node().engine().stats().reactions_fired, 0u);  // queued
  s.mesh.sim.run_for(7 * sim::kSecond);  // the rinp times out
  EXPECT_EQ(s.node().engine().stats().reactions_fired, 1u);
  EXPECT_EQ(s.node().engine().agents().size(), 0u);
}

TEST(EngineBasic, PowerDownDropsQueuedReactions) {
  SingleNode s;
  const auto id = s.node().inject(assemble_or_die(kBlockedWithReaction));
  ASSERT_TRUE(id.has_value());
  s.mesh.sim.run_for(100 * sim::kMillisecond);
  s.node().tuple_space().out(ts::Tuple{ts::Value::string("rxn")});
  s.node().tuple_space().out(ts::Tuple{ts::Value::string("rxn")});
  s.node().power_down();
  EXPECT_EQ(s.node().engine().agents().size(), 0u);

  // A queued reaction left behind would be delivered to the next agent
  // made ready under the same id.
  ASSERT_TRUE(install_as(s.node(), *id, "pushc 1\npushc 1\nout\nhalt"));
  s.mesh.sim.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(s.node().engine().stats().reactions_fired, 0u);
  EXPECT_EQ(s.result_number(), 1);
}

TEST(EngineBasic, CodePoolExhaustionRejectsInjection) {
  SingleNode s;
  std::string big;
  for (int i = 0; i < 150; ++i) {
    big += "pushc 1\npop\n";  // 3 bytes per pair -> 450 bytes > 440
  }
  big += "halt\n";
  EXPECT_FALSE(s.node().inject(assemble_or_die(big)).has_value());
}

TEST(EngineBasic, InstructionsCountedInStats) {
  SingleNode s;
  s.run("pushc 1\npushc 2\nadd\npop\nhalt");
  EXPECT_EQ(s.node().engine().stats().instructions, 5u);
}

TEST(EngineBasic, ExecutionTakesSimulatedTime) {
  // 100 simple instructions at ~75 us each need roughly 7-8 ms of virtual
  // time (plus context switches) — not zero, and not tens of ms.
  SingleNode s;
  std::string source;
  for (int i = 0; i < 50; ++i) {
    source += "pushc 1\npop\n";
  }
  source += "halt\n";
  s.node().inject(assemble_or_die(source));
  s.mesh.sim.run_for(5 * sim::kMillisecond);
  EXPECT_EQ(s.node().engine().stats().agents_halted, 0u);
  s.mesh.sim.run_for(15 * sim::kMillisecond);
  EXPECT_EQ(s.node().engine().stats().agents_halted, 1u);
}

// ---------------------------------------------------------------------------
// opcode_profile(): the data behind bench_fig12_local_ops. The expected maps
// are literals, so any change to how the engine keys or charges its profile
// (getvar/setvar folding, the blocked in/rd probe, truncated and undefined
// bytes) shows up here under both dispatch modes.

/// (raw opcode byte, count, total simulated cost), ascending by byte.
using ProfileRow = std::tuple<int, std::uint64_t, sim::SimTime>;

std::vector<ProfileRow> sorted_profile(const AgillaEngine& engine) {
  std::vector<ProfileRow> rows;
  for (const auto& [raw, entry] : engine.opcode_profile()) {
    rows.emplace_back(raw, entry.count, entry.total_cost);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Injects every program in `agents` on a lone node, runs a second,
/// applies `then` (if any) and runs another second.
std::vector<ProfileRow> profile_after(
    DispatchMode mode, const std::vector<std::vector<std::uint8_t>>& agents,
    const std::function<void(AgillaMesh&)>& then = {}) {
  MeshOptions options{.width = 1, .height = 1};
  options.config.engine.dispatch = mode;
  AgillaMesh mesh(options);
  for (const auto& code : agents) {
    EXPECT_TRUE(mesh.at(0).inject(code).has_value());
  }
  mesh.sim.run_for(1 * sim::kSecond);
  if (then) {
    then(mesh);
    mesh.sim.run_for(1 * sim::kSecond);
  }
  return sorted_profile(mesh.at(0).engine());
}

class OpcodeProfilePin : public ::testing::TestWithParam<DispatchMode> {};

TEST_P(OpcodeProfilePin, GetVarAndSetVarFoldOntoTheirBase) {
  const auto rows = profile_after(
      GetParam(), {assemble_or_die("pushc 9\nsetvar 7\ngetvar 7\nsetvar 3\n"
                                   "getvar 3\ngetvar 3\nadd\nsetvar 11\n"
                                   "halt")});
  EXPECT_EQ(rows, (std::vector<ProfileRow>{{0x00, 1, 0},
                                           {0x10, 1, 72},
                                           {0x40, 3, 414},
                                           {0x50, 3, 414},
                                           {0x60, 1, 72}}));
}

TEST_P(OpcodeProfilePin, BlockedInProbesAreProfiled) {
  // The first insertion does not match, so the woken agent re-probes and
  // blocks again; the second one satisfies it.
  const auto rows = profile_after(
      GetParam(),
      {assemble_or_die("pusht NUMBER\npushc 1\nin\npushc 1\nout\nhalt")},
      [](AgillaMesh& mesh) {
        mesh.at(0).tuple_space().out(ts::Tuple{ts::Value::string("no")});
        mesh.sim.run_for(1 * sim::kSecond);
        mesh.at(0).tuple_space().out(ts::Tuple{ts::Value::number(55)});
      });
  EXPECT_EQ(rows, (std::vector<ProfileRow>{{0x00, 1, 0},
                                           {0x33, 1, 242},
                                           {0x36, 3, 809},
                                           {0x60, 2, 144},
                                           {0x63, 1, 138}}));
}

TEST_P(OpcodeProfilePin, TruncatedPushclKeysOnItsOpcode) {
  // pushc 1, then a pushcl with one of its two operand bytes.
  const auto rows = profile_after(GetParam(), {{0x60, 0x01, 0x61, 0x02}});
  EXPECT_EQ(rows, (std::vector<ProfileRow>{{0x60, 1, 72}, {0x61, 1, 0}}));
}

TEST_P(OpcodeProfilePin, UndefinedBytesKeepTheirRawKey) {
  // 0x4c sits just past getvar's twelve slots; 0xff twice.
  const auto rows = profile_after(
      GetParam(), {{0x60, 0x05, 0xff}, {0xff}, {0x60, 0x01, 0x4c}});
  EXPECT_EQ(rows, (std::vector<ProfileRow>{
                      {0x4c, 1, 0}, {0x60, 2, 144}, {0xff, 2, 0}}));
}

TEST_P(OpcodeProfilePin, EmptyUntilAnAgentIsAdmitted) {
  MeshOptions options{.width = 1, .height = 1};
  options.config.engine.dispatch = GetParam();
  AgillaMesh mesh(options);
  // An image larger than the code pool is refused before admission.
  EXPECT_FALSE(
      mesh.at(0).inject(std::vector<std::uint8_t>(1024, 0x00)).has_value());
  mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_EQ(mesh.at(0).engine().stats().agents_rejected, 1u);
  EXPECT_TRUE(mesh.at(0).engine().opcode_profile().empty());
}

TEST_P(OpcodeProfilePin, KillingEveryAgentKeepsTheProfile) {
  std::vector<ProfileRow> at_kill;
  const auto rows = profile_after(
      GetParam(), {assemble_or_die("LOOP pushc 1\npop\nrjump LOOP")},
      [&](AgillaMesh& mesh) {
        at_kill = sorted_profile(mesh.at(0).engine());
        mesh.at(0).engine().kill_all_agents();
        EXPECT_FALSE(mesh.at(0).engine().busy());
      });
  EXPECT_EQ(at_kill.size(), 3u);
  EXPECT_EQ(rows, at_kill);
}

INSTANTIATE_TEST_SUITE_P(BothDispatchModes, OpcodeProfilePin,
                         ::testing::Values(DispatchMode::kSwitch,
                                           DispatchMode::kThreaded));

}  // namespace
}  // namespace agilla::core
