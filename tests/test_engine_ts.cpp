// Tuple-space instruction semantics: out/inp/rdp/tcount, blocking in/rd,
// reactions (regrxn/deregrxn/wait), and context tuples.
#include <gtest/gtest.h>

#include "agilla_test_helpers.h"
#include "core/assembler.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

struct SingleNode {
  SingleNode() : mesh(MeshOptions{.width = 1, .height = 1}) {
    mesh.env.set_field(sim::SensorType::kTemperature,
                       std::make_unique<sim::ConstantField>(25.0));
  }

  AgillaMiddleware& node() { return mesh.at(0); }
  ts::TupleSpace& space() { return node().tuple_space(); }

  void run(const std::string& source,
           sim::SimTime for_time = 2 * sim::kSecond) {
    node().inject(assemble_or_die(source));
    mesh.sim.run_for(for_time);
  }

  AgillaMesh mesh;
};

TEST(EngineTs, OutBuildsTupleInPushOrder) {
  SingleNode s;
  s.run("pushn fir\nloc\npushc 2\nout\nhalt");
  const auto t = s.space().rdp(ts::Template{
      ts::Value::string("fir"), ts::Value::type_wildcard(
                                    ts::ValueType::kLocation)});
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->field(0), ts::Value::string("fir"));
  EXPECT_EQ(t->field(1).as_location(), (sim::Location{1, 1}));
}

TEST(EngineTs, InpRemovesAndSetsCondition) {
  SingleNode s;
  s.space().out(ts::Tuple{ts::Value::number(7)});
  s.run(R"(
      pusht NUMBER
      pushc 1
      inp            // removes <7>, pushes field, cond=1
      pushc 1
      out            // re-insert what we grabbed as proof
      cpush
      pushn chk
      swap
      pushc 2
      out            // <"chk", cond>
      halt
  )");
  const auto got = s.space().rdp(ts::Template{ts::Value::number(7)});
  EXPECT_TRUE(got.has_value());
  const auto chk = s.space().rdp(ts::Template{
      ts::Value::string("chk"), ts::Value::type_wildcard(
                                    ts::ValueType::kNumber)});
  ASSERT_TRUE(chk.has_value());
  EXPECT_EQ(chk->field(1).as_number(), 1);
}

TEST(EngineTs, FailedInpSetsConditionZero) {
  SingleNode s;
  s.run(R"(
      pusht NUMBER
      pushc 1
      inp
      cpush
      pushn chk
      swap
      pushc 2
      out
      halt
  )");
  const auto chk = s.space().rdp(ts::Template{
      ts::Value::string("chk"), ts::Value::type_wildcard(
                                    ts::ValueType::kNumber)});
  ASSERT_TRUE(chk.has_value());
  EXPECT_EQ(chk->field(1).as_number(), 0);
}

TEST(EngineTs, RdpCopiesWithoutRemoving) {
  SingleNode s;
  s.space().out(ts::Tuple{ts::Value::number(9)});
  s.run("pusht NUMBER\npushc 1\nrdp\npop\nhalt");
  EXPECT_EQ(s.space().tcount(ts::Template{ts::Value::number(9)}), 1u);
}

TEST(EngineTs, TCountCounts) {
  SingleNode s;
  s.space().out(ts::Tuple{ts::Value::number(1)});
  s.space().out(ts::Tuple{ts::Value::number(1)});
  s.space().out(ts::Tuple{ts::Value::number(2)});
  s.run(R"(
      pusht NUMBER
      pushc 1
      tcount
      pushn cnt
      swap
      pushc 2
      out
      halt
  )");
  const auto chk = s.space().rdp(ts::Template{
      ts::Value::string("cnt"), ts::Value::type_wildcard(
                                    ts::ValueType::kNumber)});
  ASSERT_TRUE(chk.has_value());
  EXPECT_EQ(chk->field(1).as_number(), 3);
}

TEST(EngineTs, BlockingInWaitsForInsertion) {
  SingleNode s;
  // Agent A blocks in `in` for a number; later a test-inserted tuple wakes
  // it, and it republishes the value tagged "got".
  s.node().inject(assemble_or_die(R"(
      pusht NUMBER
      pushc 1
      in
      pushn got
      swap
      pushc 2
      out
      halt
  )"));
  s.mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_EQ(s.node().engine().agents().size(), 1u);  // still blocked
  s.space().out(ts::Tuple{ts::Value::number(55)});
  s.mesh.sim.run_for(1 * sim::kSecond);
  const auto got = s.space().rdp(ts::Template{
      ts::Value::string("got"), ts::Value::number(55)});
  EXPECT_TRUE(got.has_value());
  EXPECT_EQ(s.node().engine().agents().size(), 0u);
  // The matched tuple was REMOVED by `in`.
  EXPECT_EQ(s.space().tcount(ts::Template{ts::Value::number(55)}), 0u);
}

TEST(EngineTs, BlockingRdLeavesTuple) {
  SingleNode s;
  s.node().inject(assemble_or_die(R"(
      pusht NUMBER
      pushc 1
      rd
      pushn got
      swap
      pushc 2
      out
      halt
  )"));
  s.mesh.sim.run_for(500 * sim::kMillisecond);
  s.space().out(ts::Tuple{ts::Value::number(66)});
  s.mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_EQ(s.space().tcount(ts::Template{ts::Value::number(66)}), 1u);
  EXPECT_TRUE(s.space()
                  .rdp(ts::Template{ts::Value::string("got"),
                                    ts::Value::number(66)})
                  .has_value());
}

TEST(EngineTs, BlockedAgentIgnoresNonMatchingInsertions) {
  SingleNode s;
  s.node().inject(assemble_or_die(R"(
      pushn key
      pusht NUMBER
      pushc 2
      in
      pop
      pop
      pushn yes
      pushc 1
      out
      halt
  )"));
  s.mesh.sim.run_for(500 * sim::kMillisecond);
  s.space().out(ts::Tuple{ts::Value::number(1)});  // wrong shape
  s.mesh.sim.run_for(500 * sim::kMillisecond);
  EXPECT_EQ(s.node().engine().agents().size(), 1u);  // still blocked
  s.space().out(ts::Tuple{ts::Value::string("key"), ts::Value::number(2)});
  s.mesh.sim.run_for(500 * sim::kMillisecond);
  EXPECT_TRUE(s.space()
                  .rdp(ts::Template{ts::Value::string("yes")})
                  .has_value());
}

TEST(EngineTs, ReactionFiresOnInsert) {
  SingleNode s;
  // Paper Fig. 2 pattern: register, wait; the reaction handler republishes
  // the alert location under "rx".
  s.node().inject(assemble_or_die(R"(
      BEGIN pushn fir
            pusht LOCATION
            pushc 2
            pushc FIRE
            regrxn
            wait
      FIRE  pop          // drop "fir" (field 0 is on top)
            pushn rx
            swap
            pushc 2
            out          // <"rx", location>
            halt
  )"));
  s.mesh.sim.run_for(500 * sim::kMillisecond);
  s.space().out(
      ts::Tuple{ts::Value::string("fir"), ts::Value::location({4, 2})});
  s.mesh.sim.run_for(1 * sim::kSecond);
  const auto rx = s.space().rdp(ts::Template{
      ts::Value::string("rx"), ts::Value::location({4, 2})});
  EXPECT_TRUE(rx.has_value());
  EXPECT_EQ(s.node().engine().stats().reactions_fired, 1u);
}

TEST(EngineTs, OutThatKillsItsWriterStopsTheWriter) {
  // Two of the agent's own reactions match the tuple it writes. With 14
  // values left on its stack, the first delivery (pc + one field) fills
  // it and the second overflows it, which kills the agent inside `out`:
  // exactly one VM error, and nothing touches the dead agent.
  const char* const kSource = R"(
      pushn abc
      pushc 1
      pushc RX
      regrxn
      pusht STRING
      pushc 1
      pushc RX
      regrxn
      pushc 1
      pushc 2
      pushc 3
      pushc 4
      pushc 5
      pushc 6
      pushc 7
      pushc 8
      pushc 9
      pushc 10
      pushc 11
      pushc 12
      pushc 13
      pushc 14
      pushn abc
      pushc 1
      out
      halt
  RX  halt
  )";
  for (const DispatchMode mode :
       {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
    AgillaConfig config;
    config.engine.dispatch = mode;
    AgillaMesh mesh(MeshOptions{.width = 1, .height = 1, .config = config});
    mesh.at(0).inject(assemble_or_die(kSource));
    mesh.sim.run_for(1 * sim::kSecond);
    const EngineStats& stats = mesh.at(0).engine().stats();
    EXPECT_EQ(stats.agents_launched, 1u) << to_string(mode);
    EXPECT_EQ(stats.vm_errors, 1u) << to_string(mode);
    EXPECT_EQ(mesh.at(0).engine().agents().size(), 0u) << to_string(mode);
  }
}

/// 14 values under a 1-field reaction: delivering it (pc + two fields)
/// overflows the 16-entry stack.
constexpr const char* kFourteenValues = R"(
      pushc 1
      pushc 1
      pushc 1
      pushc 1
      pushc 1
      pushc 1
      pushc 1
      pushc 1
      pushc 1
      pushc 1
      pushc 1
      pushc 1
      pushc 1
      pushc 1
)";

TEST(EngineTs, WakeUpWalkSurvivesAnAgentItKills) {
  // Three agents, in creation order: a victim and a reader blocked in
  // in/rd, then a writer. The writer's <"a", 0> queues the victim's
  // reaction; waking the victim delivers it onto 14 stacked values and
  // kills it in the middle of the wake-up walk, which must still wake the
  // reader behind it.
  const std::string victim = std::string(R"(
      pushn a
      pusht NUMBER
      pushc 2
      pushc RX
      regrxn
  )") + kFourteenValues + R"(
      pushn b
      pushc 1
      in          // <"b"> never comes
      halt
  RX  jumps
  )";
  const std::string reader = R"(
      pushn a
      pusht NUMBER
      pushc 2
      rd          // woken by the same insertion
      pushn got
      pushc 1
      out
      halt
  )";
  const std::string writer = R"(
      pushc 8
      sleep
      pushn a
      pushc 0
      pushc 2
      out
      pushn don
      pushc 1
      out
      halt
  )";
  for (const DispatchMode mode :
       {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
    AgillaConfig config;
    config.engine.dispatch = mode;
    AgillaMesh mesh(MeshOptions{.width = 1, .height = 1, .config = config});
    for (const std::string& source : {victim, reader, writer}) {
      ASSERT_TRUE(mesh.at(0).inject(assemble_or_die(source)).has_value());
    }
    mesh.sim.run_for(3 * sim::kSecond);
    const EngineStats& stats = mesh.at(0).engine().stats();
    EXPECT_EQ(stats.vm_errors, 1u) << to_string(mode);
    EXPECT_EQ(stats.agents_halted, 2u) << to_string(mode);
    EXPECT_EQ(mesh.at(0).engine().agents().size(), 0u) << to_string(mode);
    ts::TupleSpace& space = mesh.at(0).tuple_space();
    EXPECT_TRUE(space.rdp(ts::Template{ts::Value::string("got")})
                    .has_value())
        << to_string(mode);
    EXPECT_TRUE(space.rdp(ts::Template{ts::Value::string("don")})
                    .has_value())
        << to_string(mode);
  }
}

TEST(EngineTs, ReactionThatKillsAWaitingAgentWakesNothing) {
  // An agent in `wait` over 14 stacked values: the reaction that should
  // resume it overflows its stack instead, and the engine must not go on
  // to resume the agent it just freed.
  const std::string waiter = std::string(R"(
      pushn a
      pusht NUMBER
      pushc 2
      pushc RX
      regrxn
  )") + kFourteenValues + R"(
      wait
      halt
  RX  jumps
  )";
  for (const DispatchMode mode :
       {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
    AgillaConfig config;
    config.engine.dispatch = mode;
    AgillaMesh mesh(MeshOptions{.width = 1, .height = 1, .config = config});
    ASSERT_TRUE(mesh.at(0).inject(assemble_or_die(waiter)).has_value());
    mesh.sim.run_for(500 * sim::kMillisecond);
    mesh.at(0).tuple_space().out(
        ts::Tuple{ts::Value::string("a"), ts::Value::number(0)});
    mesh.sim.run_for(1 * sim::kSecond);
    EXPECT_EQ(mesh.at(0).engine().stats().vm_errors, 1u) << to_string(mode);
    EXPECT_EQ(mesh.at(0).engine().agents().size(), 0u) << to_string(mode);
    EXPECT_EQ(mesh.events.count(sim::EventKind::kAgentResume), 0u)
        << to_string(mode);
  }
}

TEST(EngineTs, ReactionInterruptsRunningAgent) {
  SingleNode s;
  // The agent registers a reaction and then spins; the reaction must
  // interrupt the loop (paper Sec. 3.2: the PC is redirected).
  s.node().inject(assemble_or_die(R"(
      BEGIN pushc 9
            pusht NUMBER
            pushc 2
            pushc HIT
            regrxn
      SPIN  pushc 1
            pop
            rjump SPIN
      HIT   pushn hit
            pushc 1
            out
            halt
  )"));
  s.mesh.sim.run_for(200 * sim::kMillisecond);
  s.space().out(ts::Tuple{ts::Value::number(9), ts::Value::number(1)});
  s.mesh.sim.run_for(500 * sim::kMillisecond);
  EXPECT_TRUE(
      s.space().rdp(ts::Template{ts::Value::string("hit")}).has_value());
}

TEST(EngineTs, ReactionReturnViaJumps) {
  SingleNode s;
  // Handler consumes the tuple fields and jumps back to the saved PC.
  s.node().inject(assemble_or_die(R"(
      BEGIN pusht NUMBER
            pushc 1
            pushc HIT
            regrxn
            wait
      AFTER pushn aft
            pushc 1
            out
            halt
      HIT   pop          // drop the number field
            jumps        // return to saved pc (the wait fell through)
  )"));
  s.mesh.sim.run_for(300 * sim::kMillisecond);
  s.space().out(ts::Tuple{ts::Value::number(3)});
  s.mesh.sim.run_for(500 * sim::kMillisecond);
  EXPECT_TRUE(
      s.space().rdp(ts::Template{ts::Value::string("aft")}).has_value());
}

TEST(EngineTs, DeregisteredReactionStopsFiring) {
  SingleNode s;
  s.node().inject(assemble_or_die(R"(
      pushc 9
      pusht NUMBER
      pushc 2
      pushc HIT
      regrxn
      pushc 9
      pusht NUMBER
      pushc 2
      deregrxn
      pushc 200
      sleep
      halt
      HIT pushn bad
      pushc 1
      out
      halt
  )"));
  s.mesh.sim.run_for(500 * sim::kMillisecond);
  s.space().out(ts::Tuple{ts::Value::number(9), ts::Value::number(1)});
  s.mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_FALSE(
      s.space().rdp(ts::Template{ts::Value::string("bad")}).has_value());
  EXPECT_EQ(s.node().engine().stats().reactions_fired, 0u);
}

TEST(EngineTs, ReactionsSurviveAgentSleep) {
  SingleNode s;
  s.node().inject(assemble_or_die(R"(
      pushn key
      pushc 1
      pushc HIT
      regrxn
      pushcl 800
      sleep          // 100 s — reaction should cut this short
      halt
      HIT pop
      pushn oky
      pushc 1
      out
      halt
  )"));
  s.mesh.sim.run_for(1 * sim::kSecond);
  s.space().out(ts::Tuple{ts::Value::string("key")});
  s.mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_TRUE(
      s.space().rdp(ts::Template{ts::Value::string("oky")}).has_value());
}

TEST(EngineTs, ContextTuplesAdvertiseSensors) {
  // Paper Sec. 2.2: "If a node has a thermometer, Agilla would insert a
  // 'temperature tuple' into its tuple space."
  SingleNode s;  // fixture installs a temperature field before start()...
  // start() ran in the fixture before the field was added; re-seed by
  // checking a fresh mesh instead.
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1, .start = false});
  mesh.env.set_field(sim::SensorType::kTemperature,
                     std::make_unique<sim::ConstantField>(20.0));
  mesh.at(0).start();
  const auto t = mesh.at(0).tuple_space().rdp(ts::Template{
      ts::Value::string("tmp"),
      ts::Value::reading_type(sim::SensorType::kTemperature)});
  EXPECT_TRUE(t.has_value());
  // No photo sensor -> no photo tuple.
  EXPECT_FALSE(mesh.at(0)
                   .tuple_space()
                   .rdp(ts::Template{
                       ts::Value::string("pho"),
                       ts::Value::reading_type(sim::SensorType::kPhoto)})
                   .has_value());
}

TEST(EngineTs, SenseReadsEnvironment) {
  SingleNode s;
  s.run(R"(
      pushc TEMPERATURE
      sense
      pushc 1
      out
      halt
  )");
  const auto t = s.space().rdp(ts::Template{
      ts::Value::reading_type(sim::SensorType::kTemperature)});
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->field(0).as_number(), 25);
}

TEST(EngineTs, SenseMissingSensorSetsConditionZero) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});  // no fields
  mesh.at(0).inject(assemble_or_die(R"(
      pushc PHOTO
      sense
      pop
      cpush
      pushc 1
      out
      halt
  )"));
  mesh.sim.run_for(1 * sim::kSecond);
  const auto t = mesh.at(0).tuple_space().rdp(
      ts::Template{ts::Value::type_wildcard(ts::ValueType::kNumber)});
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->field(0).as_number(), 0);
}

TEST(EngineTs, ReactionQueuedWhileBlockedOnRemoteOp) {
  // A reaction firing while its agent is mid-remote-op must not interrupt
  // the in-flight operation; it is delivered when the agent resumes (the
  // handler runs FIRST, then `jumps` returns to the post-rinp path).
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pushn key
      pushc 1
      pushc HIT
      regrxn
      pusht NUMBER
      pushc 1
      pushloc 2 1
      rinp           // blocks the agent for the round trip (~50 ms)
      pushn nrm
      pushc 1
      out            // the normal path continues after the handler returns
      halt
      HIT pop        // queued reaction delivered at resume: drop "key"
      pushn hit
      pushc 1
      out
      jumps          // return to the saved pc (right after rinp)
  )"));
  mesh.sim.run_for(20 * sim::kMillisecond);  // rinp is now in flight
  mesh.at(0).tuple_space().out(ts::Tuple{ts::Value::string("key")});
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("hit")})
                  .has_value());
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("nrm")})
                  .has_value());
}

}  // namespace
}  // namespace agilla::core
