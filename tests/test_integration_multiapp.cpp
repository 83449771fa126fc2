// Multiple independent applications sharing one network (paper Secs. 1/2:
// "Multiple applications can coexist since agents belonging to different
// applications can coexist").
#include <gtest/gtest.h>

#include "agilla_test_helpers.h"
#include "core/agent_library.h"
#include "core/assembler.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

TEST(MultiApp, HabitatMonitorAndBlinkerCoexist) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  mesh.env.set_field(sim::SensorType::kTemperature,
                     std::make_unique<sim::ConstantField>(20.0));
  mesh.at(0).inject(assemble_or_die(agents::habitat_monitor(8)));
  mesh.at(0).inject(assemble_or_die(agents::blinker(4)));
  mesh.sim.run_for(10 * sim::kSecond);
  EXPECT_EQ(mesh.at(0).engine().agents().size(), 2u);
  EXPECT_GE(mesh.at(0).tuple_space().tcount(ts::Template{
                ts::Value::string("hab"),
                ts::Value::type_wildcard(ts::ValueType::kReading)}),
            1u);
  EXPECT_NE(mesh.at(0).engine().leds(), 0u);
}

TEST(MultiApp, FireAlertKillsHabitatMonitorViaTupleSpace) {
  // The Sec. 2.2 decoupling scenario: the fire application and the habitat
  // application never reference each other — coordination happens through
  // the <"fir", loc> tuple alone.
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.env.set_field(sim::SensorType::kTemperature,
                     std::make_unique<sim::ConstantField>(300.0));
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(agents::habitat_monitor(8)));
  mesh.sim.run_for(2 * sim::kSecond);
  ASSERT_EQ(mesh.at(0).engine().agents().size(), 1u);
  // A detector on node 2 routs a fire alert onto node 1's tuple space.
  mesh.at(1).inject(assemble_or_die(R"(
      pushn fir
      loc
      pushc 2
      pushloc 1 1
      rout
      halt
  )"));
  mesh.sim.run_for(10 * sim::kSecond);
  EXPECT_EQ(mesh.at(0).engine().agents().size(), 0u);  // monitor self-terminated
}

TEST(MultiApp, AgentsFromDifferentAppsShareTupleSpaceSafely) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  // App A publishes <1,x>; app B publishes <"b",x>; each consumes only its
  // own tuples.
  mesh.at(0).inject(assemble_or_die(R"(
      pushc 1
      pushc 10
      pushc 2
      out
      pushc 1
      pusht NUMBER
      pushc 2
      inp
      pop
      pop
      pushn okA
      pushc 1
      out
      halt
  )"));
  mesh.at(0).inject(assemble_or_die(R"(
      pushn b
      pushc 20
      pushc 2
      out
      pushn b
      pusht NUMBER
      pushc 2
      inp
      pop
      pop
      pushn okB
      pushc 1
      out
      halt
  )"));
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("oka")})
                  .has_value());
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("okb")})
                  .has_value());
}

TEST(MultiApp, InNetworkReprogrammingByInjectingNewAgents) {
  // "An Agilla network is deployed with no pre-installed application" —
  // inject app 1, let it finish, inject app 2.
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.inject_at(assemble_or_die("pushn ap1\npushc 1\nout\nhalt"), {2, 1});
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_TRUE(mesh.at(1)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("ap1")})
                  .has_value());
  EXPECT_EQ(mesh.at(1).engine().agents().size(), 0u);  // app 1 finished and died
  base.inject_at(assemble_or_die("pushn ap2\npushc 1\nout\nhalt"), {2, 1});
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_TRUE(mesh.at(1)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("ap2")})
                  .has_value());
}

TEST(MultiApp, FourConcurrentAgentsRoundRobinFairly) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  // Four counters, each outs its tag then halts after N iterations; all
  // four must complete (round-robin guarantees progress for everyone).
  for (int k = 0; k < 4; ++k) {
    std::string tag = "a";
    tag[0] = static_cast<char>('a' + k);
    mesh.at(0).inject(assemble_or_die(
        "pushc 30\nsetvar 0\n"
        "LOOP getvar 0\ndec\nsetvar 0\ngetvar 0\npushc 0\nceq\n"
        "rjumpc DONE\nrjump LOOP\n"
        "DONE pushn " + tag + "\npushc 1\nout\nhalt\n"));
  }
  mesh.sim.run_for(10 * sim::kSecond);
  EXPECT_EQ(mesh.at(0).engine().stats().agents_halted, 4u);
  for (int k = 0; k < 4; ++k) {
    std::string tag = "a";
    tag[0] = static_cast<char>('a' + k);
    EXPECT_TRUE(mesh.at(0)
                    .tuple_space()
                    .rdp(ts::Template{ts::Value::string(tag)})
                    .has_value())
        << tag;
  }
}

}  // namespace
}  // namespace agilla::core
