// Failure injection: nodes dying mid-protocol, partitions, resource
// exhaustion — the middleware must degrade exactly the way the paper's
// design intends (failures surface as condition 0, never as hangs, crashes
// or leaked resources).
#include <gtest/gtest.h>

#include "agilla_test_helpers.h"
#include "core/agent_library.h"
#include "core/assembler.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::code_memory_balanced;
using agilla::testing::MeshOptions;

TEST(FailureInjection, DestinationDiesMidMigration) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  // Kill node 1 while the first migration message is in flight: the
  // transfer is multi-message, so cutting the radio right after injection
  // interrupts it mid-stream.
  mesh.at(0).inject(assemble_or_die(R"(
      pushloc 2 1
      smove
      cpush
      pushn cnd
      swap
      pushc 2
      out
      halt
  )"));
  mesh.sim.run_for(40 * sim::kMillisecond);  // first message on the air
  mesh.net.set_radio_enabled(mesh.topo.nodes[1], false);
  mesh.sim.run_for(10 * sim::kSecond);
  // The sender detected the failure and resumed the agent with cond 0.
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("cnd"),
                                    ts::Value::number(0)})
                  .has_value());
  EXPECT_EQ(mesh.total_agents(), 0u);  // ran to completion at the origin
  EXPECT_EQ(mesh.at(0).code_pool().used_blocks(), 0u);
}

TEST(FailureInjection, MidRouteNodeDiesAgentResumesAlongPath) {
  AgillaMesh mesh(MeshOptions{.width = 4, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pushloc 4 1
      smove
      pushn end
      loc
      pushc 2
      out
      halt
  )"));
  // Let the agent reach node 2's custody, then kill node 3.
  mesh.sim.run_for(250 * sim::kMillisecond);
  mesh.net.set_radio_enabled(mesh.topo.nodes[2], false);
  mesh.sim.run_for(15 * sim::kSecond);
  // The agent was never lost: exactly one "end" marker exists somewhere
  // on the surviving path (origin, node 2, or — if it squeaked through
  // before the cut — the destination).
  std::size_t markers = 0;
  for (auto& node : mesh.nodes) {
    markers += node->tuple_space().tcount(ts::Template{
        ts::Value::string("end"),
        ts::Value::type_wildcard(ts::ValueType::kLocation)});
  }
  EXPECT_EQ(markers, 1u);
}

TEST(FailureInjection, PartitionHealsAndTrafficResumes) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.warm();
  mesh.net.set_radio_enabled(mesh.topo.nodes[1], false);  // cut the bridge
  mesh.sim.run_for(10 * sim::kSecond);  // acquaintance entries expire

  BaseStation base(mesh.at(0));
  bool first_result = true;
  base.rout({3, 1}, ts::Tuple{ts::Value::number(1)},
            [&](bool ok, std::optional<ts::Tuple>) { first_result = ok; });
  mesh.sim.run_for(10 * sim::kSecond);
  EXPECT_FALSE(first_result);  // partitioned: the op fails cleanly

  mesh.net.set_radio_enabled(mesh.topo.nodes[1], true);  // heal
  mesh.sim.run_for(5 * sim::kSecond);  // beacons repopulate the tables
  bool second_result = false;
  base.rout({3, 1}, ts::Tuple{ts::Value::number(2)},
            [&](bool ok, std::optional<ts::Tuple>) { second_result = ok; });
  mesh.sim.run_for(10 * sim::kSecond);
  EXPECT_TRUE(second_result);
  EXPECT_TRUE(mesh.at(2)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::number(2)})
                  .has_value());
}

TEST(FailureInjection, ReactionRegistryOverflowOnArrivalIsNonFatal) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  // Fill node 1's registry (capacity 10) with local registrations.
  for (std::int16_t i = 0; i < 10; ++i) {
    ts::Reaction r;
    r.agent_id = 999;
    r.templ = ts::Template{ts::Value::number(i)};
    ASSERT_TRUE(mesh.at(1).tuple_space().register_reaction(r));
  }
  // An agent with a reaction migrates in; its reaction cannot register but
  // the agent itself must still run.
  mesh.at(0).inject(assemble_or_die(R"(
      pushn key
      pushc 1
      pushc HIT
      regrxn
      pushloc 2 1
      smove
      pushn arr
      pushc 1
      out
      halt
      HIT halt
  )"));
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_TRUE(mesh.at(1)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("arr")})
                  .has_value());
  EXPECT_EQ(mesh.at(1).tuple_space().reactions().size(), 10u);
}

TEST(FailureInjection, CodePoolChurnDoesNotLeak) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  for (int round = 0; round < 40; ++round) {
    // Alternate small and large agents to fragment the pool.
    std::string source = (round % 2 == 0)
                             ? "pushc 1\npop\nhalt"
                             : std::string(
                                   "pushn abc\npop\npushloc 1 2\npop\n"
                                   "pushcl 300\npop\npushn xyz\npop\nhalt");
    ASSERT_TRUE(mesh.at(0).inject(assemble_or_die(source)).has_value())
        << "round " << round;
    mesh.sim.run_for(1 * sim::kSecond);
    ASSERT_TRUE(code_memory_balanced(mesh.at(0))) << "round " << round;
    ASSERT_EQ(mesh.at(0).code_pool().used_blocks(), 0u) << "round " << round;
  }
  EXPECT_EQ(mesh.at(0).engine().stats().agents_halted, 40u);
}

TEST(FailureInjection, RemoteOpTargetDiesMidRequest) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  BaseStation base(mesh.at(0));
  bool completed = false;
  bool ok = true;
  mesh.net.set_radio_enabled(mesh.topo.nodes[1], false);
  base.rinp({2, 1}, ts::Template{ts::Value::number(1)},
            [&](bool success, std::optional<ts::Tuple>) {
              completed = true;
              ok = success;
            });
  // 2 s timeout x (1 + 2 retries) then failure.
  mesh.sim.run_for(8 * sim::kSecond);
  EXPECT_TRUE(completed);
  EXPECT_FALSE(ok);
}

TEST(FailureInjection, DeadNodesAgentsAreGoneButNetworkContinues) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.env.set_field(sim::SensorType::kTemperature,
                     std::make_unique<sim::ConstantField>(20.0));
  mesh.warm();
  mesh.at(1).inject(assemble_or_die(agents::habitat_monitor(8)));
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_EQ(mesh.at(1).engine().agents().size(), 1u);
  mesh.net.set_radio_enabled(mesh.topo.nodes[1], false);  // node 1 "dies"
  mesh.sim.run_for(10 * sim::kSecond);
  // The remaining nodes still route around... a 3x1 line has no alternate
  // path, but local work continues: inject and run an agent at node 0.
  mesh.at(0).inject(assemble_or_die("pushc 5\npushc 1\nout\nhalt"));
  mesh.sim.run_for(2 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::number(5)})
                  .has_value());
}

TEST(FailureInjection, AgentStormDoesNotCrashOrLeak) {
  // Saturate a node with more migrations than it has slots for.
  core::AgillaConfig config;
  config.engine.max_agents = 2;
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1, .config = config});
  mesh.warm();
  for (int i = 0; i < 6; ++i) {
    mesh.at(0).inject(assemble_or_die(R"(
        pushloc 2 1
        smove
        pushcl 160
        sleep
        halt
    )"));
    mesh.sim.run_for(1 * sim::kSecond);
    // Code pool usage matches live agents on both motes after every
    // injection (no leaked blocks from rejects or completed moves).
    for (std::size_t node = 0; node < 2; ++node) {
      ASSERT_TRUE(code_memory_balanced(mesh.at(node)))
          << "injection " << i << ", node " << node;
    }
  }
  mesh.sim.run_for(10 * sim::kSecond);
  // No more agents anywhere than slots allow; rejections were counted.
  EXPECT_LE(mesh.at(1).engine().agents().size(), 2u);
  EXPECT_GT(mesh.at(1).engine().stats().agents_rejected, 0u);
  EXPECT_TRUE(code_memory_balanced(mesh.at(0)));
  EXPECT_TRUE(code_memory_balanced(mesh.at(1)));
}

}  // namespace
}  // namespace agilla::core
