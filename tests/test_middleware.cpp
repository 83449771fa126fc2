// The per-node facade: construction, wiring, config plumbing.
#include <gtest/gtest.h>

#include "agilla_test_helpers.h"
#include "core/assembler.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

TEST(Middleware, DefaultsMatchPaper) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  const AgillaConfig& config = mesh.at(0).config();
  EXPECT_EQ(config.code_pool_blocks, 20u);                      // 440 B
  EXPECT_EQ(config.engine.max_agents, 4u);
  EXPECT_EQ(config.tuple_space.store_capacity_bytes, 600u);
  EXPECT_EQ(config.tuple_space.registry.capacity_bytes, 400u);
  EXPECT_EQ(config.link.ack_timeout, 100 * sim::kMillisecond);
  EXPECT_EQ(config.link.max_retries, 4);
  EXPECT_EQ(config.migration.receiver_abort, 250 * sim::kMillisecond);
  EXPECT_EQ(config.remote_ts.reply_timeout, 2 * sim::kSecond);
  EXPECT_EQ(RemoteTsManager::kMaxRetries, 2);
  EXPECT_EQ(AgillaEngine::kInstructionsPerSlice, 4u);
}

TEST(Middleware, LocationComesFromNetwork) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 2});
  EXPECT_EQ(mesh.at(0).location(), (sim::Location{1, 1}));
  EXPECT_EQ(mesh.at(5).location(), (sim::Location{3, 2}));
}

TEST(Middleware, StartIsIdempotentEnough) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.at(0).start();  // second call: must not crash or double-beacon
  mesh.warm();
  EXPECT_EQ(mesh.at(0).neighbors().size(), 1u);
}

TEST(Middleware, InjectRunsAgent) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  const auto id = mesh.at(0).inject(
      assemble_or_die("pushc 3\npushc 1\nout\nhalt"));
  ASSERT_TRUE(id.has_value());
  mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::number(3)})
                  .has_value());
}

TEST(Middleware, CustomConfigHonored) {
  AgillaConfig config;
  config.engine.max_agents = 2;
  config.code_pool_blocks = 5;
  config.tuple_space.store_capacity_bytes = 100;
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1, .config = config});
  EXPECT_EQ(mesh.at(0).code_pool().capacity_bytes(), 110u);
  EXPECT_EQ(mesh.at(0).tuple_space().store().capacity_bytes(), 100u);
  // Two agent slots: a third agent is refused.
  const auto sleeper = assemble_or_die("pushc 100\nsleep\nhalt");
  EXPECT_TRUE(mesh.at(0).inject(sleeper).has_value());
  EXPECT_TRUE(mesh.at(0).inject(sleeper).has_value());
  EXPECT_FALSE(mesh.at(0).inject(sleeper).has_value());
  EXPECT_EQ(mesh.at(0).engine().stats().agents_rejected, 1u);
}

TEST(Middleware, AgentLifecycleReachesTheEventLog) {
  AgillaMesh mesh(MeshOptions{.width = 1, .height = 1});
  mesh.at(0).inject(assemble_or_die("halt"));
  mesh.sim.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(mesh.events.count(sim::EventKind::kAgentSpawn, "inject"), 1u);
  EXPECT_EQ(mesh.events.count(sim::EventKind::kAgentKill, "halt"), 1u);
}

TEST(Middleware, AckedFrameOfAnotherStackIsNeitherDeliveredNorAcked) {
  // The mote routes only Agilla AM types: a Mate capsule sent acked is
  // refused, so the sender's retransmissions run out.
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  bool called = false;
  bool delivered = true;
  const auto done = [&](bool ok) {
    called = true;
    delivered = ok;
  };
  const sim::NodeId to = mesh.at(1).node_id();
  mesh.at(0).link().send_acked(to, sim::AmType::kMateCapsule, {1, 2, 3}, done);
  mesh.sim.run_for(2 * sim::kSecond);
  EXPECT_TRUE(called);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(mesh.at(1).link().stats().acks_sent, 0u);
  EXPECT_EQ(mesh.at(0).link().stats().send_failures, 1u);
}

TEST(Middleware, NodesAreIsolatedStacks) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.at(0).tuple_space().out(ts::Tuple{ts::Value::number(1)});
  EXPECT_EQ(mesh.at(1).tuple_space().store().tuple_count(), 0u);
}

}  // namespace
}  // namespace agilla::core
