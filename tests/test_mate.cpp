// The Mate-like baseline: capsule VM, versioning, and viral flooding.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mate/mate_node.h"
#include "sim/topology.h"

namespace agilla::mate {
namespace {

struct MateMesh {
  sim::Simulator sim{31};
  sim::Network net;
  sim::Topology topo;
  sim::SensorEnvironment env;
  std::vector<std::unique_ptr<MateNode>> nodes;

  MateMesh(std::size_t w, std::size_t h)
      : net(sim, std::make_unique<sim::GridNeighborRadio>(
                     sim::GridNeighborRadio::Options{.spacing = 1.0})) {
    topo = sim::make_grid(net, w, h);
    for (sim::NodeId id : topo.nodes) {
      nodes.push_back(std::make_unique<MateNode>(net, id, &env));
      nodes.back()->start();
    }
  }
};

Capsule blink_forw_capsule(std::uint8_t version) {
  const std::uint8_t code[] = {
      static_cast<std::uint8_t>(MateOp::kPushc), version,
      static_cast<std::uint8_t>(MateOp::kPutLed),
      static_cast<std::uint8_t>(MateOp::kForw),
      static_cast<std::uint8_t>(MateOp::kHalt),
  };
  return make_capsule(CapsuleType::kClock, version, code);
}

TEST(MateVm, ArithmeticAndStack) {
  const std::uint8_t code[] = {
      static_cast<std::uint8_t>(MateOp::kPushc), 5,
      static_cast<std::uint8_t>(MateOp::kPushc), 7,
      static_cast<std::uint8_t>(MateOp::kAdd),
      static_cast<std::uint8_t>(MateOp::kInc),
      static_cast<std::uint8_t>(MateOp::kPutLed),
      static_cast<std::uint8_t>(MateOp::kHalt),
  };
  std::uint8_t leds = 0;
  MateHost host;
  host.set_leds = [&](std::uint8_t v) { leds = v; };
  const auto result = run_capsule(
      make_capsule(CapsuleType::kClock, 1, code), host);
  EXPECT_TRUE(result.halted);
  EXPECT_FALSE(result.error);
  EXPECT_EQ(leds, 13 & 0x7);
}

TEST(MateVm, StackUnderflowIsError) {
  const std::uint8_t code[] = {static_cast<std::uint8_t>(MateOp::kAdd)};
  const auto result =
      run_capsule(make_capsule(CapsuleType::kClock, 1, code), MateHost{});
  EXPECT_TRUE(result.error);
}

TEST(MateVm, SenseAndRandUseHost) {
  const std::uint8_t code[] = {
      static_cast<std::uint8_t>(MateOp::kSense),
      static_cast<std::uint8_t>(MateOp::kPutLed),
      static_cast<std::uint8_t>(MateOp::kHalt),
  };
  MateHost host;
  host.sense = [] { return std::int16_t{5}; };
  std::uint8_t leds = 0;
  host.set_leds = [&](std::uint8_t v) { leds = v; };
  run_capsule(make_capsule(CapsuleType::kClock, 1, code), host);
  EXPECT_EQ(leds, 5);
}

TEST(Capsule, WireRoundTrip) {
  const Capsule c = blink_forw_capsule(9);
  net::Writer w;
  c.write(w);
  EXPECT_EQ(w.size(), Capsule::kWireSize);
  net::Reader r(w.data());
  const Capsule parsed = Capsule::read(r);
  EXPECT_EQ(parsed.version, 9);
  EXPECT_EQ(parsed.type, CapsuleType::kClock);
  EXPECT_EQ(parsed.length, c.length);
  EXPECT_EQ(parsed.code, c.code);
}

TEST(Capsule, VersionComparisonWraps) {
  Capsule a = blink_forw_capsule(10);
  Capsule b = blink_forw_capsule(5);
  EXPECT_TRUE(a.newer_than(b));
  EXPECT_FALSE(b.newer_than(a));
  // 8-bit wraparound: 2 is "newer" than 250.
  Capsule wrapped = blink_forw_capsule(2);
  Capsule old = blink_forw_capsule(250);
  EXPECT_TRUE(wrapped.newer_than(old));
}

TEST(MateNode, InstallAndRunClockCapsule) {
  MateMesh mesh(1, 1);
  mesh.nodes[0]->install(blink_forw_capsule(1));
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_GE(mesh.nodes[0]->stats().clock_runs, 3u);
  EXPECT_EQ(mesh.nodes[0]->leds(), 1);
}

TEST(MateNode, CapsuleFloodsWholeNetwork) {
  // Paper Sec. 1: "applications are divided into capsules that are flooded
  // throughout the network."
  MateMesh mesh(5, 5);
  mesh.nodes[0]->install(blink_forw_capsule(1));
  mesh.sim.run_for(60 * sim::kSecond);
  for (const auto& node : mesh.nodes) {
    EXPECT_EQ(node->version_of(CapsuleType::kClock), 1)
        << "node " << node->node_id();
  }
}

TEST(MateNode, NewerVersionSupersedesEverywhere) {
  MateMesh mesh(3, 3);
  mesh.nodes[0]->install(blink_forw_capsule(1));
  mesh.sim.run_for(30 * sim::kSecond);
  // Reprogram: inject version 2 at the opposite corner.
  mesh.nodes[8]->install(blink_forw_capsule(2));
  mesh.sim.run_for(30 * sim::kSecond);
  for (const auto& node : mesh.nodes) {
    EXPECT_EQ(node->version_of(CapsuleType::kClock), 2);
  }
}

TEST(MateNode, OlderVersionIsIgnored) {
  MateMesh mesh(2, 1);
  mesh.nodes[0]->install(blink_forw_capsule(5));
  mesh.sim.run_for(10 * sim::kSecond);
  ASSERT_EQ(mesh.nodes[1]->version_of(CapsuleType::kClock), 5);
  const auto installs_before = mesh.nodes[1]->stats().capsules_installed;
  mesh.nodes[0]->install(blink_forw_capsule(3));  // stale
  mesh.sim.run_for(10 * sim::kSecond);
  // Node 1 never adopts the older capsule. (Node 0 does hold it: install()
  // is the unconditioned base-station entry point.)
  EXPECT_EQ(mesh.nodes[1]->version_of(CapsuleType::kClock), 5);
  EXPECT_EQ(mesh.nodes[1]->stats().capsules_installed, installs_before);
}

TEST(MateNode, FloodingCostGrowsWithNetwork) {
  // The structural contrast with Agilla (paper Sec. 5): reprogramming via
  // Mate touches every node, so total broadcasts scale with network size.
  MateMesh small(2, 2);
  small.nodes[0]->install(blink_forw_capsule(1));
  small.sim.run_for(30 * sim::kSecond);
  std::uint64_t small_broadcasts = 0;
  for (const auto& n : small.nodes) {
    small_broadcasts += n->stats().capsules_broadcast;
  }

  MateMesh large(5, 5);
  large.nodes[0]->install(blink_forw_capsule(1));
  large.sim.run_for(30 * sim::kSecond);
  std::uint64_t large_broadcasts = 0;
  for (const auto& n : large.nodes) {
    large_broadcasts += n->stats().capsules_broadcast;
  }
  EXPECT_GT(large_broadcasts, small_broadcasts * 3);
}

}  // namespace
}  // namespace agilla::mate
