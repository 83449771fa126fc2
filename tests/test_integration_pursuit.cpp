// End-to-end intruder pursuit (paper Sec. 1's programming-model claim):
// sentinels publish signal readings; a pursuer chases the loudest node.
#include <gtest/gtest.h>

#include "agilla_test_helpers.h"
#include "core/agent_library.h"
#include "core/assembler.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

/// The pursuer is wherever 2 agents coexist (sentinel + pursuer).
int pursuer_node(AgillaMesh& mesh) {
  for (std::size_t i = 0; i < mesh.nodes.size(); ++i) {
    if (mesh.at(i).engine().agents().size() >= 2) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST(Pursuit, SentinelsCoverGridAndPublishReadings) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 3});
  mesh.env.set_field(sim::SensorType::kMagnetometer,
                     std::make_unique<sim::ConstantField>(50.0));
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.inject(agents::sentinel(8));
  mesh.sim.run_for(30 * sim::kSecond);
  const ts::Template signal{
      ts::Value::string("sig"),
      ts::Value::type_wildcard(ts::ValueType::kReading)};
  std::size_t publishing = 0;
  for (auto& node : mesh.nodes) {
    if (node->tuple_space().rdp(signal).has_value()) {
      ++publishing;
    }
  }
  EXPECT_GE(publishing, 8u);  // flood covers (nearly) all 9 nodes
}

TEST(Pursuit, PursuerMovesTowardStaticSource) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 3});
  // A static source at the far corner (3,3).
  mesh.env.set_field(
      sim::SensorType::kMagnetometer,
      std::make_unique<sim::GaussianBumpField>(sim::Location{3, 3}, 400.0,
                                               1.0, 5.0));
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.inject(agents::sentinel(8));
  mesh.sim.run_for(20 * sim::kSecond);
  base.inject(agents::pursuer(8));
  mesh.sim.run_for(60 * sim::kSecond);
  const int at = pursuer_node(mesh);
  ASSERT_GE(at, 0);
  // The pursuer climbed the gradient to the source's node.
  EXPECT_EQ(mesh.at(static_cast<std::size_t>(at)).location(),
            (sim::Location{3, 3}));
}

TEST(Pursuit, PursuerFollowsMovingSource) {
  AgillaMesh mesh(MeshOptions{.width = 4, .height = 1});
  mesh.env.set_field(
      sim::SensorType::kMagnetometer,
      std::make_unique<sim::MovingBumpField>(sim::MovingBumpField::Options{
          .waypoints = {{1, 1}, {4, 1}},
          .speed = 0.02,
          .peak = 400.0,
          .sigma = 0.9,
          .ambient = 5.0,
          .loop = false}));
  const sim::MovingBumpField truth({.waypoints = {{1, 1}, {4, 1}},
                                    .speed = 0.02,
                                    .peak = 400.0,
                                    .sigma = 0.9,
                                    .ambient = 5.0,
                                    .loop = false});
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.inject(agents::sentinel(8));
  mesh.sim.run_for(15 * sim::kSecond);
  base.inject(agents::pursuer(8));

  // Sample the chase; the pursuer should stay near the source most of the
  // time once locked on.
  int close = 0;
  int samples = 0;
  for (int i = 0; i < 12; ++i) {
    mesh.sim.run_for(15 * sim::kSecond);
    const int at = pursuer_node(mesh);
    if (at < 0) {
      continue;  // mid-migration snapshot
    }
    ++samples;
    const double d = distance(
        mesh.at(static_cast<std::size_t>(at)).location(),
        truth.center(mesh.sim.now()));
    if (d <= 1.5) {
      ++close;
    }
  }
  ASSERT_GE(samples, 8);
  EXPECT_GE(close * 2, samples);  // near the intruder most of the time
}

TEST(Pursuit, PursuerSurvivesLongRuns) {
  // Regression guard for the sequence-wraparound loss: a pursuer that
  // migrates every second for minutes of virtual time must never vanish.
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 3, .packet_loss = 0.02});
  mesh.env.set_field(
      sim::SensorType::kMagnetometer,
      std::make_unique<sim::MovingBumpField>(sim::MovingBumpField::Options{
          .waypoints = {{1, 1}, {3, 1}, {3, 3}, {1, 3}},
          .speed = 0.05,
          .peak = 400.0,
          .sigma = 0.9,
          .ambient = 5.0,
          .loop = true}));
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.inject(agents::sentinel(8));
  mesh.sim.run_for(20 * sim::kSecond);
  base.inject(agents::pursuer(8));
  mesh.sim.run_for(300 * sim::kSecond);
  // 9 sentinels + 1 pursuer, all still alive.
  EXPECT_EQ(mesh.total_agents(), 10u);
}

}  // namespace
}  // namespace agilla::core
