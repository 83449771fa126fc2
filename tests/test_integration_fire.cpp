// End-to-end reproduction of the paper's Sec. 5 case study: FIREDETECTOR
// agents spread over a grid; a fire ignites and spreads; a detector routs a
// fire alert to the FIRETRACKER waiting at the base station; the tracker
// clones to the fire and builds a perimeter of <"trk", loc> tuples.
#include <gtest/gtest.h>

#include "agilla_test_helpers.h"
#include "core/agent_library.h"
#include "core/assembler.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

const ts::Template kAlert{ts::Value::string("fir"),
                          ts::Value::type_wildcard(ts::ValueType::kLocation)};
const ts::Template kTrackMark{
    ts::Value::string("trk"),
    ts::Value::type_wildcard(ts::ValueType::kLocation)};
const ts::Template kDetectorMark{
    ts::Value::string("det"),
    ts::Value::type_wildcard(ts::ValueType::kLocation)};

TEST(FireCaseStudy, DetectorsSpreadOverGrid) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 3});
  mesh.env.set_field(sim::SensorType::kTemperature,
                     std::make_unique<sim::ConstantField>(25.0));
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.inject(agents::fire_detector({1, 1}, 200, 16));
  mesh.sim.run_for(40 * sim::kSecond);
  std::size_t claimed = 0;
  for (auto& node : mesh.nodes) {
    if (node->tuple_space().rdp(kDetectorMark).has_value()) {
      ++claimed;
    }
  }
  // The wclone flood claims most of the 3x3 grid (transient slot conflicts
  // may leave a straggler or two unclaimed).
  EXPECT_GE(claimed, 7u);
}

TEST(FireCaseStudy, AlertReachesBaseStation) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  // Fire near node (3,1) from t=20 s.
  mesh.env.set_field(
      sim::SensorType::kTemperature,
      std::make_unique<sim::FireField>(sim::FireField::Options{
          .ignition_point = {3, 1},
          .ignition_time = 20 * sim::kSecond,
          .spread_speed = 0.05,
          .peak = 500.0,
          .ambient = 25.0,
          .edge_decay = 0.4}));
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.inject(agents::fire_detector({1, 1}, 200, 16));
  mesh.sim.run_for(60 * sim::kSecond);
  const auto alert = mesh.at(0).tuple_space().rdp(kAlert);
  ASSERT_TRUE(alert.has_value());
  // The alert carries the detecting node's location: (3,1) ignites first.
  EXPECT_EQ(alert->field(1).as_location(), (sim::Location{3, 1}));
}

TEST(FireCaseStudy, TrackerClonesToFireAndMarksPerimeter) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 3});
  mesh.env.set_field(
      sim::SensorType::kTemperature,
      std::make_unique<sim::FireField>(sim::FireField::Options{
          .ignition_point = {3, 3},
          .ignition_time = 15 * sim::kSecond,
          .spread_speed = 0.03,
          .peak = 500.0,
          .ambient = 25.0,
          .edge_decay = 0.5}));
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.inject(agents::fire_tracker(180, 8));
  base.inject(agents::fire_detector({1, 1}, 200, 16));
  mesh.sim.run_for(90 * sim::kSecond);

  // Trackers took post at the burning corner and marked the perimeter.
  std::size_t tracked = 0;
  for (auto& node : mesh.nodes) {
    if (node->tuple_space().rdp(kTrackMark).has_value()) {
      ++tracked;
    }
  }
  EXPECT_GE(tracked, 1u);
  // The node at the ignition point is tracked.
  EXPECT_TRUE(mesh.at_loc(3, 3).tuple_space().rdp(kTrackMark).has_value());
}

TEST(FireCaseStudy, PaperFig2ReactionChain) {
  // The exact Fig. 2 interaction: a FIRETRACKER waits on a reaction; a
  // remote rout of a fire-alert tuple wakes it and it clones to the alert
  // location.
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.env.set_field(sim::SensorType::kTemperature,
                     std::make_unique<sim::ConstantField>(400.0));
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(agents::fire_tracker(180, 8)));
  mesh.sim.run_for(2 * sim::kSecond);
  EXPECT_EQ(mesh.at(0).engine().agents().size(), 1u);

  // A "detector" on node (3,1) routs the alert to (1,1).
  mesh.at(2).inject(assemble_or_die(R"(
      pushn fir
      loc
      pushc 2
      pushloc 1 1
      rout
      halt
  )"));
  mesh.sim.run_for(30 * sim::kSecond);
  // The tracker cloned to (3,1) (everything is hot, so it stays and marks).
  EXPECT_TRUE(mesh.at(2).tuple_space().rdp(kTrackMark).has_value());
  // The original is still waiting at the base for further alerts.
  EXPECT_GE(mesh.at(0).engine().agents().size(), 1u);
}

TEST(FireCaseStudy, TrackersDieWhenFireEnds) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.env.set_field(
      sim::SensorType::kTemperature,
      std::make_unique<sim::FireField>(sim::FireField::Options{
          .ignition_point = {2, 1},
          .ignition_time = 5 * sim::kSecond,
          .extinction_time = 40 * sim::kSecond,
          .spread_speed = 0.02,
          .peak = 500.0,
          .ambient = 25.0}));
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(agents::fire_tracker(180, 8)));
  mesh.at(1).inject(assemble_or_die(R"(
      pushn fir
      loc
      pushc 2
      pushloc 1 1
      rout
      halt
  )"));
  // Wait until after the fire is out; hold the alert until the fire burns.
  mesh.sim.run_for(120 * sim::kSecond);
  // "Once the fire has died, the tracking agents also die" (Sec. 2.1):
  // the tracker at (2,1) halts and removes its marker. Only the original
  // tracker (still waiting at base) remains.
  EXPECT_FALSE(mesh.at(1).tuple_space().rdp(kTrackMark).has_value());
  EXPECT_EQ(mesh.at(1).engine().agents().size(), 0u);
  EXPECT_EQ(mesh.at(0).engine().agents().size(), 1u);
}

TEST(FireCaseStudy, WorksUnderPacketLoss) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1,
                              .packet_loss = 0.08, .seed = 5});
  mesh.env.set_field(
      sim::SensorType::kTemperature,
      std::make_unique<sim::FireField>(sim::FireField::Options{
          .ignition_point = {3, 1},
          .ignition_time = 20 * sim::kSecond,
          .spread_speed = 0.05,
          .peak = 500.0,
          .ambient = 25.0}));
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.inject(agents::fire_detector({1, 1}, 200, 16));
  mesh.sim.run_for(90 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0).tuple_space().rdp(kAlert).has_value());
}

}  // namespace
}  // namespace agilla::core
