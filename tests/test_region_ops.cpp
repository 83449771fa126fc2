// Region operations (paper Sec. 2.2's generalization of location
// addressing): tuple insertion on one or all nodes in a geographic area.
#include <gtest/gtest.h>

#include "agilla_test_helpers.h"
#include "core/region_ops.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

const ts::Tuple kAlert{ts::Value::string("evc"), ts::Value::number(1)};
const ts::Template kAlertTemplate{ts::Value::string("evc"),
                                  ts::Value::number(1)};

std::size_t nodes_holding(AgillaMesh& mesh, const ts::Template& templ) {
  std::size_t n = 0;
  for (auto& node : mesh.nodes) {
    if (node->tuple_space().rdp(templ).has_value()) {
      ++n;
    }
  }
  return n;
}

TEST(RegionOps, AllNodesModeCoversTheRegionOnly) {
  AgillaMesh mesh(MeshOptions{.width = 5, .height = 5});
  mesh.warm();
  // Region: radius 1.2 around (4,4) -> (4,4) and its 4 axis neighbours.
  mesh.at(0).region_ops().out_region(kAlert, {4, 4}, 1.2,
                                     RegionMode::kAllNodes);
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(nodes_holding(mesh, kAlertTemplate), 5u);
  EXPECT_TRUE(mesh.at_loc(4, 4).tuple_space().rdp(kAlertTemplate).has_value());
  EXPECT_TRUE(mesh.at_loc(3, 4).tuple_space().rdp(kAlertTemplate).has_value());
  EXPECT_FALSE(
      mesh.at_loc(1, 1).tuple_space().rdp(kAlertTemplate).has_value());
  EXPECT_FALSE(
      mesh.at_loc(2, 2).tuple_space().rdp(kAlertTemplate).has_value());
}

TEST(RegionOps, AnyNodeModeDeliversToExactlyOne) {
  AgillaMesh mesh(MeshOptions{.width = 5, .height = 5});
  mesh.warm();
  mesh.at(0).region_ops().out_region(kAlert, {4, 4}, 1.2,
                                     RegionMode::kAnyNode);
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(nodes_holding(mesh, kAlertTemplate), 1u);
}

TEST(RegionOps, OriginInsideRegionStillCoversAll) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 3});
  mesh.warm();
  // Origin (1,1) is itself inside the radius-1.2 region around (1,1).
  mesh.at(0).region_ops().out_region(kAlert, {1, 1}, 1.2,
                                     RegionMode::kAllNodes);
  mesh.sim.run_for(5 * sim::kSecond);
  // (1,1), (2,1), (1,2) are within 1.2.
  EXPECT_EQ(nodes_holding(mesh, kAlertTemplate), 3u);
  EXPECT_TRUE(mesh.at(0).tuple_space().rdp(kAlertTemplate).has_value());
}

TEST(RegionOps, WholeNetworkRadiusReachesEveryone) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 3});
  mesh.warm();
  mesh.at(0).region_ops().out_region(kAlert, {2, 2}, 10.0,
                                     RegionMode::kAllNodes);
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(nodes_holding(mesh, kAlertTemplate), 9u);
}

TEST(RegionOps, FloodIsDuplicateSuppressed) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 3});
  mesh.warm();
  mesh.at(0).region_ops().out_region(kAlert, {2, 2}, 10.0,
                                     RegionMode::kAllNodes);
  mesh.sim.run_for(5 * sim::kSecond);
  // Each node inserts the tuple exactly once and relays exactly once.
  for (auto& node : mesh.nodes) {
    EXPECT_EQ(node->tuple_space().tcount(kAlertTemplate), 1u);
    EXPECT_LE(node->region_ops().stats().floods_relayed, 1u);
  }
  // The 9-node flood is bounded: at most one broadcast per node.
  std::uint64_t total_relays = 0;
  for (auto& node : mesh.nodes) {
    total_relays += node->region_ops().stats().floods_relayed;
  }
  EXPECT_LE(total_relays, 9u);
}

TEST(RegionOps, DistinctOperationsAreIndependent) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.warm();
  mesh.at(0).region_ops().out_region(
      ts::Tuple{ts::Value::number(1)}, {2, 1}, 0.3, RegionMode::kAllNodes);
  mesh.at(0).region_ops().out_region(
      ts::Tuple{ts::Value::number(2)}, {2, 1}, 0.3, RegionMode::kAllNodes);
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(mesh.at(1).tuple_space().tcount(
                ts::Template{ts::Value::number(1)}),
            1u);
  EXPECT_EQ(mesh.at(1).tuple_space().tcount(
                ts::Template{ts::Value::number(2)}),
            1u);
}

TEST(RegionOps, SurvivesModerateLoss) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 3,
                              .packet_loss = 0.05, .seed = 3});
  mesh.warm();
  mesh.at(0).region_ops().out_region(kAlert, {2, 2}, 10.0,
                                     RegionMode::kAllNodes);
  mesh.sim.run_for(5 * sim::kSecond);
  // Best effort: most (usually all) nodes hear at least one copy because
  // interior nodes have several flooding neighbours.
  EXPECT_GE(nodes_holding(mesh, kAlertTemplate), 7u);
}

TEST(RegionOps, TriggersReactionsOnRegionNodes) {
  // The point of the extension: a region-wide alert interacts with the
  // normal reaction machinery (e.g. paper Sec. 2.1's evacuation order).
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.warm();
  mesh.at(2).inject(assemble_or_die(R"(
      pushn evc
      pusht NUMBER
      pushc 2
      pushc HIT
      regrxn
      wait
      HIT pushn oky
      pushc 1
      out
      halt
  )"));
  mesh.sim.run_for(1 * sim::kSecond);
  mesh.at(0).region_ops().out_region(kAlert, {2, 1}, 1.2,
                                     RegionMode::kAllNodes);
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_TRUE(mesh.at(2)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("oky")})
                  .has_value());
}

TEST(RegionOps, TupleMustFitTheGeoRoutedFrame) {
  // The seed crosses the mesh as link header + geo header + region
  // header + tuple in one frame, which leaves 22 of a tuple's 25 bytes.
  AgillaMesh mesh(MeshOptions{.width = 5, .height = 5});
  mesh.warm();
  const ts::Value loc = ts::Value::location({1, 1});
  const ts::Tuple largest{loc, loc, loc, ts::Value::number(7),
                          ts::Value::number(8)};
  ASSERT_EQ(largest.wire_size(), RegionOps::kMaxTupleBytes);
  const ts::Tuple over{loc, loc, loc, loc, ts::Value::number(9)};
  ASSERT_GT(over.wire_size(), RegionOps::kMaxTupleBytes);

  EXPECT_TRUE(mesh.at(0).region_ops().out_region(largest, {4, 4}, 1.2,
                                                 RegionMode::kAllNodes));
  // Refused whether or not the origin lies inside the region.
  EXPECT_FALSE(mesh.at(0).region_ops().out_region(over, {4, 4}, 1.2,
                                                  RegionMode::kAnyNode));
  EXPECT_FALSE(mesh.at(0).region_ops().out_region(over, {0, 0}, 1.2,
                                                  RegionMode::kAllNodes));
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(nodes_holding(mesh, ts::Template{loc, loc, loc,
                                             ts::Value::number(7),
                                             ts::Value::number(8)}),
            5u);
  EXPECT_EQ(nodes_holding(mesh, ts::Template{loc, loc, loc, loc,
                                             ts::Value::number(9)}),
            0u);
}

TEST(RegionOps, BaseStationFacade) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.warm();
  BaseStation base(mesh.at(0));
  base.out_region(kAlert, {3, 1}, 0.3, RegionMode::kAllNodes);
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_TRUE(mesh.at(2).tuple_space().rdp(kAlertTemplate).has_value());
}

}  // namespace
}  // namespace agilla::core
