#include "sim/topology.h"

#include <gtest/gtest.h>

namespace agilla::sim {
namespace {

struct GridFixture {
  Simulator sim{1};
  Network net{sim};
};

TEST(Topology, GridPlacesPaperCoordinates) {
  GridFixture f;
  const Topology topo = make_grid(f.net, 5, 5);
  ASSERT_EQ(topo.size(), 25u);
  // Lower-left corner is (1,1), as in paper Fig. 3.
  EXPECT_EQ(f.net.info(topo.nodes[0]).location, (Location{1, 1}));
  EXPECT_EQ(f.net.info(topo.nodes[4]).location, (Location{5, 1}));
  EXPECT_EQ(f.net.info(topo.nodes[24]).location, (Location{5, 5}));
}

TEST(Topology, LineIsOneRow) {
  GridFixture f;
  const Topology topo = make_line(f.net, 6);
  ASSERT_EQ(topo.size(), 6u);
  EXPECT_EQ(f.net.info(topo.nodes[5]).location, (Location{6, 1}));
}

TEST(Topology, HopDistanceAlongLine) {
  GridFixture f;
  const Topology topo = make_line(f.net, 6);
  EXPECT_EQ(hop_distance(f.net, topo.nodes[0], topo.nodes[5]), 5u);
  EXPECT_EQ(hop_distance(f.net, topo.nodes[0], topo.nodes[0]), 0u);
}

TEST(Topology, HopDistanceManhattanOnGrid) {
  GridFixture f;
  const Topology topo = make_grid(f.net, 5, 5);
  // (1,1) -> (5,5): 4 + 4 = 8 hops on a 4-connected grid.
  EXPECT_EQ(hop_distance(f.net, topo.nodes[0], topo.nodes[24]), 8u);
}

TEST(Topology, HopDistanceUnreachable) {
  GridFixture f;
  const Topology a = make_line(f.net, 2);
  const NodeId island = f.net.add_node({100, 100});
  EXPECT_FALSE(hop_distance(f.net, a.nodes[0], island).has_value());
}

TEST(Topology, NearestNodeExactAndApproximate) {
  GridFixture f;
  const Topology topo = make_grid(f.net, 3, 3);
  EXPECT_EQ(nearest_node(f.net, topo, {2, 2}), topo.nodes[4]);
  EXPECT_EQ(nearest_node(f.net, topo, {2.2, 1.9}), topo.nodes[4]);
  EXPECT_EQ(nearest_node(f.net, topo, {0, 0}), topo.nodes[0]);
}

}  // namespace
}  // namespace agilla::sim
