// Property sweeps over greedy geographic routing: progress (each hop is
// strictly closer to the destination), no loops, and delivery on connected
// grids without loss.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/geo_router.h"
#include "net_test_mote.h"
#include "sim/topology.h"

namespace agilla::net {
namespace {

using testing::TestMote;

struct RoutedMesh {
  sim::Simulator sim;
  sim::Network net;
  sim::Topology topo;
  std::vector<std::unique_ptr<TestMote>> motes;

  RoutedMesh(std::size_t w, std::size_t h, std::uint64_t seed)
      : sim(seed),
        net(sim) {
    topo = sim::make_grid(net, w, h);
    for (sim::NodeId id : topo.nodes) {
      motes.push_back(std::make_unique<TestMote>(net, id));
      motes.back()->start();
    }
    sim.run_for(5 * sim::kSecond);
  }

  GeoRouter& router(std::size_t i) { return motes[i]->router; }
};

class RoutingSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingSweep, GreedyPathMakesStrictProgress) {
  RoutedMesh mesh(5, 5, GetParam());
  sim::Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t src = rng.uniform(mesh.topo.size());
    const std::size_t dst = rng.uniform(mesh.topo.size());
    const sim::Location dest_loc =
        mesh.net.info(mesh.topo.nodes[dst]).location;

    // Follow decide() by hand and check distance decreases every hop.
    std::size_t current = src;
    std::size_t hops = 0;
    while (true) {
      ASSERT_LT(hops, mesh.topo.size()) << "routing loop detected";
      const auto decision = mesh.router(current).decide(dest_loc, 0.3);
      if (decision.kind == GeoRouter::Decision::Kind::kDeliverLocal) {
        EXPECT_EQ(current, dst);
        break;
      }
      ASSERT_EQ(decision.kind, GeoRouter::Decision::Kind::kForward)
          << "no route on a fully connected grid";
      const double before = distance(
          mesh.net.info(mesh.topo.nodes[current]).location, dest_loc);
      current = decision.next_hop.value;
      const double after = distance(
          mesh.net.info(mesh.topo.nodes[current]).location, dest_loc);
      EXPECT_LT(after, before);
      ++hops;
    }
    // Greedy on a full grid takes exactly the Manhattan distance.
    const auto manhattan = hop_distance(mesh.net, mesh.topo.nodes[src],
                                        mesh.topo.nodes[dst]);
    ASSERT_TRUE(manhattan.has_value());
    EXPECT_EQ(hops, *manhattan);
  }
}

TEST_P(RoutingSweep, EveryPairDeliversOnLosslessGrid) {
  RoutedMesh mesh(4, 4, GetParam());
  int delivered = 0;
  for (std::size_t dst = 0; dst < mesh.topo.size(); ++dst) {
    mesh.motes[dst]->geo_handlers[sim::AmType::kTsRequest] =
        [&](const GeoHeader&, std::span<const std::uint8_t>) { ++delivered; };
  }
  int sent = 0;
  for (std::size_t src = 0; src < mesh.topo.size(); ++src) {
    for (std::size_t dst = 0; dst < mesh.topo.size(); ++dst) {
      if (src == dst) {
        continue;
      }
      mesh.router(src).send(
          mesh.net.info(mesh.topo.nodes[dst]).location, 0.3,
          sim::AmType::kTsRequest, {},
          mesh.net.info(mesh.topo.nodes[src]).location);
      ++sent;
    }
  }
  mesh.sim.run_for(120 * sim::kSecond);
  EXPECT_EQ(delivered, sent);
}

TEST_P(RoutingSweep, HolesCauseNoRouteNotLoops) {
  // Disable a column of a 5x1 line: greedy routing must fail cleanly.
  RoutedMesh mesh(5, 1, GetParam());
  mesh.net.set_radio_enabled(mesh.topo.nodes[2], false);
  mesh.sim.run_for(10 * sim::kSecond);  // let the entry expire
  const auto d = mesh.router(1).decide({5, 1}, 0.3);
  // Node 1's only remaining neighbour (node 0) is farther from (5,1).
  EXPECT_EQ(d.kind, GeoRouter::Decision::Kind::kNoRoute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingSweep, ::testing::Values(3, 17, 99));

}  // namespace
}  // namespace agilla::net
