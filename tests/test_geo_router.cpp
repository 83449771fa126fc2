#include "net/geo_router.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/topology.h"

namespace agilla::net {
namespace {

struct RoutedMesh {
  sim::Simulator sim{99};
  sim::Network net;
  sim::Topology topo;
  std::vector<std::unique_ptr<LinkLayer>> links;
  std::vector<std::unique_ptr<NeighborTable>> tables;
  std::vector<std::unique_ptr<GeoRouter>> routers;

  RoutedMesh(std::size_t w, std::size_t h, double loss = 0.0)
      : net(sim, sim::ChannelLoss{.packet_loss = loss}) {
    topo = sim::make_grid(net, w, h);
    for (sim::NodeId id : topo.nodes) {
      const sim::Location loc = net.info(id).location;
      links.push_back(std::make_unique<LinkLayer>(net, id));
      tables.push_back(
          std::make_unique<NeighborTable>(net, *links.back(), loc));
      routers.push_back(std::make_unique<GeoRouter>(
          net, *links.back(), *tables.back(), loc));
      links.back()->attach();
      tables.back()->start();
    }
    sim.run_for(5 * sim::kSecond);  // warm the neighbour tables
  }
};

TEST(GeoRouter, DecideDeliversWhenWithinEpsilon) {
  RoutedMesh mesh(3, 1);
  const auto d = mesh.routers[0]->decide({1.05, 1.0}, 0.3);
  EXPECT_EQ(d.kind, GeoRouter::Decision::Kind::kDeliverLocal);
}

TEST(GeoRouter, DecideForwardsToCloserNeighbor) {
  RoutedMesh mesh(3, 1);
  const auto d = mesh.routers[0]->decide({3.0, 1.0}, 0.3);
  ASSERT_EQ(d.kind, GeoRouter::Decision::Kind::kForward);
  EXPECT_EQ(d.next_hop, mesh.topo.nodes[1]);
}

TEST(GeoRouter, DecideNoRouteWhenNoProgressPossible) {
  RoutedMesh mesh(2, 1);
  // Destination far to the LEFT of node 0: node 1 is farther, so no route.
  const auto d = mesh.routers[0]->decide({-10.0, 1.0}, 0.3);
  EXPECT_EQ(d.kind, GeoRouter::Decision::Kind::kNoRoute);
}

TEST(GeoRouter, DeliversAcrossMultipleHops) {
  RoutedMesh mesh(5, 1);
  std::vector<std::uint8_t> got;
  sim::Location origin{0, 0};
  mesh.routers[4]->register_handler(
      sim::AmType::kTsRequest,
      [&](const GeoHeader& h, std::span<const std::uint8_t> p) {
        got.assign(p.begin(), p.end());
        origin = h.origin;
      });
  mesh.routers[0]->send({5, 1}, 0.3, sim::AmType::kTsRequest, {7, 7},
                        {1, 1});
  mesh.sim.run_for(2 * sim::kSecond);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{7, 7}));
  EXPECT_EQ(origin, (sim::Location{1, 1}));
  EXPECT_EQ(mesh.routers[4]->stats().delivered, 1u);
}

TEST(GeoRouter, ReRegistrationReplacesTheHandler) {
  RoutedMesh mesh(3, 1);
  int first = 0;
  int second = 0;
  mesh.routers[2]->register_handler(
      sim::AmType::kTsRequest,
      [&](const GeoHeader&, std::span<const std::uint8_t>) { ++first; });
  mesh.routers[0]->send({3, 1}, 0.3, sim::AmType::kTsRequest, {1}, {1, 1});
  mesh.sim.run_for(1 * sim::kSecond);
  mesh.routers[2]->register_handler(
      sim::AmType::kTsRequest,
      [&](const GeoHeader&, std::span<const std::uint8_t>) { ++second; });
  mesh.routers[0]->send({3, 1}, 0.3, sim::AmType::kTsRequest, {2}, {1, 1});
  mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(GeoRouter, UnregisteredInnerAmReachesNoHandler) {
  RoutedMesh mesh(3, 1);
  int requests = 0;
  mesh.routers[2]->register_handler(
      sim::AmType::kTsRequest,
      [&](const GeoHeader&, std::span<const std::uint8_t>) { ++requests; });
  mesh.routers[0]->send({3, 1}, 0.3, sim::AmType::kTsReply, {1}, {1, 1});
  mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_EQ(requests, 0);
  // Routing still counts the arrival; only the upcall is missing.
  EXPECT_EQ(mesh.routers[2]->stats().delivered, 1u);
}

TEST(GeoRouter, RoutesAroundTwoDimensions) {
  RoutedMesh mesh(4, 4);
  int delivered = 0;
  mesh.routers[15]->register_handler(
      sim::AmType::kTsRequest,
      [&](const GeoHeader&, std::span<const std::uint8_t>) { ++delivered; });
  mesh.routers[0]->send({4, 4}, 0.3, sim::AmType::kTsRequest, {1}, {1, 1});
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_EQ(delivered, 1);
}

TEST(GeoRouter, ReplyFlowsBackToOrigin) {
  RoutedMesh mesh(5, 1);
  int replies = 0;
  mesh.routers[4]->register_handler(
      sim::AmType::kTsRequest,
      [&](const GeoHeader& h, std::span<const std::uint8_t>) {
        mesh.routers[4]->send(h.origin, 0.3, sim::AmType::kTsReply, {1},
                              {5, 1});
      });
  mesh.routers[0]->register_handler(
      sim::AmType::kTsReply,
      [&](const GeoHeader&, std::span<const std::uint8_t>) { ++replies; });
  mesh.routers[0]->send({5, 1}, 0.3, sim::AmType::kTsRequest, {}, {1, 1});
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_EQ(replies, 1);
}

TEST(GeoRouter, ForwardCountMatchesHops) {
  RoutedMesh mesh(5, 1);
  mesh.routers[4]->register_handler(
      sim::AmType::kTsRequest,
      [](const GeoHeader&, std::span<const std::uint8_t>) {});
  mesh.routers[0]->send({5, 1}, 0.3, sim::AmType::kTsRequest, {}, {1, 1});
  mesh.sim.run_for(3 * sim::kSecond);
  // Origin counts 1 originated + 1 forward (to first hop); intermediate
  // nodes 1..3 each forward once.
  std::uint64_t forwards = 0;
  for (const auto& r : mesh.routers) {
    forwards += r->stats().forwarded;
  }
  EXPECT_EQ(forwards, 4u);  // 4 radio hops for 4 links
}

TEST(GeoRouter, NoRouteCountsWhenStuck) {
  RoutedMesh mesh(2, 1);
  mesh.routers[0]->send({-10, 1}, 0.3, sim::AmType::kTsRequest, {}, {1, 1});
  mesh.sim.run_for(1 * sim::kSecond);
  EXPECT_EQ(mesh.routers[0]->stats().no_route, 1u);
}

TEST(GeoRouter, EpsilonZeroRequiresExactNode) {
  RoutedMesh mesh(3, 1);
  const auto d = mesh.routers[0]->decide({1.2, 1.0}, 0.0);
  // 0.2 away from node 0, all neighbours farther -> no route, not deliver.
  EXPECT_EQ(d.kind, GeoRouter::Decision::Kind::kNoRoute);
}

TEST(GeoRouter, LargeEpsilonDeliversEarly) {
  RoutedMesh mesh(5, 1);
  int delivered_at_3 = 0;
  mesh.routers[3]->register_handler(
      sim::AmType::kTsRequest,
      [&](const GeoHeader&, std::span<const std::uint8_t>) {
        ++delivered_at_3;
      });
  // Destination (4.6, 1): node 4 at (5,1) is within 0.5... but node 3 at
  // (4,1) is too (0.6 > 0.5, not). Use dest 4.3: node 3 is 0.3 away.
  mesh.routers[0]->send({4.3, 1.0}, 0.35, sim::AmType::kTsRequest, {},
                        {1, 1});
  mesh.sim.run_for(2 * sim::kSecond);
  EXPECT_EQ(delivered_at_3, 1);
}

TEST(GeoRouter, TtlBoundsForwarding) {
  RoutedMesh mesh(5, 1);
  int delivered = 0;
  mesh.routers[4]->register_handler(
      sim::AmType::kTsRequest,
      [&](const GeoHeader&, std::span<const std::uint8_t>) { ++delivered; });
  // Hand-craft an envelope with ttl = 1: it can take exactly one more hop
  // after the origin's send, far short of the 4 links to (5,1).
  GeoHeader header;
  header.inner_am = sim::AmType::kTsRequest;
  header.dest = {5, 1};
  header.origin = {1, 1};
  header.epsilon = 0.3;
  header.ttl = 1;
  Writer w;
  header.write(w);
  mesh.links[0]->send_unacked(mesh.topo.nodes[1], sim::AmType::kGeo,
                              w.take());
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_EQ(delivered, 0);
  std::uint64_t expired = 0;
  for (const auto& r : mesh.routers) {
    expired += r->stats().ttl_expired;
  }
  EXPECT_EQ(expired, 1u);
}

TEST(GeoRouter, DefaultTtlSufficesForGridDiameters) {
  // The default TTL (32) must comfortably cover the testbed diameter.
  EXPECT_GE(GeoHeader::kDefaultTtl, 2 * (5 + 5));
}

// ------------------------------------------------- max-min residual policy

/// One node with a hand-seeded acquaintance list and a configurable
/// routing policy — decide() is a pure function of the table, so no
/// simulation time needs to pass.
struct PolicyFixture {
  sim::Simulator sim{7};
  sim::Network net;
  sim::NodeId self;
  LinkLayer link;
  NeighborTable table;
  GeoRouter router;

  explicit PolicyFixture(GeoRouter::Options options,
                         sim::Location at = {5, 5})
      : net(sim),
        self(net.add_node(at)),
        link(net, self),
        table(net, link, at),
        router(net, link, table, at, options) {}
};

TEST(MaxMinRouting, PrefersChargedNeighborAmongEqualProgress) {
  PolicyFixture f({.policy = RoutePolicy::kMaxMinResidual,
                   .energy_weight = 0.5});
  // Both neighbours offer identical progress toward (1,1); the west one
  // is nearly drained, the south one full.
  f.table.insert(sim::NodeId{1}, {4, 5}, /*residual=*/40,
                 /*period_units=*/1);
  f.table.insert(sim::NodeId{2}, {5, 4}, /*residual=*/255,
                 /*period_units=*/1);
  const auto d = f.router.decide({1, 1}, 0.3);
  ASSERT_EQ(d.kind, GeoRouter::Decision::Kind::kForward);
  EXPECT_EQ(d.next_hop, sim::NodeId{2});
}

TEST(MaxMinRouting, UsesDrainedRelayWhenItIsTheOnlyProgress) {
  PolicyFixture f({.policy = RoutePolicy::kMaxMinResidual,
                   .residual_floor = 0.25});
  // The only neighbour with forward progress sits below the floor; a
  // full battery behind us must not lure the packet backwards.
  f.table.insert(sim::NodeId{1}, {4, 5}, /*residual=*/10,
                 /*period_units=*/1);
  f.table.insert(sim::NodeId{2}, {6, 5}, /*residual=*/255,
                 /*period_units=*/1);
  const auto d = f.router.decide({1, 5}, 0.3);
  ASSERT_EQ(d.kind, GeoRouter::Decision::Kind::kForward);
  EXPECT_EQ(d.next_hop, sim::NodeId{1});
}

TEST(MaxMinRouting, NoProgressIsNoRouteEvenWithFullBatteries) {
  PolicyFixture f({.policy = RoutePolicy::kMaxMinResidual});
  f.table.insert(sim::NodeId{1}, {6, 5}, 255, 1);
  f.table.insert(sim::NodeId{2}, {5, 6}, 255, 1);
  EXPECT_EQ(f.router.decide({1, 5}, 0.3).kind,
            GeoRouter::Decision::Kind::kNoRoute);
}

/// Property: whenever some neighbour with forward progress sits above
/// the residual floor, max-min never selects one at or below it.
TEST(MaxMinRouting, PropertyNeverPicksBelowFloorWhenAlternativeExists) {
  sim::Rng rng(2024);
  for (int iteration = 0; iteration < 500; ++iteration) {
    const double floor = 0.1 + 0.05 * static_cast<double>(rng.uniform(8));
    PolicyFixture f({.policy = RoutePolicy::kMaxMinResidual,
                     .energy_weight =
                         0.1 * static_cast<double>(rng.uniform(11)),
                     .residual_floor = floor});
    const std::size_t count = 1 + rng.uniform(6);
    for (std::size_t i = 0; i < count; ++i) {
      f.table.insert(
          sim::NodeId{static_cast<std::uint16_t>(i + 1)},
          {1.0 + static_cast<double>(rng.uniform(9)),
           1.0 + static_cast<double>(rng.uniform(9))},
          static_cast<std::uint8_t>(rng.uniform(256)), 1);
    }
    const sim::Location dest{
        1.0 + static_cast<double>(rng.uniform(9)),
        1.0 + static_cast<double>(rng.uniform(9))};
    const auto d = f.router.decide(dest, 0.0);
    if (d.kind != GeoRouter::Decision::Kind::kForward) {
      continue;
    }
    const auto chosen = f.table.by_id(d.next_hop);
    ASSERT_TRUE(chosen.has_value());
    if (chosen->residual_frac() > floor) {
      continue;  // above the floor: nothing to check
    }
    // The policy picked a below-floor relay: that is only legal when no
    // above-floor neighbour makes forward progress.
    const double self_d = distance({5, 5}, dest);
    for (const auto& e : f.table.entries()) {
      EXPECT_FALSE(distance(e.location, dest) < self_d &&
                   e.residual_frac() > floor)
          << "iteration " << iteration << ": below-floor relay chosen "
          << "despite above-floor neighbour n" << e.id.value;
    }
  }
}

/// Property: with the energy term switched off and uniform residuals,
/// max-min degenerates to exactly the greedy choice (same forwarding
/// graph, so enabling the policy cannot change paper-faithful routes
/// until batteries actually diverge).
TEST(MaxMinRouting, PropertyZeroWeightUniformResidualMatchesGreedy) {
  sim::Rng rng(99);
  for (int iteration = 0; iteration < 500; ++iteration) {
    PolicyFixture greedy({.policy = RoutePolicy::kGreedyGeo});
    PolicyFixture maxmin({.policy = RoutePolicy::kMaxMinResidual,
                          .energy_weight = 0.0});
    const std::size_t count = 1 + rng.uniform(6);
    for (std::size_t i = 0; i < count; ++i) {
      const sim::Location loc{
          1.0 + static_cast<double>(rng.uniform(9)),
          1.0 + static_cast<double>(rng.uniform(9))};
      greedy.table.insert(sim::NodeId{static_cast<std::uint16_t>(i + 1)},
                          loc, 200, 1);
      maxmin.table.insert(sim::NodeId{static_cast<std::uint16_t>(i + 1)},
                          loc, 200, 1);
    }
    const sim::Location dest{
        1.0 + static_cast<double>(rng.uniform(9)),
        1.0 + static_cast<double>(rng.uniform(9))};
    const auto dg = greedy.router.decide(dest, 0.0);
    const auto dm = maxmin.router.decide(dest, 0.0);
    EXPECT_EQ(dg.kind, dm.kind) << "iteration " << iteration;
    if (dg.kind == GeoRouter::Decision::Kind::kForward) {
      EXPECT_EQ(dg.next_hop, dm.next_hop) << "iteration " << iteration;
    }
  }
}

}  // namespace
}  // namespace agilla::net
