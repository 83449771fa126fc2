#include "net/neighbor_table.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/topology.h"

namespace agilla::net {
namespace {

/// A full grid of link layers + neighbour tables.
struct Mesh {
  sim::Simulator sim{55};
  sim::Network net;
  sim::Topology topo;
  std::vector<std::unique_ptr<LinkLayer>> links;
  std::vector<std::unique_ptr<NeighborTable>> tables;

  Mesh(std::size_t w, std::size_t h,
       NeighborTable::Options options = NeighborTable::Options())
      : net(sim, std::make_unique<sim::GridNeighborRadio>(
                     sim::GridNeighborRadio::Options{.spacing = 1.0})) {
    topo = sim::make_grid(net, w, h);
    for (sim::NodeId id : topo.nodes) {
      links.push_back(std::make_unique<LinkLayer>(net, id));
      tables.push_back(std::make_unique<NeighborTable>(
          net, *links.back(), net.info(id).location, options));
      links.back()->attach();
      tables.back()->start();
    }
  }
};

TEST(NeighborTable, DiscoversGridNeighbors) {
  Mesh mesh(3, 3);
  mesh.sim.run_for(5 * sim::kSecond);
  // Corner node 0 hears 2 neighbours; center node 4 hears 4.
  EXPECT_EQ(mesh.tables[0]->size(), 2u);
  EXPECT_EQ(mesh.tables[4]->size(), 4u);
}

TEST(NeighborTable, EntriesSortedById) {
  Mesh mesh(3, 3);
  mesh.sim.run_for(5 * sim::kSecond);
  const auto& entries = mesh.tables[4]->entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].id, entries[i].id);
  }
}

TEST(NeighborTable, ByIndexAndById) {
  Mesh mesh(2, 1);
  mesh.sim.run_for(3 * sim::kSecond);
  ASSERT_EQ(mesh.tables[0]->size(), 1u);
  const auto by_index = mesh.tables[0]->by_index(0);
  ASSERT_TRUE(by_index.has_value());
  EXPECT_EQ(by_index->id, mesh.topo.nodes[1]);
  EXPECT_TRUE(mesh.tables[0]->by_id(mesh.topo.nodes[1]).has_value());
  EXPECT_FALSE(mesh.tables[0]->by_id(sim::NodeId{99}).has_value());
  EXPECT_FALSE(mesh.tables[0]->by_index(5).has_value());
}

TEST(NeighborTable, RandomNeighborFromPopulatedTable) {
  Mesh mesh(3, 1);
  mesh.sim.run_for(3 * sim::kSecond);
  sim::Rng rng(1);
  const auto pick = mesh.tables[1]->random(rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_TRUE(pick->id == mesh.topo.nodes[0] ||
              pick->id == mesh.topo.nodes[2]);
}

TEST(NeighborTable, RandomFromEmptyIsNull) {
  sim::Simulator sim{1};
  sim::Network net(sim, std::make_unique<sim::PerfectRadio>());
  const sim::NodeId id = net.add_node({0, 0});
  LinkLayer link(net, id);
  NeighborTable table(net, link, {0, 0});
  sim::Rng rng(1);
  EXPECT_FALSE(table.random(rng).has_value());
}

TEST(NeighborTable, ClosestToPrefersNearerNeighbor) {
  Mesh mesh(3, 1);
  mesh.sim.run_for(3 * sim::kSecond);
  // Node 0 at (1,1); neighbours discovered: node 1 at (2,1).
  const auto toward = mesh.tables[1]->closest_to({10, 1});
  ASSERT_TRUE(toward.has_value());
  EXPECT_EQ(toward->id, mesh.topo.nodes[2]);
}

TEST(NeighborTable, DeadNeighborExpires) {
  Mesh mesh(2, 1);
  mesh.sim.run_for(3 * sim::kSecond);
  ASSERT_EQ(mesh.tables[0]->size(), 1u);
  // Kill node 1's radio; its beacons stop and the entry ages out.
  mesh.net.set_radio_enabled(mesh.topo.nodes[1], false);
  mesh.sim.run_for(10 * sim::kSecond);
  EXPECT_EQ(mesh.tables[0]->size(), 0u);
}

TEST(NeighborTable, ManualInsertAndUpdate) {
  sim::Simulator sim{1};
  sim::Network net(sim, std::make_unique<sim::PerfectRadio>());
  const sim::NodeId id = net.add_node({0, 0});
  LinkLayer link(net, id);
  NeighborTable table(net, link, {0, 0});
  table.insert(sim::NodeId{5}, {1, 0});
  table.insert(sim::NodeId{5}, {2, 0});  // update, not duplicate
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.by_id(sim::NodeId{5})->location, (sim::Location{2, 0}));
}

TEST(NeighborTable, CapacityEvictsStalest) {
  sim::Simulator sim{1};
  sim::Network net(sim, std::make_unique<sim::PerfectRadio>());
  const sim::NodeId id = net.add_node({0, 0});
  LinkLayer link(net, id);
  NeighborTable table(net, link, {0, 0});
  // Fill every slot, one tick apart, so node 1 is the stalest entry.
  constexpr auto kFull = static_cast<std::uint32_t>(NeighborTable::kCapacity);
  for (std::uint32_t i = 1; i <= kFull; ++i) {
    table.insert(sim::NodeId{i}, {static_cast<double>(i), 0});
    sim.run_for(1);
  }
  table.insert(sim::NodeId{kFull + 1}, {kFull + 1.0, 0});  // evicts node 1
  EXPECT_EQ(table.size(), NeighborTable::kCapacity);
  EXPECT_FALSE(table.by_id(sim::NodeId{1}).has_value());
  EXPECT_TRUE(table.by_id(sim::NodeId{kFull + 1}).has_value());
}

TEST(NeighborTable, BeaconCarriesEnergyStateToListeners) {
  Mesh mesh(2, 1);
  // Node 1 advertises a half-full battery and a 10-unit check period.
  mesh.tables[1]->set_self_state([] {
    return BeaconSelfState{/*residual=*/128, /*period_units=*/10};
  });
  mesh.sim.run_for(3 * sim::kSecond);
  const auto entry = mesh.tables[0]->by_id(mesh.topo.nodes[1]);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->residual, 128);
  EXPECT_EQ(entry->period_units, 10);
  EXPECT_NEAR(entry->residual_frac(), 0.5, 0.01);
  // The sender sizes a unicast preamble from the advertised period.
  const auto ext = mesh.tables[0]->preamble_extension_for(mesh.topo.nodes[1]);
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(*ext, 9 * 8 * sim::kMillisecond);
  // An unknown destination falls back to the sender's own schedule.
  EXPECT_FALSE(
      mesh.tables[0]->preamble_extension_for(sim::NodeId{77}).has_value());
}

TEST(NeighborTable, SuppressionBacksBeaconsOffWhileStable) {
  Mesh mesh(2, 1, NeighborTable::Options{.suppression = Suppression::kOn});
  // Discovery settles in the first seconds; after that the table is
  // stable and the period walks 1 s -> 8 s.
  mesh.sim.run_for(10 * sim::kSecond);
  const auto early =
      mesh.net.stats().sent_by_type[sim::AmType::kBeacon];
  mesh.sim.run_for(40 * sim::kSecond);
  const auto late =
      mesh.net.stats().sent_by_type[sim::AmType::kBeacon] - early;
  // 40 s at the 8 s backed-off period: ~5 beacons per node, far below
  // the 40 an unsuppressed node would send.
  EXPECT_LE(late, 2 * 8u);
  EXPECT_GE(late, 2 * 3u);
  EXPECT_EQ(mesh.tables[0]->current_beacon_interval(), 8 * sim::kSecond);
}

TEST(NeighborTable, SuppressedTableStillEvictsTheDead) {
  Mesh mesh(2, 1, NeighborTable::Options{.suppression = Suppression::kOn});
  mesh.sim.run_for(40 * sim::kSecond);  // fully backed off
  ASSERT_EQ(mesh.tables[0]->size(), 1u);
  mesh.net.set_radio_enabled(mesh.topo.nodes[1], false);
  // The victim advertised the 8 s interval, so eviction takes up to
  // 3 * 8 s plus a sweep period — well before 30 s.
  mesh.sim.run_for(30 * sim::kSecond);
  EXPECT_EQ(mesh.tables[0]->size(), 0u);
}

TEST(NeighborTable, ResidualDropResetsTheBackoff) {
  Mesh mesh(2, 1, NeighborTable::Options{.suppression = Suppression::kOn});
  std::uint8_t residual = 255;
  mesh.tables[1]->set_self_state([&residual] {
    return BeaconSelfState{residual, 1};
  });
  mesh.sim.run_for(40 * sim::kSecond);
  ASSERT_EQ(mesh.tables[1]->current_beacon_interval(), 8 * sim::kSecond);
  // A >= 5 % drop per beacon is material: while the relay keeps
  // draining, every beacon resets the backoff, so the period stays at
  // the base and listeners track the residual closely.
  for (int i = 0; i < 12; ++i) {
    residual = static_cast<std::uint8_t>(residual - 15);
    mesh.sim.run_for(1 * sim::kSecond);
  }
  EXPECT_EQ(mesh.tables[1]->current_beacon_interval(), 1 * sim::kSecond);
  const auto entry = mesh.tables[0]->by_id(mesh.topo.nodes[1]);
  ASSERT_TRUE(entry.has_value());
  // The listener's copy is at most a couple of beacons stale.
  EXPECT_LE(static_cast<int>(entry->residual) -
                static_cast<int>(residual),
            3 * 15);
}

TEST(NeighborTable, PiggybackRefreshesEntriesWithoutBeacons) {
  Mesh mesh(2, 1);
  mesh.sim.run_for(3 * sim::kSecond);
  ASSERT_EQ(mesh.tables[0]->size(), 1u);
  // Silence node 1's beacons entirely; wire its piggyback through the
  // link layer the way the middleware does under suppression.
  mesh.tables[1]->stop();
  mesh.links[1]->set_piggyback(
      [&] { return mesh.tables[1]->make_piggyback(); },
      [&](sim::NodeId from, std::span<const std::uint8_t> bytes) {
        mesh.tables[1]->on_piggyback(from, bytes);
      });
  mesh.links[0]->set_piggyback(
      nullptr, [&](sim::NodeId from, std::span<const std::uint8_t> bytes) {
        mesh.tables[0]->on_piggyback(from, bytes);
      });
  // Data traffic from the silent node keeps its entry alive at node 0
  // long past the 3-period expiry horizon.
  for (int second = 0; second < 12; ++second) {
    mesh.links[1]->send_unacked(mesh.topo.nodes[0], sim::AmType::kTsRequest,
                                {1, 2, 3});
    mesh.sim.run_for(1 * sim::kSecond);
  }
  EXPECT_TRUE(mesh.tables[0]->by_id(mesh.topo.nodes[1]).has_value());
}

TEST(NeighborTable, DiscoveryHandlerFiresOnNewEntriesOnly) {
  sim::Simulator sim{1};
  sim::Network net(sim, std::make_unique<sim::PerfectRadio>());
  const sim::NodeId id = net.add_node({0, 0});
  LinkLayer link(net, id);
  NeighborTable table(net, link, {0, 0});
  int discoveries = 0;
  table.set_discovery_handler(
      [&](sim::NodeId, sim::Location) { ++discoveries; });
  table.insert(sim::NodeId{5}, {1, 0});
  table.insert(sim::NodeId{5}, {2, 0});  // refresh, not a discovery
  EXPECT_EQ(discoveries, 1);
  table.insert(sim::NodeId{6}, {3, 0});
  EXPECT_EQ(discoveries, 2);
}

TEST(NeighborTable, StopHaltsBeaconing) {
  Mesh mesh(2, 1);
  mesh.sim.run_for(3 * sim::kSecond);
  mesh.tables[0]->stop();
  mesh.tables[1]->stop();
  const auto sent = mesh.net.stats().sent_by_type[sim::AmType::kBeacon];
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(mesh.net.stats().sent_by_type[sim::AmType::kBeacon], sent);
}

}  // namespace
}  // namespace agilla::net
