#include "net/neighbor_table.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "energy/energy_model.h"
#include "net_test_mote.h"
#include "sim/topology.h"

namespace agilla::net {
namespace {

using testing::TestMote;

/// A full grid of motes (link layer, neighbour table, geo router), with
/// the energy subsystem attached when `energy` is given.
struct Mesh {
  sim::Simulator sim{55};
  sim::Network net;
  sim::Topology topo;
  std::vector<std::unique_ptr<TestMote>> motes;

  Mesh(std::size_t w, std::size_t h,
       NeighborTable::Options options = NeighborTable::Options(),
       const energy::EnergyOptions* energy = nullptr)
      : net(sim) {
    topo = sim::make_grid(net, w, h);
    if (energy != nullptr) {
      net.attach_energy(*energy);
    }
    for (sim::NodeId id : topo.nodes) {
      motes.push_back(std::make_unique<TestMote>(net, id, options));
      motes.back()->start();
    }
  }

  NeighborTable& table(std::size_t i) { return motes[i]->table; }
};

/// A battery large enough that radio and idle draw over a test stay far
/// below one residual step (1/255 of capacity).
constexpr double kBatteryMj = 1e6;

/// Drains node `id`'s battery by `steps` residual steps.
void drain_steps(sim::Network& net, sim::NodeId id, double steps) {
  energy::Battery* battery = net.battery(id);
  ASSERT_NE(battery, nullptr);
  battery->drain(energy::EnergyComponent::kCpu, kBatteryMj * steps / 255.0);
}

/// The residual byte node `id` advertises now.
std::uint8_t residual_of(sim::Network& net, sim::NodeId id) {
  const energy::Battery* battery = net.battery(id);
  return encode_residual(battery->remaining_mj() / battery->capacity_mj());
}

TEST(NeighborTable, DiscoversGridNeighbors) {
  Mesh mesh(3, 3);
  mesh.sim.run_for(5 * sim::kSecond);
  // Corner node 0 hears 2 neighbours; center node 4 hears 4.
  EXPECT_EQ(mesh.table(0).size(), 2u);
  EXPECT_EQ(mesh.table(4).size(), 4u);
}

TEST(NeighborTable, EntriesSortedById) {
  Mesh mesh(3, 3);
  mesh.sim.run_for(5 * sim::kSecond);
  const auto& entries = mesh.table(4).entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].id, entries[i].id);
  }
}

TEST(NeighborTable, ByIndexAndById) {
  Mesh mesh(2, 1);
  mesh.sim.run_for(3 * sim::kSecond);
  ASSERT_EQ(mesh.table(0).size(), 1u);
  const auto by_index = mesh.table(0).by_index(0);
  ASSERT_TRUE(by_index.has_value());
  EXPECT_EQ(by_index->id, mesh.topo.nodes[1]);
  EXPECT_TRUE(mesh.table(0).by_id(mesh.topo.nodes[1]).has_value());
  EXPECT_FALSE(mesh.table(0).by_id(sim::NodeId{99}).has_value());
  EXPECT_FALSE(mesh.table(0).by_index(5).has_value());
}

TEST(NeighborTable, RandomNeighborFromPopulatedTable) {
  Mesh mesh(3, 1);
  mesh.sim.run_for(3 * sim::kSecond);
  sim::Rng rng(1);
  const auto pick = mesh.table(1).random(rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_TRUE(pick->id == mesh.topo.nodes[0] ||
              pick->id == mesh.topo.nodes[2]);
}

TEST(NeighborTable, RandomFromEmptyIsNull) {
  sim::Simulator sim{1};
  sim::Network net(sim);
  const sim::NodeId id = net.add_node({0, 0});
  TestMote mote(net, id);
  NeighborTable& table = mote.table;
  sim::Rng rng(1);
  EXPECT_FALSE(table.random(rng).has_value());
}

TEST(NeighborTable, ClosestToPrefersNearerNeighbor) {
  Mesh mesh(3, 1);
  mesh.sim.run_for(3 * sim::kSecond);
  // Node 0 at (1,1); neighbours discovered: node 1 at (2,1).
  const auto toward = mesh.table(1).closest_to({10, 1});
  ASSERT_TRUE(toward.has_value());
  EXPECT_EQ(toward->id, mesh.topo.nodes[2]);
}

TEST(NeighborTable, DeadNeighborExpires) {
  Mesh mesh(2, 1);
  mesh.sim.run_for(3 * sim::kSecond);
  ASSERT_EQ(mesh.table(0).size(), 1u);
  // Kill node 1's radio; its beacons stop and the entry ages out.
  mesh.net.set_radio_enabled(mesh.topo.nodes[1], false);
  mesh.sim.run_for(10 * sim::kSecond);
  EXPECT_EQ(mesh.table(0).size(), 0u);
}

TEST(NeighborTable, ManualInsertAndUpdate) {
  sim::Simulator sim{1};
  sim::Network net(sim);
  const sim::NodeId id = net.add_node({0, 0});
  TestMote mote(net, id);
  NeighborTable& table = mote.table;
  table.insert(sim::NodeId{5}, {1, 0});
  table.insert(sim::NodeId{5}, {2, 0});  // update, not duplicate
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.by_id(sim::NodeId{5})->location, (sim::Location{2, 0}));
}

TEST(NeighborTable, CapacityEvictsStalest) {
  sim::Simulator sim{1};
  sim::Network net(sim);
  const sim::NodeId id = net.add_node({0, 0});
  TestMote mote(net, id);
  NeighborTable& table = mote.table;
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
  // Every mote listens 10 % of the time (an 80 ms check period, 10
  // wake-time units); node 1's battery is drained to half.
  energy::EnergyOptions energy;
  energy.battery_mj = kBatteryMj;
  energy.duty.listen_fraction = 0.1;
  Mesh mesh(2, 1, NeighborTable::Options(), &energy);
  drain_steps(mesh.net, mesh.topo.nodes[1], 255 - 128);
  mesh.sim.run_for(3 * sim::kSecond);
  const auto entry = mesh.table(0).by_id(mesh.topo.nodes[1]);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->residual, 128);
  EXPECT_EQ(entry->period_units, 10);
  EXPECT_NEAR(entry->residual_frac(), 0.5, 0.01);
  // The sender sizes a unicast preamble from the advertised period.
  const auto ext = mesh.table(0).preamble_extension_for(mesh.topo.nodes[1]);
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(*ext, 9 * 8 * sim::kMillisecond);
  // An unknown destination falls back to the sender's own schedule.
  EXPECT_FALSE(
      mesh.table(0).preamble_extension_for(sim::NodeId{77}).has_value());
}

TEST(NeighborTable, SuppressionBacksBeaconsOffWhileStable) {
  Mesh mesh(2, 1, NeighborTable::Options{.suppression = Suppression::kOn});
  // Discovery settles in the first seconds; after that the table is
  // stable and the period walks 1 s -> 8 s.
  mesh.sim.run_for(10 * sim::kSecond);
  const auto early = mesh.net.stats().sent(sim::AmType::kBeacon);
  mesh.sim.run_for(40 * sim::kSecond);
  const auto late = mesh.net.stats().sent(sim::AmType::kBeacon) - early;
  // 40 s at the 8 s backed-off period: ~5 beacons per node, far below
  // the 40 an unsuppressed node would send.
  EXPECT_LE(late, 2 * 8u);
  EXPECT_GE(late, 2 * 3u);
  EXPECT_EQ(mesh.table(0).current_beacon_interval(), 8 * sim::kSecond);
}

TEST(NeighborTable, SuppressedTableStillEvictsTheDead) {
  Mesh mesh(2, 1, NeighborTable::Options{.suppression = Suppression::kOn});
  mesh.sim.run_for(40 * sim::kSecond);  // fully backed off
  ASSERT_EQ(mesh.table(0).size(), 1u);
  mesh.net.set_radio_enabled(mesh.topo.nodes[1], false);
  // The victim advertised the 8 s interval, so eviction takes up to
  // 3 * 8 s plus a sweep period — well before 30 s.
  mesh.sim.run_for(30 * sim::kSecond);
  EXPECT_EQ(mesh.table(0).size(), 0u);
}

TEST(NeighborTable, ResidualDropResetsTheBackoff) {
  energy::EnergyOptions energy;
  energy.battery_mj = kBatteryMj;
  Mesh mesh(2, 1, NeighborTable::Options{.suppression = Suppression::kOn},
            &energy);
  const sim::NodeId relay = mesh.topo.nodes[1];
  mesh.sim.run_for(40 * sim::kSecond);
  ASSERT_EQ(residual_of(mesh.net, relay), 255);
  ASSERT_EQ(mesh.table(1).current_beacon_interval(), 8 * sim::kSecond);
  // A >= 5 % drop per beacon is material: while the relay keeps
  // draining, every beacon resets the backoff, so the period stays at
  // the base and listeners track the residual closely.
  for (int i = 0; i < 12; ++i) {
    drain_steps(mesh.net, relay, 15);
    mesh.sim.run_for(1 * sim::kSecond);
  }
  EXPECT_EQ(mesh.table(1).current_beacon_interval(), 1 * sim::kSecond);
  const auto entry = mesh.table(0).by_id(relay);
  ASSERT_TRUE(entry.has_value());
  // The listener's copy is at most a couple of beacons stale.
  EXPECT_LE(static_cast<int>(entry->residual) -
                static_cast<int>(residual_of(mesh.net, relay)),
            3 * 15);
}

TEST(NeighborTable, PiggybackRefreshesEntriesWithoutBeacons) {
  // Under suppression the link layer piggybacks the table's beacon on
  // data frames and feeds arriving piggybacks to the table.
  Mesh mesh(2, 1, NeighborTable::Options{.suppression = Suppression::kOn});
  mesh.sim.run_for(3 * sim::kSecond);
  ASSERT_EQ(mesh.table(0).size(), 1u);
  // Silence node 1's beacons entirely.
  mesh.table(1).stop();
  // Data traffic from the silent node keeps its entry alive at node 0
  // long past the 3-period expiry horizon.
  for (int second = 0; second < 12; ++second) {
    mesh.motes[1]->link.send_unacked(mesh.topo.nodes[0],
                                     sim::AmType::kTsRequest, {1, 2, 3});
    mesh.sim.run_for(1 * sim::kSecond);
  }
  EXPECT_TRUE(mesh.table(0).by_id(mesh.topo.nodes[1]).has_value());
}

TEST(NeighborTable, WithoutSuppressionDataFramesCarryNoBeacon) {
  Mesh mesh(2, 1, NeighborTable::Options{.suppression = Suppression::kOff});
  mesh.sim.run_for(3 * sim::kSecond);
  ASSERT_EQ(mesh.table(0).size(), 1u);
  mesh.table(1).stop();
  for (int second = 0; second < 12; ++second) {
    mesh.motes[1]->link.send_unacked(mesh.topo.nodes[0],
                                     sim::AmType::kTsRequest, {1, 2, 3});
    mesh.sim.run_for(1 * sim::kSecond);
  }
  EXPECT_FALSE(mesh.table(0).by_id(mesh.topo.nodes[1]).has_value());
}

TEST(NeighborTable, ListenerHearsOfNewEntriesOnly) {
  struct Counter final : NeighborTable::Listener {
    int discoveries = 0;
    void on_neighbor_discovered(sim::NodeId, sim::Location) override {
      ++discoveries;
    }
  } counter;
  sim::Simulator sim{1};
  sim::Network net(sim);
  const sim::NodeId id = net.add_node({0, 0});
  TestMote mote(net, id);
  NeighborTable table(net, mote.link, {0, 0}, NeighborTable::Options(),
                      &counter);
  table.insert(sim::NodeId{5}, {1, 0});
  table.insert(sim::NodeId{5}, {2, 0});  // refresh, not a discovery
  EXPECT_EQ(counter.discoveries, 1);
  table.insert(sim::NodeId{6}, {3, 0});
  EXPECT_EQ(counter.discoveries, 2);
}

TEST(NeighborTable, StopHaltsBeaconing) {
  Mesh mesh(2, 1);
  mesh.sim.run_for(3 * sim::kSecond);
  mesh.table(0).stop();
  mesh.table(1).stop();
  const auto sent = mesh.net.stats().sent(sim::AmType::kBeacon);
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(mesh.net.stats().sent(sim::AmType::kBeacon), sent);
}

}  // namespace
}  // namespace agilla::net
