#include "sim/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/topology.h"

namespace agilla::sim {
namespace {

struct NetFixture {
  Simulator sim{1234};
  Network net;

  explicit NetFixture(double loss = 0.0)
      : net(sim, std::make_unique<GridNeighborRadio>(GridNeighborRadio::Options{
                     .spacing = 1.0, .packet_loss = loss})) {}
};

TEST(RadioTiming, AirTimeMatchesBitrate) {
  // 36-byte payload + 7-byte header = 43 bytes = 344 bits at 38.4 kbps
  // ~= 8958 us, plus the per-packet MAC overhead.
  const SimTime t = air_time(36);
  EXPECT_EQ(t, kPerPacketOverhead + 8958);
}

TEST(RadioTiming, LargerFramesTakeLonger) {
  EXPECT_LT(air_time(4), air_time(40));
}

TEST(Network, UnicastDeliversToNeighbor) {
  NetFixture f;
  const NodeId a = f.net.add_node({1, 1});
  const NodeId b = f.net.add_node({2, 1});
  std::vector<std::uint8_t> received;
  f.net.set_receiver(b, [&](const Frame& frame) {
    received = frame.payload;
  });
  f.net.send(Frame{a, b, AmType::kBeacon, {1, 2, 3}});
  f.sim.run();
  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(f.net.stats().frames_delivered, 1u);
}

TEST(Network, DeliveryTakesAirTime) {
  NetFixture f;
  const NodeId a = f.net.add_node({1, 1});
  const NodeId b = f.net.add_node({2, 1});
  SimTime arrival = 0;
  f.net.set_receiver(b, [&](const Frame&) { arrival = f.sim.now(); });
  f.net.send(Frame{a, b, AmType::kBeacon, {0}});
  f.sim.run();
  EXPECT_GE(arrival, air_time(1));
}

TEST(Network, NonNeighborUnreachable) {
  NetFixture f;
  const NodeId a = f.net.add_node({1, 1});
  f.net.add_node({2, 1});
  const NodeId c = f.net.add_node({3, 1});
  bool received = false;
  f.net.set_receiver(c, [&](const Frame&) { received = true; });
  f.net.send(Frame{a, c, AmType::kBeacon, {}});
  f.sim.run();
  EXPECT_FALSE(received);
  EXPECT_EQ(f.net.stats().frames_unreachable, 1u);
}

TEST(Network, BroadcastReachesAllNeighbors) {
  NetFixture f;
  make_grid(f.net, 3, 3);
  const NodeId center{4};  // middle of a 3x3 row-major grid
  int deliveries = 0;
  for (std::uint16_t i = 0; i < 9; ++i) {
    f.net.set_receiver(NodeId{i}, [&](const Frame&) { ++deliveries; });
  }
  f.net.send(Frame{center, kBroadcastNode, AmType::kBeacon, {}});
  f.sim.run();
  EXPECT_EQ(deliveries, 4);  // 4-connected center has 4 neighbours
}

TEST(Network, TransmissionsSerializePerNode) {
  NetFixture f;
  const NodeId a = f.net.add_node({1, 1});
  const NodeId b = f.net.add_node({2, 1});
  std::vector<SimTime> arrivals;
  f.net.set_receiver(b, [&](const Frame&) {
    arrivals.push_back(f.sim.now());
  });
  f.net.send(Frame{a, b, AmType::kBeacon, {0}});
  f.net.send(Frame{a, b, AmType::kBeacon, {1}});
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // The second frame waits for the first to finish transmitting.
  EXPECT_GE(arrivals[1] - arrivals[0], air_time(1) - kMaxJitter);
}

TEST(Network, LossyChannelDropsRoughlyAtConfiguredRate) {
  NetFixture f(0.3);
  const NodeId a = f.net.add_node({1, 1});
  const NodeId b = f.net.add_node({2, 1});
  int received = 0;
  f.net.set_receiver(b, [&](const Frame&) { ++received; });
  constexpr int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    f.net.send(Frame{a, b, AmType::kBeacon, {}});
  }
  f.sim.run();
  EXPECT_NEAR(static_cast<double>(received) / kFrames, 0.7, 0.05);
  EXPECT_EQ(f.net.stats().frames_lost + f.net.stats().frames_delivered,
            static_cast<std::uint64_t>(kFrames));
}

TEST(Network, DisabledRadioNeitherSendsNorReceives) {
  NetFixture f;
  const NodeId a = f.net.add_node({1, 1});
  const NodeId b = f.net.add_node({2, 1});
  bool received = false;
  f.net.set_receiver(b, [&](const Frame&) { received = true; });

  f.net.set_radio_enabled(b, false);
  f.net.send(Frame{a, b, AmType::kBeacon, {}});
  f.sim.run();
  EXPECT_FALSE(received);

  f.net.set_radio_enabled(b, true);
  f.net.set_radio_enabled(a, false);
  f.net.send(Frame{a, b, AmType::kBeacon, {}});
  f.sim.run();
  EXPECT_FALSE(received);  // sender stalled

  // Re-enabling flushes the queued frame.
  f.net.set_radio_enabled(a, true);
  f.sim.run();
  EXPECT_TRUE(received);
}

TEST(Network, StatsCountByType) {
  NetFixture f;
  const NodeId a = f.net.add_node({1, 1});
  const NodeId b = f.net.add_node({2, 1});
  f.net.set_receiver(b, [](const Frame&) {});
  f.net.send(Frame{a, b, AmType::kBeacon, {}});
  f.net.send(Frame{a, b, AmType::kTsRequest, {}});
  f.net.send(Frame{a, b, AmType::kTsRequest, {}});
  f.sim.run();
  EXPECT_EQ(f.net.stats().sent_by_type.at(AmType::kBeacon), 1u);
  EXPECT_EQ(f.net.stats().sent_by_type.at(AmType::kTsRequest), 2u);
  EXPECT_EQ(f.net.stats().frames_sent, 3u);
}

TEST(Network, ConnectedNeighborsMatchesGrid) {
  NetFixture f;
  const Topology topo = make_grid(f.net, 5, 5);
  // Corner (1,1) = index 0 has 2 neighbours; center (3,3) = index 12 has 4.
  EXPECT_EQ(f.net.connected_neighbors(topo.nodes[0]).size(), 2u);
  EXPECT_EQ(f.net.connected_neighbors(topo.nodes[12]).size(), 4u);
}

}  // namespace
}  // namespace agilla::sim
