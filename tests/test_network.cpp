#include "sim/network.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "energy/energy_model.h"
#include "sim/topology.h"

namespace agilla::sim {
namespace {

struct NetFixture {
  Simulator sim{1234};
  Network net;

  explicit NetFixture(double loss = 0.0)
      : net(sim, ChannelLoss{.packet_loss = loss}) {}
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
    received.assign(frame.payload.begin(), frame.payload.end());
  });
  f.net.send(Frame{a, b, AmType::kBeacon, {1, 2, 3}, {}});
  f.sim.run();
  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(f.net.stats().frames_delivered, 1u);
}

TEST(Network, SendCarriesAFullFrameAndRefusesALongerPayload) {
  NetFixture f;
  const NodeId a = f.net.add_node({1, 1});
  const NodeId b = f.net.add_node({2, 1});
  std::size_t received = 0;
  f.net.set_receiver(b, [&](const Frame& frame) {
    received = frame.payload.size();
  });
  const std::vector<std::uint8_t> full(kFramePayloadBytes, 0xAB);
  f.net.send(Frame{a, b, AmType::kTsRequest, full, {}});
  const std::vector<std::uint8_t> over(kFramePayloadBytes + 1, 0xCD);
  EXPECT_THROW(f.net.send(Frame{a, b, AmType::kTsRequest, over, {}}),
               std::length_error);
  f.sim.run();
  EXPECT_EQ(received, kFramePayloadBytes);
  EXPECT_EQ(f.net.stats().frames_sent, 1u) << "the long frame never aired";
  EXPECT_EQ(f.net.stats().bytes_on_air, kFramePayloadBytes + kHeaderBytes);
}

TEST(Network, DeliveryTakesAirTime) {
  NetFixture f;
  const NodeId a = f.net.add_node({1, 1});
  const NodeId b = f.net.add_node({2, 1});
  SimTime arrival = 0;
  f.net.set_receiver(b, [&](const Frame&) { arrival = f.sim.now(); });
  f.net.send(Frame{a, b, AmType::kBeacon, {0}, {}});
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
  f.net.send(Frame{a, c, AmType::kBeacon, {}, {}});
  f.sim.run();
  EXPECT_FALSE(received);
  EXPECT_EQ(f.net.stats().frames_unreachable, 1u);
}

TEST(Network, BroadcastReachesAllNeighbors) {
  NetFixture f;
  make_grid(f.net, 3, 3);
  const NodeId center{4};  // middle of a 3x3 row-major grid
  std::vector<std::uint32_t> receivers;
  for (std::uint16_t i = 0; i < 9; ++i) {
    f.net.set_receiver(NodeId{i}, [&receivers, i](const Frame&) {
      receivers.push_back(i);
    });
  }
  f.net.send(Frame{center, kBroadcastNode, AmType::kBeacon, {}, {}});
  f.sim.run();
  // The 4-connected centre hears its 4 neighbours, in the pinned order
  // left, down, up, right: same-time events take their sequence numbers
  // from it, so it must not move.
  EXPECT_EQ(receivers, (std::vector<std::uint32_t>{3, 1, 7, 5}));
}

TEST(Network, TransmissionsSerializePerNode) {
  NetFixture f;
  const NodeId a = f.net.add_node({1, 1});
  const NodeId b = f.net.add_node({2, 1});
  std::vector<SimTime> arrivals;
  f.net.set_receiver(b, [&](const Frame&) {
    arrivals.push_back(f.sim.now());
  });
  f.net.send(Frame{a, b, AmType::kBeacon, {0}, {}});
  f.net.send(Frame{a, b, AmType::kBeacon, {1}, {}});
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
    f.net.send(Frame{a, b, AmType::kBeacon, {}, {}});
  }
  f.sim.run();
  EXPECT_NEAR(static_cast<double>(received) / kFrames, 0.7, 0.05);
  EXPECT_EQ(f.net.stats().frames_lost + f.net.stats().frames_delivered,
            static_cast<std::uint64_t>(kFrames));
}

TEST(Network, NoNodeJoinsAfterBatteriesAreAttached) {
  NetFixture f;
  f.net.add_node({1, 1});  // node 0: the mains-powered gateway
  const NodeId b = f.net.add_node({2, 1});
  energy::EnergyOptions options;
  options.battery_mj = 100.0;
  f.net.attach_energy(options);
  EXPECT_EQ(f.net.battery(NodeId{0}), nullptr);
  const energy::Battery* battery = f.net.battery(b);
  ASSERT_NE(battery, nullptr);
  // Batteries live in the node table, so a new node could move them.
  EXPECT_THROW(f.net.add_node({3, 1}), std::logic_error);
  EXPECT_EQ(f.net.battery(b), battery);
}

TEST(Network, DisabledRadioNeitherSendsNorReceives) {
  NetFixture f;
  const NodeId a = f.net.add_node({1, 1});
  const NodeId b = f.net.add_node({2, 1});
  bool received = false;
  f.net.set_receiver(b, [&](const Frame&) { received = true; });

  f.net.set_radio_enabled(b, false);
  f.net.send(Frame{a, b, AmType::kBeacon, {}, {}});
  f.sim.run();
  EXPECT_FALSE(received);

  f.net.set_radio_enabled(b, true);
  f.net.set_radio_enabled(a, false);
  f.net.send(Frame{a, b, AmType::kBeacon, {}, {}});
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
  f.net.send(Frame{a, b, AmType::kBeacon, {}, {}});
  f.net.send(Frame{a, b, AmType::kTsRequest, {}, {}});
  f.net.send(Frame{a, b, AmType::kTsRequest, {}, {}});
  f.sim.run();
  EXPECT_EQ(f.net.stats().sent(AmType::kBeacon), 1u);
  EXPECT_EQ(f.net.stats().sent(AmType::kTsRequest), 2u);
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
