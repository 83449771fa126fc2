// The paper's radio: 4-connectivity on the unit lattice, fixed when each
// node is placed, and the ChannelLoss model.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/network.h"

namespace agilla::sim {
namespace {

std::vector<NodeId> receivers(const Network& net, NodeId id) {
  const auto list = net.connected_neighbors(id);
  return {list.begin(), list.end()};
}

TEST(Radio, AxisNeighborsConnected) {
  Simulator sim{1};
  Network net{sim};
  const NodeId a = net.add_node({1, 1});
  const NodeId right = net.add_node({2, 1});
  const NodeId up = net.add_node({1, 2});
  EXPECT_EQ(receivers(net, a), (std::vector<NodeId>{up, right}));
  EXPECT_EQ(receivers(net, right), (std::vector<NodeId>{a}));
  EXPECT_EQ(receivers(net, up), (std::vector<NodeId>{a}));
}

TEST(Radio, DiagonalExcludedWith4Connectivity) {
  Simulator sim{1};
  Network net{sim};
  const NodeId a = net.add_node({1, 1});
  const NodeId diagonal = net.add_node({2, 2});
  EXPECT_TRUE(receivers(net, a).empty());
  EXPECT_TRUE(receivers(net, diagonal).empty());
}

TEST(Radio, DistantNodesNotConnected) {
  Simulator sim{1};
  Network net{sim};
  const NodeId a = net.add_node({1, 1});
  net.add_node({3, 1});
  net.add_node({1, 5});
  EXPECT_TRUE(receivers(net, a).empty());
}

TEST(Radio, SelfNeverConnected) {
  Simulator sim{1};
  Network net{sim};
  const NodeId a = net.add_node({1, 1});
  net.add_node({2, 1});
  for (const NodeId rx : net.connected_neighbors(a)) {
    EXPECT_NE(rx, a);
  }
}

TEST(Radio, ReceiverOrderIgnoresPlacementOrder) {
  // Placed right, up, centre, left, down; enumerated left, down, up, right.
  Simulator sim{1};
  Network net{sim};
  const NodeId right = net.add_node({3, 2});
  const NodeId up = net.add_node({2, 3});
  const NodeId centre = net.add_node({2, 2});
  const NodeId left = net.add_node({1, 2});
  const NodeId down = net.add_node({2, 1});
  EXPECT_EQ(receivers(net, centre),
            (std::vector<NodeId>{left, down, up, right}));
}

TEST(Radio, PlacementRequiresAFreeLatticePoint) {
  Simulator sim{1};
  Network net{sim};
  net.add_node({1, 1});
  EXPECT_THROW(net.add_node({1, 1}), std::invalid_argument);
  EXPECT_THROW(net.add_node({1.5, 1}), std::invalid_argument);
  EXPECT_THROW(net.add_node({1, 3e9}), std::invalid_argument);
  EXPECT_EQ(net.node_count(), 1u);
  EXPECT_EQ(net.add_node({2, 1}), NodeId{1});
}

TEST(ChannelLoss, LossIsConfiguredConstant) {
  const ChannelLoss loss{.packet_loss = 0.06};
  EXPECT_DOUBLE_EQ(loss.probability(20), 0.06);
}

TEST(ChannelLoss, PerByteLossGrowsWithSize) {
  const ChannelLoss loss{.packet_loss = 0.02, .per_byte_loss = 0.001};
  const double small = loss.probability(10);
  const double large = loss.probability(40);
  EXPECT_LT(small, large);
  EXPECT_NEAR(large - small, 0.03, 1e-12);
}

TEST(ChannelLoss, LossClampedToOne) {
  const ChannelLoss loss{.packet_loss = 0.9, .per_byte_loss = 0.1};
  EXPECT_DOUBLE_EQ(loss.probability(100), 1.0);
}

TEST(ChannelLoss, LosslessByDefault) {
  EXPECT_DOUBLE_EQ(ChannelLoss{}.probability(60), 0.0);
}

}  // namespace
}  // namespace agilla::sim
