#include "sim/radio_model.h"

#include <gtest/gtest.h>

namespace agilla::sim {
namespace {

NodeInfo node(std::uint16_t id, double x, double y) {
  return NodeInfo{NodeId{id}, Location{x, y}, true};
}

TEST(GridNeighborRadio, AxisNeighborsConnected) {
  GridNeighborRadio radio({.spacing = 1.0});
  EXPECT_TRUE(radio.connected(node(0, 1, 1), node(1, 2, 1)));
  EXPECT_TRUE(radio.connected(node(0, 1, 1), node(1, 1, 2)));
  EXPECT_TRUE(radio.connected(node(0, 2, 2), node(1, 1, 2)));
}

TEST(GridNeighborRadio, DiagonalExcludedWith4Connectivity) {
  GridNeighborRadio radio({.spacing = 1.0});
  EXPECT_FALSE(radio.connected(node(0, 1, 1), node(1, 2, 2)));
}

TEST(GridNeighborRadio, DiagonalIncludedWith8Connectivity) {
  GridNeighborRadio radio({.spacing = 1.0, .eight_connected = true});
  EXPECT_TRUE(radio.connected(node(0, 1, 1), node(1, 2, 2)));
}

TEST(GridNeighborRadio, DistantNodesNotConnected) {
  GridNeighborRadio radio({.spacing = 1.0});
  EXPECT_FALSE(radio.connected(node(0, 1, 1), node(1, 3, 1)));
  EXPECT_FALSE(radio.connected(node(0, 1, 1), node(1, 1, 1)));  // self-coord
}

TEST(GridNeighborRadio, SelfNeverConnected) {
  GridNeighborRadio radio({.spacing = 1.0});
  const NodeInfo a = node(5, 1, 1);
  EXPECT_FALSE(radio.connected(a, a));
}

TEST(GridNeighborRadio, CustomSpacing) {
  GridNeighborRadio radio({.spacing = 2.5});
  EXPECT_TRUE(radio.connected(node(0, 0, 0), node(1, 2.5, 0)));
  EXPECT_FALSE(radio.connected(node(0, 0, 0), node(1, 1.0, 0)));
}

TEST(GridNeighborRadio, LossIsConfiguredConstant) {
  GridNeighborRadio radio({.spacing = 1.0, .packet_loss = 0.06});
  EXPECT_DOUBLE_EQ(radio.loss_probability(node(0, 1, 1), node(1, 2, 1), 20),
                   0.06);
}

TEST(GridNeighborRadio, PerByteLossGrowsWithSize) {
  GridNeighborRadio radio(
      {.spacing = 1.0, .packet_loss = 0.02, .per_byte_loss = 0.001});
  const double small =
      radio.loss_probability(node(0, 1, 1), node(1, 2, 1), 10);
  const double large =
      radio.loss_probability(node(0, 1, 1), node(1, 2, 1), 40);
  EXPECT_LT(small, large);
  EXPECT_NEAR(large - small, 0.03, 1e-12);
}

TEST(GridNeighborRadio, LossClampedToOne) {
  GridNeighborRadio radio(
      {.spacing = 1.0, .packet_loss = 0.9, .per_byte_loss = 0.1});
  EXPECT_DOUBLE_EQ(
      radio.loss_probability(node(0, 1, 1), node(1, 2, 1), 100), 1.0);
}

TEST(PerfectRadio, NoLossWithinRange) {
  PerfectRadio radio(1.5);
  EXPECT_TRUE(radio.connected(node(0, 0, 0), node(1, 1, 0)));
  EXPECT_DOUBLE_EQ(radio.loss_probability(node(0, 0, 0), node(1, 1, 0), 20),
                   0.0);
  EXPECT_FALSE(radio.connected(node(0, 0, 0), node(1, 5, 0)));
}

}  // namespace
}  // namespace agilla::sim
