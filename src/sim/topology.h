// Topology builders and hop-distance oracle.
//
// The paper's testbed (Fig. 3) is a 5x5 grid with coordinates starting at
// (1,1) in the lower-left corner; make_grid reproduces that by default.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "sim/network.h"
#include "sim/types.h"

namespace agilla::sim {

/// The set of nodes created by a builder, in creation order.
struct Topology {
  std::vector<NodeId> nodes;

  [[nodiscard]] std::size_t size() const { return nodes.size(); }
};

/// A `width` x `height` unit grid; node (col,row) sits at
/// (1 + col, 1 + row). Creation order is row-major from (1,1).
Topology make_grid(Network& net, std::size_t width, std::size_t height);

/// A straight line of `count` nodes along +x from (1,1).
Topology make_line(Network& net, std::size_t count);

/// BFS hop distance over ground-truth connectivity; nullopt if unreachable.
std::optional<std::size_t> hop_distance(const Network& net, NodeId from,
                                        NodeId to);

/// The node whose location is nearest to `target` (ties broken by id).
NodeId nearest_node(const Network& net, const Topology& topo, Location target);

}  // namespace agilla::sim
