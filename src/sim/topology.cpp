#include "sim/topology.h"

#include <deque>
#include <limits>
#include <unordered_map>

namespace agilla::sim {

Topology make_grid(Network& net, std::size_t width, std::size_t height) {
  Topology topo;
  topo.nodes.reserve(width * height);
  net.reserve(net.node_count() + width * height);
  for (std::size_t row = 0; row < height; ++row) {
    for (std::size_t col = 0; col < width; ++col) {
      topo.nodes.push_back(net.add_node(
          Location{1.0 + static_cast<double>(col),
                   1.0 + static_cast<double>(row)}));
    }
  }
  return topo;
}

Topology make_line(Network& net, std::size_t count) {
  return make_grid(net, count, 1);
}

std::optional<std::size_t> hop_distance(const Network& net, NodeId from,
                                        NodeId to) {
  if (from == to) {
    return 0;
  }
  std::unordered_map<NodeId, std::size_t> dist;
  std::deque<NodeId> frontier;
  dist[from] = 0;
  frontier.push_back(from);
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    const std::size_t d = dist[cur];
    for (NodeId next : net.connected_neighbors(cur)) {
      if (dist.contains(next)) {
        continue;
      }
      if (next == to) {
        return d + 1;
      }
      dist[next] = d + 1;
      frontier.push_back(next);
    }
  }
  return std::nullopt;
}

NodeId nearest_node(const Network& net, const Topology& topo,
                    Location target) {
  NodeId best;
  double best_distance = std::numeric_limits<double>::infinity();
  for (NodeId id : topo.nodes) {
    const double d = distance(net.info(id).location, target);
    if (d < best_distance) {
      best_distance = d;
      best = id;
    }
  }
  return best;
}

}  // namespace agilla::sim
