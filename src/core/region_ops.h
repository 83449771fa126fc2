// Region operations — the generalization paper Sec. 2.2 sketches: "By
// using location as addresses, Agilla primitives can be easily generalized
// to enable operations on a region. For example, a fire detection node can
// clone itself on all nodes in a geographic area, or alternatively it can
// clone itself to at least one node in the region."
//
// Implemented for tuples (a tuple fits one frame):
//  * out_region(..., kAnyNode)  — geo-route toward the region centre with
//    the addressing epsilon widened to the region radius: the first
//    in-region node performs the out. (Exactly the paper's epsilon
//    generalization.)
//  * out_region(..., kAllNodes) — the same geo-routed seed, then a scoped
//    flood inside the region: every in-region node inserts the tuple and
//    rebroadcasts once (duplicate-suppressed); out-of-region nodes drop
//    the flood, which bounds it geographically.
//
// Region-wide agent placement composes from this + the agent library's
// claim-marker flood pattern (FIREDETECTOR, SEARCHRESCUE): see
// examples/search_rescue.cpp.
#pragma once

#include <cstdint>

#include "net/geo_router.h"
#include "sim/fifo.h"
#include "tuplespace/tuple_space.h"

namespace agilla::core {

enum class RegionMode : std::uint8_t {
  kAnyNode = 0,  ///< deliver to at least one node in the region
  kAllNodes = 1, ///< deliver to every reachable node in the region
};

class RegionOps {
 public:
  /// Flood ids remembered for duplicate suppression.
  static constexpr std::size_t kFloodDedupCache = 16;
  /// Bounds the in-region rebroadcast depth.
  static constexpr std::uint8_t kFloodTtl = 8;

  struct Stats {
    std::uint64_t floods_relayed = 0;
    std::uint64_t duplicates_dropped = 0;
  };

  RegionOps(net::LinkLayer& link, net::GeoRouter& router, ts::TupleSpace& space,
            sim::Location self);

  RegionOps(const RegionOps&) = delete;
  RegionOps& operator=(const RegionOps&) = delete;

  /// Region header bytes ahead of the tuple (wire layout below).
  static constexpr std::size_t kHeaderBytes = 13;
  /// Largest tuple (Tuple::wire_size) a region op carries: the geo-routed
  /// seed must fit one frame, which leaves 22 of kMaxTupleWireBytes.
  static constexpr std::size_t kMaxTupleBytes =
      net::GeoRouter::kMaxInnerBytes - kHeaderBytes;

  /// Inserts `tuple` into the tuple space of node(s) within `radius` of
  /// `center`. Best-effort (like every Agilla remote op); no reply.
  /// Returns false, sending nothing, when the tuple is over
  /// kMaxTupleBytes.
  bool out_region(const ts::Tuple& tuple, sim::Location center,
                  double radius, RegionMode mode);

  // Wire: flood_id(2) origin(4) center(4) radius(1, epsilon-coded)
  //       mode(1) ttl(1) tuple...
  /// A geo-routed kRegionOut seed that reached the region.
  void on_seed(const net::GeoHeader& header,
               std::span<const std::uint8_t> payload);
  /// A kRegionFlood rebroadcast from a one-hop neighbour.
  void on_flood(sim::NodeId from, std::span<const std::uint8_t> payload);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void handle_region_payload(std::span<const std::uint8_t> payload);
  [[nodiscard]] bool remember(std::uint64_t key);

  net::LinkLayer& link_;
  net::GeoRouter& router_;
  ts::TupleSpace& space_;
  sim::Location self_;
  sim::Fifo<std::uint64_t> seen_;
  std::uint16_t next_flood_id_ = 1;
  Stats stats_;
};

}  // namespace agilla::core
