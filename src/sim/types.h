// Fundamental types shared by the whole simulation stack.
//
// The simulator models time in microseconds of virtual time (SimTime).
// Nodes are identified by a small integer NodeId, but Agilla itself
// addresses nodes by physical Location (paper Sec. 2.2: "A node's location
// is its address"); the translation happens in the routing layer.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>

namespace agilla::sim {

/// Virtual time in microseconds since simulation start.
using SimTime = std::uint64_t;

inline constexpr SimTime kMicrosecond = 1;
inline constexpr SimTime kMillisecond = 1000;
inline constexpr SimTime kSecond = 1'000'000;

/// Identity of a node inside one simulation. Dense, assigned by Network.
/// 32-bit so meshes beyond 65k motes (the 316x316 scale runs) fit; the
/// paper's location-is-the-address scheme means node ids never cross the
/// simulated wire, so widening costs nothing at the protocol layer.
struct NodeId {
  std::uint32_t value = kInvalid;

  static constexpr std::uint32_t kInvalid = 0xFFFFFFFF;
  static constexpr std::uint32_t kBroadcast = 0xFFFFFFFE;

  constexpr NodeId() = default;
  constexpr explicit NodeId(std::uint32_t v) : value(v) {}

  [[nodiscard]] constexpr bool valid() const { return value != kInvalid; }
  [[nodiscard]] constexpr bool is_broadcast() const {
    return value == kBroadcast;
  }

  friend constexpr auto operator<=>(NodeId, NodeId) = default;
};

inline std::ostream& operator<<(std::ostream& os, NodeId id) {
  return os << "n" << id.value;
}

/// Broadcast pseudo-address for link-layer beacons.
inline constexpr NodeId kBroadcastNode{NodeId::kBroadcast};

/// A physical location. The paper uses small-integer grid coordinates but
/// allows an error epsilon when addressing, so we keep doubles throughout.
struct Location {
  double x = 0.0;
  double y = 0.0;

  friend constexpr bool operator==(const Location&, const Location&) = default;
};

[[nodiscard]] inline double distance(const Location& a, const Location& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// The location-addressing tolerance every Agilla operation uses: the
/// engine's local-destination test, migration's arrival test and the
/// remote tuple-space routes. Under a grid unit, so an integer address
/// names exactly one mote.
inline constexpr double kAddressEpsilon = 0.3;

/// True when `a` is within `epsilon` of `b` (paper: location addressing
/// "allows an error epsilon when specifying the address").
[[nodiscard]] inline bool within(const Location& a, const Location& b,
                                 double epsilon) {
  return distance(a, b) <= epsilon;
}

inline std::ostream& operator<<(std::ostream& os, const Location& l) {
  return os << "(" << l.x << "," << l.y << ")";
}

/// TinyOS-style Active Message type. Each protocol module registers a
/// handler for its own AM type (mirrors the AM dispatch in TinyOS).
enum class AmType : std::uint8_t {
  kAck = 0x00,           // link-layer acknowledgement
  kBeacon = 0x01,        // neighbour-discovery beacon
  kGeo = 0x02,           // geographically-routed envelope (carries inner AM)
  kAgentState = 0x10,    // migration: state message   (paper Fig. 5: 20 B)
  kAgentCode = 0x11,     // migration: one code block  (28 B)
  kAgentHeap = 0x12,     // migration: four heap vars  (32 B)
  kAgentStack = 0x13,    // migration: four stack vars (30 B)
  kAgentReaction = 0x14, // migration: one reaction    (36 B)
  kTsRequest = 0x20,     // remote tuple-space request
  kTsReply = 0x21,       // remote tuple-space reply
  kRegionOut = 0x22,     // region op: geo-routed seed toward the region
  kRegionFlood = 0x23,   // region op: scoped flood inside the region
  kMateCapsule = 0x30,   // Mate baseline: capsule flood
};

[[nodiscard]] const char* to_string(AmType t);

}  // namespace agilla::sim

template <>
struct std::hash<agilla::sim::NodeId> {
  std::size_t operator()(agilla::sim::NodeId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
