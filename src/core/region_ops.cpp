#include "core/region_ops.h"

#include <cassert>

#include "net/packet.h"
#include "tuplespace/tuple_match.h"

namespace agilla::core {
namespace {

std::uint64_t flood_key(sim::Location origin, std::uint16_t flood_id) {
  const auto x = static_cast<std::uint16_t>(net::encode_coordinate(origin.x));
  const auto y = static_cast<std::uint16_t>(net::encode_coordinate(origin.y));
  return (static_cast<std::uint64_t>(x) << 32) |
         (static_cast<std::uint64_t>(y) << 16) | flood_id;
}

}  // namespace

RegionOps::RegionOps(net::LinkLayer& link, net::GeoRouter& router,
                     ts::TupleSpace& space, sim::Location self)
    : link_(link),
      router_(router),
      space_(space),
      self_(self) {}

bool RegionOps::remember(std::uint64_t key) {
  for (const std::uint64_t seen : seen_) {
    if (seen == key) {
      return false;
    }
  }
  seen_.push_back(key);
  while (seen_.size() > kFloodDedupCache) {
    seen_.pop_front();
  }
  return true;
}

// A relayed flood carries the largest storable tuple in one frame.
static_assert(net::LinkHeader::kWireSize + RegionOps::kHeaderBytes +
                  ts::kMaxTupleWireBytes <=
              net::kMaxPayloadBytes);

bool RegionOps::out_region(const ts::Tuple& tuple, sim::Location center,
                           double radius, RegionMode mode) {
  if (tuple.wire_size() > kMaxTupleBytes) {
    return false;
  }
  net::Writer w;
  w.u16(next_flood_id_++);
  net::write_location(w, self_);
  net::write_location(w, center);
  w.u8(net::encode_epsilon(radius));
  w.u8(static_cast<std::uint8_t>(mode));
  w.u8(kFloodTtl);
  tuple.encode(w);

  // Widening the geo epsilon to the region radius makes "deliver to the
  // first node inside the region" fall out of the ordinary routing rule.
  assert(w.size() == kHeaderBytes + tuple.wire_size());
  if (within(self_, center, radius)) {
    handle_region_payload(w.data());
    return true;
  }
  router_.send(center, radius, sim::AmType::kRegionOut, w.payload(), self_);
  return true;
}

void RegionOps::on_seed(const net::GeoHeader& /*header*/,
                        std::span<const std::uint8_t> payload) {
  handle_region_payload(payload);
}

void RegionOps::on_flood(sim::NodeId /*from*/,
                         std::span<const std::uint8_t> payload) {
  handle_region_payload(payload);
}

void RegionOps::handle_region_payload(
    std::span<const std::uint8_t> payload) {
  net::Reader r(payload);
  const std::uint16_t flood_id = r.u16();
  const sim::Location origin = net::read_location(r);
  const sim::Location center = net::read_location(r);
  const double radius = net::decode_epsilon(r.u8());
  const auto mode = static_cast<RegionMode>(r.u8());
  const std::uint8_t ttl = r.u8();
  if (!r.ok()) {
    return;
  }
  // View the tuple bytes in place (tuple_match.h): malformed payloads and
  // the common drop paths below — duplicate floods, out-of-region nodes —
  // are rejected without ever materializing a Tuple.
  const ts::TupleRef ref(payload.subspan(payload.size() - r.remaining()));
  const auto tuple_size = ref.encoded_size();
  if (!tuple_size.has_value()) {
    return;
  }
  if (!remember(flood_key(origin, flood_id))) {
    stats_.duplicates_dropped++;
    return;
  }
  if (!within(self_, center, radius)) {
    // Region floods stop at the geographic boundary.
    return;
  }

  const auto tuple = ref.materialize();  // encoded_size() proved decodable
  space_.out(*tuple);

  if (mode == RegionMode::kAllNodes && ttl > 0) {
    net::Writer w;
    w.u16(flood_id);
    net::write_location(w, origin);
    net::write_location(w, center);
    w.u8(net::encode_epsilon(radius));
    w.u8(static_cast<std::uint8_t>(mode));
    w.u8(static_cast<std::uint8_t>(ttl - 1));
    // Relay the tuple's original wire bytes — no decode/re-encode cycle.
    w.bytes(ref.bytes().first(*tuple_size));
    stats_.floods_relayed++;
    link_.send_unacked(sim::kBroadcastNode, sim::AmType::kRegionFlood,
                       w.payload());
  }
}

}  // namespace agilla::core
