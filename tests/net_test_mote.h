// One mote's bare net/ stack — link layer, neighbour table and geo router
// — owned the way core::AgillaMiddleware owns them: beacons go to the
// table, geo frames to the router, and every other AM type, on the link
// or inside a geo datagram, to the handler a test installs for it.
#pragma once

#include <functional>
#include <map>

#include "net/geo_router.h"

namespace agilla::net::testing {

class TestMote final : public LinkLayer::Receiver, public GeoRouter::Receiver {
 public:
  using LinkHandler =
      std::function<bool(sim::NodeId, std::span<const std::uint8_t>)>;
  using GeoHandler =
      std::function<void(const GeoHeader&, std::span<const std::uint8_t>)>;

  TestMote(sim::Network& net, sim::NodeId id,
           NeighborTable::Options neighbors = {},
           GeoRouter::Options routing = {})
      : link(net, id, *this, &table),
        table(net, link, net.info(id).location, neighbors),
        router(link, table, net.info(id).location, *this, routing) {}

  TestMote(const TestMote&) = delete;
  TestMote& operator=(const TestMote&) = delete;

  /// Attaches the radio and starts beaconing.
  void start() {
    link.attach();
    table.start();
  }

  LinkLayer link;
  NeighborTable table;
  GeoRouter router;
  std::map<sim::AmType, LinkHandler> link_handlers;
  std::map<sim::AmType, GeoHandler> geo_handlers;

 private:
  bool on_link_message(sim::AmType am, sim::NodeId from,
                       std::span<const std::uint8_t> payload) override {
    switch (am) {
      case sim::AmType::kBeacon:
        table.on_beacon(from, payload);
        return true;
      case sim::AmType::kGeo:
        router.on_geo_frame(payload);
        return true;
      default: {
        const auto it = link_handlers.find(am);
        return it != link_handlers.end() && it->second(from, payload);
      }
    }
  }

  void on_geo_message(const GeoHeader& header,
                      std::span<const std::uint8_t> payload) override {
    if (const auto it = geo_handlers.find(header.inner_am);
        it != geo_handlers.end()) {
      it->second(header, payload);
    }
  }
};

}  // namespace agilla::net::testing
