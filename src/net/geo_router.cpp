#include "net/geo_router.h"

namespace agilla::net {

GeoRouter::GeoRouter(LinkLayer& link, const NeighborTable& neighbors,
                     sim::Location self, Receiver& receiver)
    : GeoRouter(link, neighbors, self, receiver, Options{}) {}

GeoRouter::GeoRouter(LinkLayer& link, const NeighborTable& neighbors,
                     sim::Location self, Receiver& receiver, Options options)
    : link_(link),
      neighbors_(neighbors),
      self_(self),
      receiver_(&receiver),
      options_(options) {}

std::optional<sim::NodeId> GeoRouter::max_min_next_hop(
    sim::Location dest, double self_distance) const {
  // Two passes over the (id-sorted) acquaintance list keep the selection
  // deterministic: first decide whether any progressing neighbour sits
  // above the residual floor, then score the eligible pool. The score
  // trades normalized forward progress against residual energy; ties
  // break toward more progress, then the lower node id.
  const auto progress_of = [&](const NeighborEntry& e) {
    return (self_distance - distance(e.location, dest)) / self_distance;
  };
  bool any_above_floor = false;
  for (const auto& e : neighbors_.entries()) {
    if (progress_of(e) > 0.0 &&
        e.residual_frac() > options_.residual_floor) {
      any_above_floor = true;
      break;
    }
  }
  const double w = options_.energy_weight;
  std::optional<sim::NodeId> best;
  double best_score = 0.0;
  double best_progress = 0.0;
  for (const auto& e : neighbors_.entries()) {
    const double progress = progress_of(e);
    if (progress <= 0.0) {
      continue;  // never route away from the destination
    }
    if (any_above_floor && e.residual_frac() <= options_.residual_floor) {
      continue;  // spare the nearly-drained relay
    }
    const double score =
        (1.0 - w) * progress + w * e.residual_frac();
    if (!best || score > best_score ||
        (score == best_score && progress > best_progress)) {
      best = e.id;
      best_score = score;
      best_progress = progress;
    }
  }
  return best;
}

GeoRouter::Decision GeoRouter::decide(sim::Location dest,
                                      double epsilon) const {
  if (within(self_, dest, epsilon)) {
    return Decision{Decision::Kind::kDeliverLocal, sim::NodeId{}};
  }
  const double self_distance = distance(self_, dest);
  if (options_.policy == RoutePolicy::kMaxMinResidual) {
    if (const auto hop = max_min_next_hop(dest, self_distance)) {
      return Decision{Decision::Kind::kForward, *hop};
    }
    return Decision{Decision::Kind::kNoRoute, sim::NodeId{}};
  }
  const auto closest = neighbors_.closest_to(dest);
  if (closest.has_value() &&
      distance(closest->location, dest) < self_distance) {
    return Decision{Decision::Kind::kForward, closest->id};
  }
  return Decision{Decision::Kind::kNoRoute, sim::NodeId{}};
}

void GeoRouter::send(sim::Location dest, double epsilon,
                     sim::AmType inner_am, const sim::FramePayload& payload,
                     sim::Location origin) {
  GeoHeader header;
  header.inner_am = inner_am;
  header.dest = dest;
  header.origin = origin;
  header.epsilon = epsilon;
  forward(header, payload);
}

void GeoRouter::forward(const GeoHeader& header,
                        std::span<const std::uint8_t> inner) {
  const Decision decision = decide(header.dest, header.epsilon);
  switch (decision.kind) {
    case Decision::Kind::kDeliverLocal: {
      stats_.delivered++;
      receiver_->on_geo_message(header, inner);
      return;
    }
    case Decision::Kind::kForward: {
      if (header.ttl == 0) {
        stats_.ttl_expired++;
        return;
      }
      GeoHeader next = header;
      next.ttl--;
      Writer w;
      next.write(w);
      w.bytes(inner);
      stats_.forwarded++;
      link_.send_unacked(decision.next_hop, sim::AmType::kGeo, w.payload());
      return;
    }
    case Decision::Kind::kNoRoute: {
      stats_.no_route++;
      return;
    }
  }
}

void GeoRouter::on_geo_frame(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const GeoHeader header = GeoHeader::read(r);
  if (!r.ok()) {
    return;
  }
  const std::span<const std::uint8_t> inner =
      payload.subspan(GeoHeader::kWireSize);
  forward(header, inner);
}

}  // namespace agilla::net
