// Best-effort greedy geographic forwarding (paper Sec. 4: "we implemented a
// simple best-effort greedy-forwarding algorithm that forwards messages to
// the neighbor closest to the destination").
//
// Two services share the same next-hop policy:
//  * decide()         — used by agent migration, which transfers the agent
//                       reliably hop by hop and picks each hop itself;
//  * send()/Receiver — a datagram service for geographically-addressed
//                       payloads (remote tuple-space ops). Packets are
//                       wrapped in a GeoHeader and forwarded without link
//                       acks, end-to-end (paper Sec. 3.2).
#pragma once

#include "net/neighbor_table.h"
#include "net/packet.h"

namespace agilla::net {

/// Next-hop selection policy (DESIGN.md "Routing & LPL").
enum class RoutePolicy : std::uint8_t {
  /// Paper Sec. 4: forward to the neighbour geographically closest to the
  /// destination, ignoring energy.
  kGreedyGeo = 0,
  /// Energy-aware: among neighbours with forward progress, trade progress
  /// against the bottleneck neighbour's residual energy (the local
  /// max-min-residual heuristic), avoiding neighbours below the residual
  /// floor whenever an above-floor alternative with progress exists.
  kMaxMinResidual = 1,
};

class GeoRouter {
 public:
  struct Options {
    RoutePolicy policy = RoutePolicy::kGreedyGeo;
    /// Weight of residual energy vs. forward progress in the max-min
    /// score: 0 = pure distance (greedy among progressing neighbours),
    /// 1 = pure energy. score = (1-w)*progress + w*residual.
    double energy_weight = 0.5;
    /// Residual fraction below which a neighbour is treated as a relay
    /// of last resort (only chosen when no above-floor neighbour makes
    /// forward progress).
    double residual_floor = 0.25;
  };

  struct Stats {
    std::uint64_t forwarded = 0;
    std::uint64_t delivered = 0;
    std::uint64_t no_route = 0;
    std::uint64_t ttl_expired = 0;
  };

  /// The router's owner: every datagram delivered here, whatever its
  /// inner AM type, with the inner payload plus the header (whose origin
  /// lets the receiver reply without knowing sender node ids).
  class Receiver {
   public:
    virtual void on_geo_message(const GeoHeader& header,
                                std::span<const std::uint8_t> payload) = 0;

   protected:
    ~Receiver() = default;
  };

  GeoRouter(LinkLayer& link, const NeighborTable& neighbors,
            sim::Location self, Receiver& receiver);
  GeoRouter(LinkLayer& link, const NeighborTable& neighbors,
            sim::Location self, Receiver& receiver, Options options);

  GeoRouter(const GeoRouter&) = delete;
  GeoRouter& operator=(const GeoRouter&) = delete;

  /// Hands later deliveries to `receiver` instead (an experiment that
  /// intercepts some inner AM types and passes the rest on).
  void set_receiver(Receiver& receiver) { receiver_ = &receiver; }

  /// A kGeo frame's payload from the link: deliver it here or forward it.
  void on_geo_frame(std::span<const std::uint8_t> payload);

  /// Largest inner payload send() takes: a frame minus the link and geo
  /// headers. Forwarding keeps the header size, so a datagram that left
  /// its origin fits every hop.
  static constexpr std::size_t kMaxInnerBytes =
      kMaxPayloadBytes - LinkHeader::kWireSize - GeoHeader::kWireSize;

  /// Originate a geographically-addressed datagram toward `dest`.
  /// Delivered to the first node within `epsilon` of `dest` along the
  /// greedy path; silently dropped on routing failure (best effort).
  /// A payload over kMaxInnerBytes throws std::length_error: callers
  /// bound what they put in (RegionOps refuses large tuples).
  void send(sim::Location dest, double epsilon, sim::AmType inner_am,
            const sim::FramePayload& payload, sim::Location origin);

  struct Decision {
    enum class Kind { kDeliverLocal, kForward, kNoRoute };
    Kind kind = Kind::kNoRoute;
    sim::NodeId next_hop;
  };

  /// The next-hop policy, shared with the migration module. Delivers
  /// locally when self is within epsilon of dest; otherwise forwards to
  /// the neighbour the configured RoutePolicy picks among those strictly
  /// closer to dest; otherwise reports no route. Both policies refuse
  /// neighbours without forward progress, so loop-freedom is identical.
  [[nodiscard]] Decision decide(sim::Location dest, double epsilon) const;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  void forward(const GeoHeader& header, std::span<const std::uint8_t> inner);
  [[nodiscard]] std::optional<sim::NodeId> max_min_next_hop(
      sim::Location dest, double self_distance) const;

  LinkLayer& link_;
  const NeighborTable& neighbors_;
  sim::Location self_;
  Receiver* receiver_;
  Options options_;
  Stats stats_;
};

}  // namespace agilla::net
