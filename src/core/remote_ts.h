// Remote tuple-space operations: rout, rinp, rrdp (paper Sec. 2.2/3.2).
//
// "a request containing the instruction and template is sent to the
// destination node. When the destination receives it, it performs the
// operation on its local tuple space and sends back the result. ... we used
// end-to-end communication ... and do not use acknowledgements. ... the
// initiator timeouts after 2 seconds and re-transmits the request at most
// twice."
//
// Because rinp is destructive, the responder keeps a small replay cache so
// a retransmitted request is answered with the original reply instead of
// removing a second tuple.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <variant>

#include "net/geo_router.h"
#include "sim/fifo.h"
#include "tuplespace/tuple_space.h"

namespace agilla::core {

enum class RemoteOp : std::uint8_t {
  kOut = 0,
  kInp = 1,
  kRdp = 2,
};

[[nodiscard]] const char* to_string(RemoteOp op);

class RemoteTsManager {
 public:
  /// Retransmissions after the first request (paper value).
  static constexpr int kMaxRetries = 2;
  /// Replies the responder remembers for retransmitted requests.
  static constexpr std::size_t kReplayCache = 8;

  struct Options {
    sim::SimTime reply_timeout = 2 * sim::kSecond;  ///< paper value
  };

  struct Stats {
    std::uint64_t requests_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t timeouts = 0;      ///< operations that failed outright
    std::uint64_t completions = 0;   ///< operations that got a reply
  };

  /// `success` is true when the op succeeded at the destination (for
  /// rinp/rrdp that includes finding a match; `result` carries the tuple).
  using Completion =
      std::function<void(bool success, std::optional<ts::Tuple> result)>;

  RemoteTsManager(sim::Simulator& sim, net::GeoRouter& router,
                  ts::TupleSpace& local, sim::Location self, Options options);

  RemoteTsManager(const RemoteTsManager&) = delete;
  RemoteTsManager& operator=(const RemoteTsManager&) = delete;

  /// rout: insert `tuple` into the tuple space of the node at `dest`.
  void request_out(sim::Location dest, const ts::Tuple& tuple,
                   Completion done);

  /// rinp/rrdp: probe the tuple space of the node at `dest`.
  void request_probe(RemoteOp op, sim::Location dest,
                     const ts::Template& templ, Completion done);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    sim::Location dest;
    std::vector<std::uint8_t> request;  // full request payload
    Completion done;
    int attempts = 1;
    sim::EventHandle timer;
  };
  struct CachedReply {
    std::uint64_t key = 0;
    std::vector<std::uint8_t> reply;
  };

  void dispatch(std::uint16_t request_id, sim::Location dest,
                std::vector<std::uint8_t> request, Completion done);
  void transmit(std::uint16_t request_id);
  void on_timeout(std::uint16_t request_id);
  void on_request(const net::GeoHeader& header,
                  std::span<const std::uint8_t> payload);
  void on_reply(const net::GeoHeader& header,
                std::span<const std::uint8_t> payload);
  [[nodiscard]] static std::uint64_t replay_key(sim::Location origin,
                                                std::uint16_t request_id);

  sim::Simulator& sim_;
  net::GeoRouter& router_;
  ts::TupleSpace& local_;
  sim::Location self_;
  Options options_;
  // By request id. A hash map, not a sim::SmallMap: the gateway mote
  // issues every client's rout/rinp/rrdp, so its table holds thousands of
  // outstanding requests under agilla_loadgen (DESIGN.md "Per-mote
  // footprint").
  std::unordered_map<std::uint16_t, Pending> pending_;
  sim::Fifo<CachedReply> replay_;
  std::uint16_t next_request_id_ = 1;
  Stats stats_;
};

}  // namespace agilla::core
