// Agent migration (paper Sec. 3.2, "Agilla Engine" / Fig. 5).
//
// Agents move hop by hop: the full agent is transferred to each successive
// node along the greedy geographic route, one acked message at a time
// (state, code blocks, stack, heap, reactions). A hop fails when the link
// layer exhausts its retransmissions; the node holding the agent then
// resumes it locally with condition 0 ("the alternative is to simply kill
// the agent... duplicate agents are preferable"). The receiver aborts a
// partial transfer that stalls for more than 0.25 s.
#pragma once

#include <cstdint>
#include <functional>
#include <list>

#include "core/agent_serializer.h"
#include "energy/battery.h"
#include "net/geo_router.h"
#include "net/link_layer.h"
#include "sim/small_map.h"

namespace agilla::core {

class AgillaEngine;

class MigrationManager {
 public:
  struct Options {
    sim::SimTime receiver_abort = 250 * sim::kMillisecond;  ///< paper value
  };

  struct Stats {
    std::uint64_t transfers_started = 0;
    std::uint64_t hops_completed = 0;
    std::uint64_t hop_failures = 0;
    std::uint64_t no_route = 0;
    std::uint64_t arrivals = 0;         ///< agents delivered at destination
    std::uint64_t custody_resumes = 0;  ///< resumed mid-route after failure
    std::uint64_t messages_sent = 0;
  };

  /// First-hop outcome for the originating engine: true once the next node
  /// holds the complete agent (custody transferred) or the agent was
  /// delivered locally.
  using HopCompletion = std::function<void(bool success)>;

  /// An agent that lands on this node is installed on `engine`, with
  /// condition 0 for a custody resume (the agent is stranded short of its
  /// destination). The engine may still be under construction: it is
  /// first used when an agent arrives.
  MigrationManager(sim::Network& network, net::LinkLayer& link,
                   const net::GeoRouter& router, AgillaEngine& engine,
                   sim::Location self, Options options);

  MigrationManager(const MigrationManager&) = delete;
  MigrationManager& operator=(const MigrationManager&) = delete;

  /// Connects the node's battery: every migration message built or
  /// accepted charges energy::kMigrationMsgMj of CPU (serialization work)
  /// on top of the radio energy the network layer already bills per frame.
  void set_energy(energy::Battery* battery) { battery_ = battery; }

  /// Starts moving `image` toward image.dest. `done` reports the first-hop
  /// outcome; pass nullptr for forwarded transfers.
  void send(AgentImage image, HopCompletion done);

  /// Node death: drops every in-flight transfer's custody, hop callback,
  /// and partial incoming assembly — the agent copies lived in the mote's
  /// RAM. Without this, a forwarded transfer's ack timeout would later
  /// "resume" an agent onto the dead node. The link-layer callbacks of
  /// already-sent messages still fire; with nothing to deliver they only
  /// erase their bookkeeping entry.
  void drop_in_flight();

  /// One migration message (the five agent AM types) from the link.
  /// Returns false when the message cannot be accepted (e.g. it belongs to
  /// a transfer whose state message was never seen — typically after a
  /// receiver abort); the link layer then withholds the ack.
  bool on_message(sim::AmType am, sim::NodeId from,
                  std::span<const std::uint8_t> payload);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// One agent in transit to the next hop: the image it left as, from
  /// which each message is encoded when it is sent, and on a forwarded
  /// transfer (done == nullptr) the copy a hop failure resumes here
  /// (custody semantics).
  struct Outgoing {
    AgentImage image;
    std::uint8_t transfer_id = 0;
    std::size_t next = 0;  ///< index of the next message to send
    sim::NodeId hop;
    HopCompletion done;
    /// Set when the node dies: a later hop failure must not resume the
    /// agent onto the dead node.
    bool dropped = false;
  };
  struct Incoming {
    ImageAssembler assembler;
    sim::EventHandle abort_timer;
  };

  void send_next(std::list<Outgoing>::iterator it);
  void finish_incoming(std::uint16_t agent_id);
  void abort_incoming(std::uint16_t agent_id);
  void deliver(AgentImage image, bool reached_dest);

  sim::Network& network_;
  net::LinkLayer& link_;
  const net::GeoRouter& router_;
  AgillaEngine& engine_;
  sim::Location self_;
  Options options_;
  energy::Battery* battery_ = nullptr;
  std::list<Outgoing> outgoing_;
  sim::SmallMap<std::uint16_t, Incoming> incoming_;  // by agent id
  std::uint8_t next_transfer_id_ = 0;
  Stats stats_;
};

}  // namespace agilla::core
