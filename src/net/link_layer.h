// The link layer: optional per-hop acknowledgements with retransmission,
// duplicate suppression, and delivery of every inbound message to the one
// Receiver that owns the link (the mote decides which layer handles which
// AM type).
//
// Parameters follow paper Sec. 3.2: "If a one-hop acknowledgement is not
// received within 0.1 seconds, the message is retransmitted. This repeats
// up for four times."
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.h"
#include "sim/network.h"
#include "sim/small_map.h"

namespace agilla::net {

class NeighborTable;

class LinkLayer {
 public:
  /// Remembered (src, seq) pairs.
  static constexpr std::size_t kDedupCache = 16;
  /// Entries older than this are ignored: duplicates only ever arrive
  /// within the retransmission window (max_retries x ack_timeout), and
  /// the 8-bit sequence number wraps, so a stale entry would otherwise
  /// falsely suppress (and falsely re-ack) a NEW message that happens to
  /// reuse the sequence value — silently losing it.
  static constexpr sim::SimTime kDedupWindow = 3 * sim::kSecond;

  struct Options {
    sim::SimTime ack_timeout = 100 * sim::kMillisecond;
    int max_retries = 4;          ///< retransmissions after the first send
  };

  struct Stats {
    std::uint64_t retransmissions = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t send_failures = 0;   ///< acked sends that gave up
    std::uint64_t duplicates_dropped = 0;
  };

  /// The link's owner. `from` is the one-hop sender and `payload` the
  /// de-duplicated inner payload (link header and any piggybacked beacon
  /// already stripped). The return value controls acknowledgement of
  /// acked sends: an owner that does not handle `am`, or cannot accept the
  /// message, returns false and NO ack is sent, so the sender's
  /// retransmissions eventually report failure (this is how a migration
  /// receiver that aborted a stalled transfer pushes the failure back to
  /// the node holding the agent).
  class Receiver {
   public:
    virtual bool on_link_message(sim::AmType am, sim::NodeId from,
                                 std::span<const std::uint8_t> payload) = 0;

   protected:
    ~Receiver() = default;
  };

  using SendCallback = std::function<void(bool delivered)>;

  /// `neighbors` is the mote's acquaintance list, or nullptr (Mate motes,
  /// bare links). With it, attach() turns on what the network asks for:
  /// under beacon suppression, data frames carry the table's beacon and
  /// arriving piggybacks refresh it; under adaptive LPL, each frame's
  /// preamble is sized for the destination's advertised check period.
  LinkLayer(sim::Network& network, sim::NodeId self, Receiver& receiver,
            NeighborTable* neighbors = nullptr);
  LinkLayer(sim::Network& network, sim::NodeId self, Receiver& receiver,
            NeighborTable* neighbors, Options options);

  LinkLayer(const LinkLayer&) = delete;
  LinkLayer& operator=(const LinkLayer&) = delete;

  /// Fire-and-forget send (no ack, no retransmission). `dst` may be
  /// kBroadcastNode.
  void send_unacked(sim::NodeId dst, sim::AmType am,
                    const sim::FramePayload& payload);

  /// Reliable one-hop send: retransmits on ack timeout, then reports
  /// success/failure through `done`. Multiple sends may be outstanding.
  void send_acked(sim::NodeId dst, sim::AmType am,
                  const sim::FramePayload& payload, SendCallback done);

  /// Must be called once after construction: wires the radio upcall and
  /// reads the network's suppression and adaptive-LPL settings.
  void attach();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] sim::NodeId self() const { return self_; }

 private:
  struct Pending {
    sim::NodeId dst;
    sim::AmType am;
    sim::FramePayload payload;  ///< link header included
    /// Tells this send apart from a later one that reused its sequence.
    std::uint32_t send_id = 0;
    int attempts = 0;
    SendCallback done;
    sim::EventHandle timer;
  };

  void on_frame(const sim::Frame& frame);
  void on_ack(const sim::Frame& frame);
  void transmit(std::uint8_t seq);
  /// Writes the frame payload: link header, `payload`, and a piggybacked
  /// beacon when piggybacking is on, the frame is not a beacon, and the
  /// frame has room.
  [[nodiscard]] sim::FramePayload frame_payload(
      std::uint8_t seq, bool wants_ack, sim::AmType am,
      std::span<const std::uint8_t> payload) const;
  void send_frame(sim::NodeId dst, sim::AmType am,
                  const sim::FramePayload& payload);
  void on_timeout(std::uint8_t seq);
  void send_ack(sim::NodeId to, std::uint8_t seq);
  /// Returns the acked-flag slot for a remembered (src, seq), or nullptr
  /// if this is the first sighting (which is then remembered).
  bool* find_duplicate(sim::NodeId from, std::uint8_t seq, bool acked);

  sim::Network& network_;
  sim::NodeId self_;
  Options options_;
  /// One remembered (src, seq) pair, packed into 16 bytes.
  struct DedupEntry {
    std::uint32_t src = 0;
    std::uint8_t seq = 0;
    bool acked = false;
    sim::SimTime seen_at = 0;
  };
  static_assert(sizeof(DedupEntry) == 16);

  Receiver& receiver_;
  NeighborTable* neighbors_;
  sim::SmallMap<std::uint8_t, Pending> pending_;  // by seq
  std::vector<DedupEntry> dedup_;  // ring buffer
  std::size_t dedup_next_ = 0;
  std::uint8_t next_seq_ = 0;
  bool piggyback_ = false;          ///< beacon suppression is on
  bool adaptive_preamble_ = false;  ///< adaptive LPL is on
  std::uint32_t next_send_id_ = 0;
  Stats stats_;
};

}  // namespace agilla::net
