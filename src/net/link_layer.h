// The link layer: AM dispatch, optional per-hop acknowledgements with
// retransmission, and duplicate suppression.
//
// Parameters follow paper Sec. 3.2: "If a one-hop acknowledgement is not
// received within 0.1 seconds, the message is retransmitted. This repeats
// up for four times."
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/am_table.h"
#include "net/packet.h"
#include "sim/network.h"
#include "sim/small_map.h"

namespace agilla::net {

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

  /// `frame.src` is the one-hop sender; handlers get the de-duplicated
  /// inner payload (link header already stripped). The return value
  /// controls acknowledgement of acked sends: a handler that cannot accept
  /// the message returns false and NO ack is sent, so the sender's
  /// retransmissions eventually report failure (this is how a migration
  /// receiver that aborted a stalled transfer pushes the failure back to
  /// the node holding the agent).
  using Handler =
      std::function<bool(sim::NodeId from, std::span<const std::uint8_t>)>;
  using SendCallback = std::function<void(bool delivered)>;

  /// Per-destination LPL preamble extension (adaptive LPL: size the
  /// preamble for the receiver's advertised check period, not a global
  /// constant). nullopt = fall back to the sender's own schedule.
  using PreambleOracle =
      std::function<std::optional<sim::SimTime>(sim::NodeId dst)>;

  /// Beacon suppression: the provider supplies the node's current
  /// BeaconPayload, which the link layer appends to outgoing data frames;
  /// the sink consumes one arriving piggybacked on a neighbour's frame.
  using PiggybackProvider = std::function<BeaconPayload()>;
  using PiggybackSink =
      std::function<void(sim::NodeId from, std::span<const std::uint8_t>)>;

  LinkLayer(sim::Network& network, sim::NodeId self);
  LinkLayer(sim::Network& network, sim::NodeId self, Options options);

  LinkLayer(const LinkLayer&) = delete;
  LinkLayer& operator=(const LinkLayer&) = delete;

  /// Registers the upcall for `am`, replacing any earlier one. Not from
  /// inside a handler (asserted): nodes register while they are built.
  void register_handler(sim::AmType am, Handler handler);

  /// Fire-and-forget send (no ack, no retransmission). `dst` may be
  /// kBroadcastNode.
  void send_unacked(sim::NodeId dst, sim::AmType am,
                    const sim::FramePayload& payload);

  /// Reliable one-hop send: retransmits on ack timeout, then reports
  /// success/failure through `done`. Multiple sends may be outstanding.
  void send_acked(sim::NodeId dst, sim::AmType am,
                  const sim::FramePayload& payload, SendCallback done);

  /// Must be called once after construction (wires the radio upcall).
  void attach();

  void set_preamble_oracle(PreambleOracle oracle) {
    preamble_oracle_ = std::move(oracle);
  }
  void set_piggyback(PiggybackProvider provider, PiggybackSink sink) {
    piggyback_provider_ = std::move(provider);
    piggyback_sink_ = std::move(sink);
  }

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
  /// beacon when the provider is set, the frame is not a beacon, and the
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

  AmTable<Handler> handlers_;
  PreambleOracle preamble_oracle_;
  PiggybackProvider piggyback_provider_;
  PiggybackSink piggyback_sink_;
  sim::SmallMap<std::uint8_t, Pending> pending_;  // by seq
  std::vector<DedupEntry> dedup_;  // ring buffer
  std::size_t dedup_next_ = 0;
  std::uint8_t next_seq_ = 0;
  std::uint32_t next_send_id_ = 0;
  Stats stats_;
};

}  // namespace agilla::net
