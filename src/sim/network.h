// The simulated radio network: node registry, half-duplex transmit queues,
// loss, and delivery upcalls.
//
// Radio (paper Sec. 4): the testbed software "filters out all messages
// except those from immediate neighbors based on the grid topology". Every
// node sits on an integer lattice point, and its receivers are the
// occupied points one unit away (4-connectivity). add_node works them out
// once, when the node is placed, and links both ends into a fixed slot
// array, so no frame ever searches for its receivers. Receivers are always
// enumerated left, down, up, right: delivery events at one arrival time
// take their sequence numbers from that order, so it is pinned
// (Network.BroadcastReachesAllNeighbors) and every simulated output
// depends on it. A received frame is lost with probability
// clamp(packet_loss + per_byte_loss * on_air_bytes, 0, 1) (ChannelLoss).
//
// Timing model (calibrated to the MICA2 CC1000 / TinyOS stack, see
// DESIGN.md): a frame occupies the sender's radio for
//     kPerPacketOverhead + on_air_bytes * 8 / kBitRateBps  (+ MAC jitter)
// after which it is delivered (or lost) at each receiver. A node transmits
// one frame at a time; later sends queue behind it — this is what makes a
// multi-message agent migration take several hundred milliseconds, exactly
// the effect the paper measures in Figs. 10/11.
//
// Sharding model: transmission outcomes are decided receiver-side. When a
// frame starts, the sender walks its (static) receivers and schedules one
// delivery event per receiver in the RECEIVER's stream at the frame's
// arrival time; radio-enabled checks, loss draws (from the receiver's
// RNG), RX energy, and the upcall all happen there. Since every
// frame costs at least min_frame_latency() of virtual time, that latency
// is the conservative lookahead window the sharded simulator synchronizes
// on. A frame's fate is sealed when it starts: a sender killed mid-flight
// no longer dooms the frame (the pre-death queue is dropped at kill time
// instead) — see DESIGN.md for why zero-lookahead sender/receiver
// coupling cannot shard.
//
// Energy subsystem (src/energy/): attach_energy() gives every node a
// Battery and charges TX/RX per frame and idle-listen per unit time; a
// depleted battery kills the node through the same node-down path
// set_radio_enabled() uses for failure injection. enable_churn() adds
// Poisson crash (and optional reboot) events on top. Node death and
// rebirth are surfaced through the node-down/up handlers so the
// middleware layer can drop agents and reseed state. Frames, node
// transitions, and settle ticks are also emitted as sim::Event records.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "energy/battery.h"
#include "energy/energy_model.h"
#include "sim/fifo.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace agilla::sim {

struct NodeInfo {
  NodeId id;
  Location location;
  bool radio_enabled = true;
};

/// The channel's loss model: a received frame of `on_air_bytes` is lost
/// with probability clamp(packet_loss + per_byte_loss * on_air_bytes, 0, 1).
struct ChannelLoss {
  double packet_loss = 0.0;    ///< per-packet Bernoulli loss floor
  double per_byte_loss = 0.0;  ///< additional loss per on-air byte

  [[nodiscard]] double probability(std::size_t on_air_bytes) const;
};

/// A radio-level packet. Payload layouts are defined by the net/ layer.
struct Frame {
  NodeId src;
  NodeId dst;  ///< kBroadcastNode for beacons
  AmType am = AmType::kAck;
  std::vector<std::uint8_t> payload;
  /// LPL preamble extension for THIS frame, set by the sender's net layer
  /// when it knows the receiver's advertised check period (adaptive LPL).
  /// nullopt = use the node's own duty-cycler extension (static LPL).
  std::optional<SimTime> preamble;
};

// Radio timing.
inline constexpr double kBitRateBps = 38'400.0;  ///< CC1000 on MICA2
/// CC1000 preamble + TinyOS MAC backoff + task handoff. Calibrated so a
/// one-hop rout round trip lands near the paper's ~55 ms and a one-hop
/// strong migration (4 acked messages) near ~200 ms (see DESIGN.md).
inline constexpr SimTime kPerPacketOverhead = 18 * kMillisecond;
inline constexpr SimTime kMaxJitter = 3 * kMillisecond;  ///< uniform backoff
inline constexpr std::size_t kHeaderBytes = 7;  ///< TOS_Msg header + CRC

/// The serialization time alone (header + payload bits on the air),
/// without the MAC overhead — what the radio actually spends powered in
/// TX, and what receivers spend decoding. Energy charges use this.
[[nodiscard]] SimTime serialization_time(std::size_t payload_bytes);

/// MAC overhead plus serialization: a frame's air time before preamble
/// and jitter.
[[nodiscard]] inline SimTime air_time(std::size_t payload_bytes) {
  return kPerPacketOverhead + serialization_time(payload_bytes);
}

struct NetworkStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_lost = 0;      ///< channel loss events (per receiver)
  std::uint64_t frames_unreachable = 0;  ///< unicast to a non-neighbour
  std::uint64_t bytes_on_air = 0;
  std::uint64_t node_deaths = 0;      ///< battery depletion + churn crashes
  std::uint64_t node_reboots = 0;
  /// Frames sent, indexed by the AM type byte.
  std::array<std::uint64_t, 256> sent_by_type{};

  [[nodiscard]] std::uint64_t sent(AmType am) const {
    return sent_by_type[static_cast<std::uint8_t>(am)];
  }
  void reset() { *this = NetworkStats{}; }
};

struct ChurnOptions {
  /// Poisson crash intensity per node, in crashes per virtual second.
  double crash_rate_per_node_s = 0.0;
  /// Crashed nodes reboot after this long; 0 means they stay down.
  SimTime reboot_after = 0;
};

class Network {
 public:
  using ReceiveHandler = std::function<void(const Frame&)>;
  using NodeDownHandler = std::function<void(NodeId, NodeDownReason)>;
  using NodeUpHandler = std::function<void(NodeId)>;

  explicit Network(Simulator& sim, ChannelLoss loss = {});

  /// Registers a node at `loc` and links it with the nodes one unit
  /// away. Returns its dense id. Throws std::invalid_argument unless
  /// `loc` is an integer lattice point (coordinates within +-2^30) that
  /// no other node occupies, and energy is not attached yet.
  NodeId add_node(Location loc);

  /// Room for `count` nodes in all, so adding them one add_node at a
  /// time never reallocates the per-node tables (make_grid knows its
  /// size up front).
  void reserve(std::size_t count);

  /// Install the (single) receive upcall for a node. The net/ layer
  /// dispatches by AM type from here.
  void set_receiver(NodeId id, ReceiveHandler handler);

  /// Queue a frame for transmission from frame.src. Takes effect in virtual
  /// time; the call itself returns immediately.
  void send(Frame frame);

  /// Turn a node's radio on/off. A disabled node neither starts
  /// transmissions (its queue stalls) nor receives; a frame already on
  /// the air when the radio goes down still lands (its fate was sealed
  /// at transmit start). Used for failure injection and for the paper's
  /// local-instruction benchmarks ("we disabled the radio").
  void set_radio_enabled(NodeId id, bool enabled);

  // ----------------------------------------------------------- sharding
  /// Partitions the deployment into `shards` contiguous x-strips and
  /// configures the simulator's sharded event engine (worker pool, per
  /// shard event queues, conservative lookahead = min_frame_latency()).
  /// Call once, after all nodes are added and before any middleware is
  /// started. shards = 1 (the default engine state) is the exact serial
  /// loop; any K produces byte-identical outcomes.
  void configure_shards(std::size_t shards);

  /// The minimum virtual latency of any frame (MAC overhead plus an empty
  /// payload's serialization time, no preamble, no jitter): the sharded
  /// engine's lookahead window.
  [[nodiscard]] static SimTime min_frame_latency() { return air_time(0); }

  // ------------------------------------------------------------- energy
  /// Creates per-node batteries (unless battery_mj <= 0) and starts
  /// charging TX/RX/idle energy. Call once, after all nodes are added:
  /// batteries live inline in the node table, whose addresses battery()
  /// hands out, so add_node refuses afterwards. With gateway_powered,
  /// node 0 is mains-powered (no battery).
  void attach_energy(const energy::EnergyOptions& options);

  /// The node's battery; nullptr when energy is not attached, for the
  /// powered gateway, or for an out-of-range id.
  [[nodiscard]] energy::Battery* battery(NodeId id);
  [[nodiscard]] const energy::Battery* battery(NodeId id) const;

  /// Settles every battery's idle draw up to now() (call before reading
  /// ledgers mid-run; death checks do this automatically).
  void settle_batteries();

  [[nodiscard]] const energy::EnergyOptions* energy_options() const {
    return energy_ ? &energy_->options : nullptr;
  }
  [[nodiscard]] const energy::DutyCycler& duty_cycler() const;

  /// The node's own duty cycler. Identical to duty_cycler() under static
  /// LPL; diverges per node once the adaptive controller runs.
  [[nodiscard]] const energy::DutyCycler& node_duty(NodeId id) const;

  // ------------------------------------------------- node death & churn
  /// Starts Poisson per-node crash (and optional reboot) events; a zero
  /// rate starts none. Requires nodes to exist. Node 0 is exempt while
  /// `spare_gateway` (a mains-powered gateway).
  void enable_churn(ChurnOptions options, bool spare_gateway);

  /// Kills a node now: radio off, queued-but-unstarted frames dropped,
  /// idle draw stopped, node-down handler invoked, kNodeDown emitted. A
  /// frame already on the air completes (fate sealed at start).
  /// Idempotent.
  void kill_node(NodeId id, NodeDownReason reason);

  /// Reboots a killed node (fresh radio state). No-op if the node is
  /// alive or its battery is depleted.
  void revive_node(NodeId id);

  [[nodiscard]] bool alive(NodeId id) const;
  [[nodiscard]] std::size_t alive_count() const;

  void set_node_down_handler(NodeDownHandler handler) {
    node_down_ = std::move(handler);
  }
  void set_node_up_handler(NodeUpHandler handler) {
    node_up_ = std::move(handler);
  }

  [[nodiscard]] const NodeInfo& info(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Simulator& simulator() { return sim_; }

  /// Ground-truth connectivity (what the channel permits): the node's
  /// receivers, in delivery order (left, down, up, right); valid until
  /// the next add_node. Protocol-level neighbour knowledge comes from
  /// beacons in net::NeighborTable.
  [[nodiscard]] std::span<const NodeId> connected_neighbors(NodeId id) const {
    return nodes_.at(id.value).receivers();
  }

  /// Aggregated traffic/lifecycle counters. Counters accumulate per shard
  /// (each in its owning worker's cache line set) and merge here; call
  /// from the driving thread between run() calls.
  [[nodiscard]] NetworkStats stats() const;

 private:
  struct NodeState {
    NodeInfo info;
    ReceiveHandler receiver;
    Fifo<Frame> tx_queue;
    /// The frame currently on the air (shared with its per-receiver
    /// delivery events). Non-null == transmitting.
    std::shared_ptr<const Frame> in_flight;
    bool alive = true;
    std::optional<energy::Battery> battery;
    /// Per-node LPL schedule (meaningful only when energy is attached;
    /// moves per node under the adaptive controller).
    energy::DutyCycler duty;
    /// Frames this node's radio decoded since the last settle tick — the
    /// local traffic rate the adaptive controller observes.
    std::uint32_t frames_heard = 0;
    /// The nodes one lattice unit away, fixed at placement and compacted
    /// in delivery order; bit d of `link_dirs` marks a neighbour in
    /// direction d (0 left, 1 down, 2 up, 3 right).
    std::array<NodeId, 4> links;
    std::uint8_t link_dirs = 0;

    [[nodiscard]] std::span<const NodeId> receivers() const {
      return {links.data(), static_cast<std::size_t>(
                                std::popcount(link_dirs))};
    }
    [[nodiscard]] bool hears(NodeId id) const;
    void link(std::size_t dir, NodeId peer);
  };

  struct EnergyState {
    energy::EnergyOptions options;
    energy::DutyCycler duty;
  };

  /// What a scheduled receiver-side event does with the frame.
  enum class RxRole : std::uint8_t {
    kBroadcast,   ///< broadcast copy: full receive path
    kUnicast,     ///< the addressed unicast target: full receive path
    kOverhear,    ///< in-range bystander: RX energy for the decode only
  };

  void try_start_tx(NodeState& node);
  /// Enumerates receivers and schedules their delivery events plus the
  /// sender-side finish, all at `arrival`.
  void launch_frame(NodeState& node, SimTime arrival);
  void finish_tx(NodeId id);
  /// kFrameTx (node = sender) or kFrameRx (node = receiver) record.
  void emit_frame(EventKind kind, const Frame& frame, NodeId node, bool lost);
  /// Receiver-side delivery: runs in the receiver's stream at arrival
  /// time — alive/radio checks, loss draw from the receiver's RNG, RX
  /// energy, stats, and the upcall.
  void deliver_at(const std::shared_ptr<const Frame>& frame, NodeId rx,
                  RxRole role);
  /// The LPL preamble extension this frame pays: its per-receiver
  /// override when the net layer set one, the sender's own schedule
  /// otherwise.
  [[nodiscard]] SimTime preamble_for(const NodeState& sender,
                                     const Frame& frame) const;
  /// Clamped drain + deferred depletion kill (safe mid-delivery).
  void charge(NodeState& node, energy::EnergyComponent component, double mj);
  void schedule_settle_tick();
  void schedule_crash(NodeId id);

  /// The shard-local counter block for events concerning `id`.
  [[nodiscard]] NetworkStats& stats_for(NodeId id);

  Simulator& sim_;
  ChannelLoss loss_;
  std::vector<NodeState> nodes_;
  /// Lattice point -> the node placed there (see add_node).
  std::unordered_map<std::uint64_t, NodeId> placed_;
  std::optional<EnergyState> energy_;
  ChurnOptions churn_;
  NodeDownHandler node_down_;
  NodeUpHandler node_up_;
  /// One counter block per shard; stats() sums them.
  std::vector<NetworkStats> shard_stats_{1};
};

}  // namespace agilla::sim
