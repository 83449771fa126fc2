// The simulated radio network: node registry, half-duplex transmit queues,
// loss, and delivery upcalls.
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
// frame starts, the sender enumerates the (static) candidate receivers and
// schedules one delivery event per receiver in the RECEIVER's stream at
// the frame's arrival time; radio-enabled checks, loss draws (from the
// receiver's RNG), RX energy, and the upcall all happen there. Since every
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

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "energy/battery.h"
#include "energy/energy_model.h"
#include "sim/fifo.h"
#include "sim/radio_model.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace agilla::sim {

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
  std::unordered_map<AmType, std::uint64_t> sent_by_type;

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

  Network(Simulator& sim, std::unique_ptr<RadioModel> radio);

  /// Register a node at `loc`. Returns its dense id.
  NodeId add_node(Location loc);

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
  /// charging TX/RX/idle energy. Call once, after all nodes are added;
  /// nodes added later get no battery. With gateway_powered, node 0 is
  /// mains-powered (no battery).
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
  [[nodiscard]] const RadioModel& radio() const { return *radio_; }
  [[nodiscard]] Simulator& simulator() { return sim_; }

  /// Ground-truth connectivity (what the channel permits), ascending by
  /// node id. Protocol-level neighbour knowledge comes from beacons in
  /// net::NeighborTable. Served from the spatial bucket index: O(density)
  /// per call, not O(node_count).
  [[nodiscard]] std::vector<NodeId> connected_neighbors(NodeId id) const;

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
    std::unique_ptr<energy::Battery> battery;
    /// Per-node LPL schedule (meaningful only when energy is attached;
    /// moves per node under the adaptive controller).
    energy::DutyCycler duty;
    /// Frames this node's radio decoded since the last settle tick — the
    /// local traffic rate the adaptive controller observes.
    std::uint32_t frames_heard = 0;
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

  // ------------------------------------------- spatial neighbour index
  /// Node ids bucketed into square cells of the radio's max_range().
  /// Rebuilt lazily after add_node (single-shard contexts only) and
  /// eagerly by configure_shards; connectivity itself is still decided by
  /// RadioModel::connected on the 3x3 candidate cells.
  void rebuild_index() const;
  void for_each_in_range(const NodeInfo& from,
                         const std::function<void(const NodeState&)>& fn)
      const;

  Simulator& sim_;
  std::unique_ptr<RadioModel> radio_;
  std::vector<NodeState> nodes_;
  std::optional<EnergyState> energy_;
  ChurnOptions churn_;
  NodeDownHandler node_down_;
  NodeUpHandler node_up_;
  /// One counter block per shard; stats() sums them.
  std::vector<NetworkStats> shard_stats_{1};

  mutable std::unordered_map<std::uint64_t, std::vector<NodeId>> index_;
  mutable double index_cell_ = 0.0;
  mutable bool index_dirty_ = true;
};

}  // namespace agilla::sim
