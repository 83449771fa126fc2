#include "sim/network.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace agilla::sim {
namespace {

/// Exponential inter-arrival sample for the Poisson churn process.
SimTime exponential_delay(Rng& rng, double rate_per_s) {
  // Clamp u away from 0 so -log(u) stays finite.
  const double u = std::max(rng.uniform01(), 1e-12);
  const double seconds = -std::log(u) / rate_per_s;
  return static_cast<SimTime>(seconds * 1e6) + 1;
}

/// Lattice coordinates stay within +-2^30, so a neighbour's coordinate
/// never overflows std::int32_t.
constexpr double kMaxCoordinate = 1 << 30;

/// The lattice offsets of a node's receivers, in delivery order: left,
/// down, up, right. Direction d's reverse is 3 - d.
constexpr std::array<std::array<std::int32_t, 2>, 4> kLinkOffsets = {
    {{-1, 0}, {0, -1}, {0, 1}, {1, 0}}};

std::uint64_t lattice_key(std::int32_t x, std::int32_t y) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) << 32) |
         static_cast<std::uint32_t>(y);
}

}  // namespace

SimTime serialization_time(std::size_t payload_bytes) {
  const double bits =
      static_cast<double>((payload_bytes + kHeaderBytes) * 8);
  const double seconds = bits / kBitRateBps;
  return static_cast<SimTime>(seconds * static_cast<double>(kSecond));
}

double ChannelLoss::probability(std::size_t on_air_bytes) const {
  return std::clamp(
      packet_loss + per_byte_loss * static_cast<double>(on_air_bytes), 0.0,
      1.0);
}

Network::Network(Simulator& sim, ChannelLoss loss) : sim_(sim), loss_(loss) {}

bool Network::NodeState::hears(NodeId id) const {
  const auto list = receivers();
  return std::find(list.begin(), list.end(), id) != list.end();
}

void Network::NodeState::link(std::size_t dir, NodeId peer) {
  assert((link_dirs & (1u << dir)) == 0);  // one node per lattice point
  const auto slot = static_cast<std::size_t>(
      std::popcount(static_cast<unsigned>(link_dirs & ((1u << dir) - 1))));
  const std::size_t count = receivers().size();
  std::copy_backward(links.begin() + slot, links.begin() + count,
                     links.begin() + count + 1);
  links[slot] = peer;
  link_dirs |= static_cast<std::uint8_t>(1u << dir);
}

NodeId Network::add_node(Location loc) {
  const auto on_lattice = [](double v) {
    return v == std::floor(v) && std::abs(v) <= kMaxCoordinate;
  };
  if (!on_lattice(loc.x) || !on_lattice(loc.y)) {
    throw std::invalid_argument("add_node: not an integer lattice point");
  }
  if (energy_.has_value()) {
    throw std::logic_error("add_node: after attach_energy");
  }
  const auto x = static_cast<std::int32_t>(loc.x);
  const auto y = static_cast<std::int32_t>(loc.y);
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  if (!placed_.emplace(lattice_key(x, y), id).second) {
    throw std::invalid_argument("add_node: lattice point already taken");
  }
  NodeState node;
  node.info = NodeInfo{id, loc, true};
  for (std::size_t dir = 0; dir < kLinkOffsets.size(); ++dir) {
    const auto it = placed_.find(
        lattice_key(x + kLinkOffsets[dir][0], y + kLinkOffsets[dir][1]));
    if (it != placed_.end()) {
      node.link(dir, it->second);
      nodes_[it->second.value].link(3 - dir, id);
    }
  }
  nodes_.push_back(std::move(node));
  sim_.ensure_node_streams(nodes_.size());
  return id;
}

void Network::reserve(std::size_t count) {
  nodes_.reserve(count);
  sim_.reserve_node_streams(count);
}

void Network::set_receiver(NodeId id, ReceiveHandler handler) {
  nodes_.at(id.value).receiver = std::move(handler);
}

void Network::set_radio_enabled(NodeId id, bool enabled) {
  auto& node = nodes_.at(id.value);
  if (node.battery.has_value() &&
      enabled != node.info.radio_enabled) {
    // Pause/resume the idle-listen draw across the outage.
    node.battery->settle(sim_.now());
    node.battery->set_idle_draw_mw(
        enabled ? energy::radio_listen_mw(node.duty.listen_fraction())
                : 0.0);
  }
  node.info.radio_enabled = enabled;
  if (enabled) {
    try_start_tx(node);
  }
}

// ------------------------------------------------------------- sharding

void Network::configure_shards(std::size_t shards) {
  shards = std::max<std::size_t>(shards, 1);
  shards = std::min(shards, std::max<std::size_t>(nodes_.size(), 1));
  // Contiguous x-strips: radio range is short, so strip borders are the
  // only cross-shard traffic, and a uniform grid splits evenly.
  double min_x = 0.0;
  double max_x = 0.0;
  if (!nodes_.empty()) {
    min_x = max_x = nodes_.front().info.location.x;
    for (const NodeState& node : nodes_) {
      min_x = std::min(min_x, node.info.location.x);
      max_x = std::max(max_x, node.info.location.x);
    }
  }
  const double span = max_x - min_x;
  std::vector<std::uint32_t> map(nodes_.size(), 0);
  if (span > 0.0 && shards > 1) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const double frac = (nodes_[i].info.location.x - min_x) / span;
      const auto shard = static_cast<std::uint32_t>(
          frac * static_cast<double>(shards));
      map[i] = std::min(shard, static_cast<std::uint32_t>(shards - 1));
    }
  }
  sim_.configure_shards(shards, std::move(map), min_frame_latency());
  shard_stats_.assign(sim_.shard_count(), NetworkStats{});
  tx_pools_.assign(sim_.shard_count(), TxPool{});
}

NetworkStats& Network::stats_for(NodeId id) {
  if (shard_stats_.size() == 1) {
    return shard_stats_.front();
  }
  return shard_stats_[sim_.shard_of(id)];
}

NetworkStats Network::stats() const {
  NetworkStats total;
  for (const NetworkStats& shard : shard_stats_) {
    total.frames_sent += shard.frames_sent;
    total.frames_delivered += shard.frames_delivered;
    total.frames_lost += shard.frames_lost;
    total.frames_unreachable += shard.frames_unreachable;
    total.bytes_on_air += shard.bytes_on_air;
    total.node_deaths += shard.node_deaths;
    total.node_reboots += shard.node_reboots;
    for (std::size_t am = 0; am < total.sent_by_type.size(); ++am) {
      total.sent_by_type[am] += shard.sent_by_type[am];
    }
  }
  return total;
}

// --------------------------------------------------------------- energy

const energy::DutyCycler& Network::duty_cycler() const {
  static const energy::DutyCycler kDisabled;
  return energy_ ? energy_->duty : kDisabled;
}

const energy::DutyCycler& Network::node_duty(NodeId id) const {
  if (!energy_ || id.value >= nodes_.size()) {
    return duty_cycler();
  }
  return nodes_[id.value].duty;
}

void Network::attach_energy(const energy::EnergyOptions& options) {
  assert(!energy_.has_value());
  energy_ = EnergyState{options, energy::DutyCycler(options.duty)};
  for (NodeState& node : nodes_) {
    node.duty = energy::DutyCycler(options.duty);
  }
  if (options.battery_mj <= 0.0) {
    // Duty-cycle latency only; nodes stay immortal — but the adaptive
    // controller still needs its traffic tick.
    if (options.duty.adaptive) {
      schedule_settle_tick();
    }
    return;
  }
  for (NodeState& node : nodes_) {
    if (options.gateway_powered && node.info.id.value == 0) {
      continue;
    }
    node.battery.emplace(options.battery_mj, sim_.now());
    node.battery->set_idle_draw_mw(
        node.info.radio_enabled
            ? energy::radio_listen_mw(node.duty.listen_fraction())
            : 0.0);
  }
  schedule_settle_tick();
}

energy::Battery* Network::battery(NodeId id) {
  if (id.value >= nodes_.size()) {
    return nullptr;
  }
  auto& battery = nodes_[id.value].battery;
  return battery ? &*battery : nullptr;
}

const energy::Battery* Network::battery(NodeId id) const {
  if (id.value >= nodes_.size()) {
    return nullptr;
  }
  auto& battery = nodes_[id.value].battery;
  return battery ? &*battery : nullptr;
}

void Network::settle_batteries() {
  for (NodeState& node : nodes_) {
    if (node.battery.has_value()) {
      node.battery->settle(sim_.now());
    }
  }
}

void Network::schedule_settle_tick() {
  // The settle tick walks every node, so it stays a kernel-stream event:
  // it runs at an epoch barrier with all shards quiescent, in exact node
  // order, exactly as the serial loop ran it.
  sim_.schedule_in(energy::kSettlePeriod, [this] {
    for (NodeState& node : nodes_) {
      // Adaptive LPL: fold this tick's traffic into the node's schedule
      // and re-base the idle draw when the listen fraction moved.
      const std::uint32_t heard =
          std::exchange(node.frames_heard, std::uint32_t{0});
      // Congestion signal: the node's own pending TX backlog (queued
      // frames plus the one on air) counts toward "busy" so a loaded
      // node does not widen its check period mid-burst.
      const auto tx_pending = static_cast<std::uint32_t>(
          node.tx_queued + (node.transmitting ? 1 : 0));
      const bool fraction_changed =
          node.alive && node.duty.observe(heard, tx_pending);
      if (!node.battery.has_value()) {
        continue;
      }
      node.battery->settle(sim_.now());
      if (fraction_changed && node.info.radio_enabled) {
        node.battery->set_idle_draw_mw(energy::radio_listen_mw(
            node.duty.listen_fraction()));
      }
      if (node.alive && node.battery->depleted()) {
        kill_node(node.info.id, NodeDownReason::kBatteryDepleted);
      }
    }
    sim_.emit(Event(EventKind::kBatterySettle, sim_.now()));
    schedule_settle_tick();
  });
}

void Network::charge(NodeState& node, energy::EnergyComponent component,
                     double mj) {
  if (!node.battery.has_value()) {
    return;
  }
  node.battery->drain(component, mj);
  if (node.alive && node.battery->depleted()) {
    // Defer the kill to its own event: we may be mid-delivery, and the
    // node-down handler tears down middleware state.
    const NodeId id = node.info.id;
    sim_.schedule_in(0, id, [this, id] {
      auto& n = nodes_.at(id.value);
      if (n.alive && n.battery.has_value() && n.battery->depleted()) {
        kill_node(id, NodeDownReason::kBatteryDepleted);
      }
    });
  }
}

// ------------------------------------------------------ death and churn

void Network::enable_churn(ChurnOptions options, bool spare_gateway) {
  churn_ = options;
  if (churn_.crash_rate_per_node_s <= 0.0) {
    return;
  }
  for (const NodeState& node : nodes_) {
    if (spare_gateway && node.info.id.value == 0) {
      continue;
    }
    schedule_crash(node.info.id);
  }
}

void Network::schedule_crash(NodeId id) {
  // Crash delays draw from the node's own stream so churn timing is
  // independent of every other node — and of the shard count.
  const SimTime delay =
      exponential_delay(sim_.node_rng(id), churn_.crash_rate_per_node_s);
  sim_.schedule_in(delay, id, [this, id] {
    auto& node = nodes_.at(id.value);
    if (!node.alive) {
      return;  // already down (battery death); churn stops for it
    }
    kill_node(id, NodeDownReason::kChurnCrash);
    if (churn_.reboot_after > 0) {
      sim_.schedule_in(churn_.reboot_after, id, [this, id] {
        revive_node(id);
        if (nodes_.at(id.value).alive) {
          schedule_crash(id);
        }
      });
    }
  });
}

void Network::kill_node(NodeId id, NodeDownReason reason) {
  auto& node = nodes_.at(id.value);
  if (!node.alive) {
    return;
  }
  set_radio_enabled(id, false);  // settles + stops the idle draw
  node.alive = false;
  // Queued-but-unstarted frames die with the node. A frame already on
  // the air completes: its fate (and its receivers' events) was sealed
  // at transmit start — see DESIGN.md "Sharded event engine".
  clear_tx(node);
  stats_for(id).node_deaths++;
  if (node_down_) {
    node_down_(id, reason);
  }
  if (sim_.observes(EventKind::kNodeDown)) {
    Event event(EventKind::kNodeDown, sim_.now(), id);
    event.down = reason;
    sim_.emit(event);
  }
}

void Network::revive_node(NodeId id) {
  auto& node = nodes_.at(id.value);
  if (node.alive) {
    return;
  }
  if (node.battery.has_value() && node.battery->depleted()) {
    return;  // nothing to boot with
  }
  node.alive = true;
  clear_tx(node);  // a fresh boot forgets queued frames
  if (energy_) {
    // The adaptive LPL controller's state lived in the wiped RAM: the
    // rebooted MAC restarts from the configured schedule.
    node.duty = energy::DutyCycler(energy_->options.duty);
    node.frames_heard = 0;
  }
  stats_for(id).node_reboots++;
  set_radio_enabled(id, true);  // resumes the idle draw
  if (node_up_) {
    node_up_(id);
  }
  sim_.emit(Event(EventKind::kNodeUp, sim_.now(), id));
}

bool Network::alive(NodeId id) const {
  return id.value < nodes_.size() && nodes_[id.value].alive;
}

std::size_t Network::alive_count() const {
  std::size_t count = 0;
  for (const NodeState& node : nodes_) {
    if (node.alive) {
      ++count;
    }
  }
  return count;
}

// ------------------------------------------------------------ transport

const NodeInfo& Network::info(NodeId id) const {
  return nodes_.at(id.value).info;
}

void Network::send(Frame frame) {
  auto& node = nodes_.at(frame.src.value);
  if (node.transmitting || node.tx_queued != 0 || !node.info.radio_enabled) {
    enqueue_tx(node, frame);
    return;
  }
  start_tx(node, frame);
}

Network::TxPool& Network::tx_pool_for(NodeId id) {
  if (tx_pools_.size() == 1) {
    return tx_pools_.front();
  }
  return tx_pools_[sim_.shard_of(id)];
}

void Network::enqueue_tx(NodeState& node, const Frame& frame) {
  TxPool& pool = tx_pool_for(node.info.id);
  std::uint32_t cell = pool.free;
  if (cell != kNoCell) {
    pool.free = pool.cells[cell].next;
    pool.cells[cell] = TxCell{frame, kNoCell};
  } else {
    cell = static_cast<std::uint32_t>(pool.cells.size());
    pool.cells.push_back(TxCell{frame, kNoCell});
  }
  if (node.tx_tail == kNoCell) {
    node.tx_head = cell;
  } else {
    pool.cells[node.tx_tail].next = cell;
  }
  node.tx_tail = cell;
  ++node.tx_queued;
}

Frame Network::dequeue_tx(NodeState& node) {
  assert(node.tx_queued > 0);
  TxPool& pool = tx_pool_for(node.info.id);
  const std::uint32_t cell = node.tx_head;
  TxCell& entry = pool.cells[cell];
  node.tx_head = entry.next;
  if (node.tx_head == kNoCell) {
    node.tx_tail = kNoCell;
  }
  --node.tx_queued;
  entry.next = pool.free;
  pool.free = cell;
  return entry.frame;
}

void Network::clear_tx(NodeState& node) {
  while (node.tx_queued > 0) {
    (void)dequeue_tx(node);
  }
}

SimTime Network::preamble_for(const NodeState& sender,
                              const Frame& frame) const {
  return frame.preamble.value_or(sender.duty.preamble_extension());
}

void Network::try_start_tx(NodeState& node) {
  if (node.transmitting || node.tx_queued == 0 || !node.info.radio_enabled) {
    return;
  }
  start_tx(node, dequeue_tx(node));
}

void Network::start_tx(NodeState& node, const Frame& frame) {
  node.transmitting = true;
  // MAC jitter from the sender's stream: every duration is therefore
  // >= min_frame_latency(), the sharded engine's lookahead.
  const SimTime duration = air_time(frame.payload.size()) +
                           preamble_for(node, frame) +
                           sim_.node_rng(frame.src).uniform(kMaxJitter + 1);
  launch_frame(node, frame, sim_.now() + duration);
}

void Network::launch_frame(const NodeState& node, const Frame& frame,
                           SimTime arrival) {
  // The frame's fate is decided here, at transmit start: each of the
  // sender's fixed receivers gets a delivery event in its own stream at
  // the arrival time. Receiver-local conditions (radio off, channel loss)
  // are evaluated at delivery, in the receiver's context.
  const auto deliver = [this, &frame, arrival](NodeId rx, RxRole role) {
    auto event = [this, frame, rx, role] { deliver_at(frame, rx, role); };
    // The delivery event is the largest capture in the program; the
    // event queue's inline callback capacity is sized to it.
    static_assert(sizeof(event) == EventQueue::Callback::kCapacity);
    sim_.schedule_at(arrival, rx, std::move(event));
  };
  if (frame.dst.is_broadcast()) {
    for (const NodeId rx : node.receivers()) {
      deliver(rx, RxRole::kBroadcast);
    }
  } else {
    // Overhearing (energy option, off in the paper model): every awake
    // in-range radio decodes the unicast frame before its address filter
    // drops it, and pays RX for the decode. Pure energy accounting — not
    // counted in frames_heard (filtered frames are not traffic the
    // adaptive-LPL controller acts on), no records, no randomness.
    if (energy_ && energy_->options.overhearing) {
      for (const NodeId rx : node.receivers()) {
        if (rx != frame.dst) {
          deliver(rx, RxRole::kOverhear);
        }
      }
    }
    if (node.hears(frame.dst)) {
      deliver(frame.dst, RxRole::kUnicast);
    }
    // Out-of-range / invalid destinations are counted unreachable at
    // finish_tx, sender-side.
  }
  sim_.schedule_at(arrival, frame.src, [this, frame] { finish_tx(frame); });
}

void Network::finish_tx(const Frame& frame) {
  const NodeId id = frame.src;
  auto& node = nodes_.at(id.value);
  assert(node.transmitting);
  NetworkStats& stats = stats_for(id);
  stats.frames_sent++;
  stats.sent_by_type[static_cast<std::uint8_t>(frame.am)]++;
  stats.bytes_on_air += frame.payload.size() + kHeaderBytes;
  if (!frame.dst.is_broadcast() && !node.hears(frame.dst)) {
    stats.frames_unreachable++;
  }
  if (energy_) {
    charge(node, energy::EnergyComponent::kRadioTx,
           energy::radio_tx_mj(serialization_time(frame.payload.size()) +
                               preamble_for(node, frame)));
  }
  emit_frame(EventKind::kFrameTx, frame, id, false);
  node.transmitting = false;
  try_start_tx(node);
}

void Network::emit_frame(EventKind kind, const Frame& frame, NodeId node,
                         bool lost) {
  if (!sim_.observes(kind)) {
    return;
  }
  Event event(kind, sim_.now(), node);
  event.frame = FrameSummary{
      frame.src, frame.dst, frame.am,
      static_cast<std::uint16_t>(frame.payload.size()),
      kind == EventKind::kFrameRx ? node : NodeId{}, lost};
  sim_.emit(event);
}

void Network::deliver_at(const Frame& frame, NodeId rx_id, RxRole role) {
  auto& rx = nodes_.at(rx_id.value);
  if (!rx.info.radio_enabled) {
    if (role == RxRole::kUnicast) {
      stats_for(rx_id).frames_unreachable++;
    }
    return;
  }
  const SimTime decode_time = serialization_time(frame.payload.size());
  if (role == RxRole::kOverhear) {
    charge(rx, energy::EnergyComponent::kRadioRx,
           energy::radio_rx_mj(decode_time));
    return;
  }
  rx.frames_heard++;  // traffic signal for the adaptive controller
  if (energy_) {
    charge(rx, energy::EnergyComponent::kRadioRx,
           energy::radio_rx_mj(decode_time));
  }
  // Loss draws from the receiver's stream: which frames a node loses is a
  // fact about that node's channel, invariant across shard layouts.
  const std::size_t on_air = frame.payload.size() + kHeaderBytes;
  if (sim_.node_rng(rx_id).chance(loss_.probability(on_air))) {
    stats_for(rx_id).frames_lost++;
    emit_frame(EventKind::kFrameRx, frame, rx_id, /*lost=*/true);
    return;
  }
  stats_for(rx_id).frames_delivered++;
  emit_frame(EventKind::kFrameRx, frame, rx_id, /*lost=*/false);
  if (rx.receiver) {
    rx.receiver(frame);
  }
}

}  // namespace agilla::sim
