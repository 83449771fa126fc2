#include "net/neighbor_table.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace agilla::net {

NeighborTable::NeighborTable(sim::Network& network, LinkLayer& link,
                             sim::Location self)
    : NeighborTable(network, link, self, Options{}) {}

NeighborTable::NeighborTable(sim::Network& network, LinkLayer& link,
                             sim::Location self, Options options,
                             Listener* listener)
    : network_(network),
      link_(link),
      self_(self),
      options_(options),
      listener_(listener) {}

void NeighborTable::start() {
  if (running_) {
    return;
  }
  running_ = true;
  backoff_exp_ = 0;
  // Our own stream for the desync offset, our own affinity for the timer:
  // start() is called from setup or reboot (kernel context), and beacon
  // events must run in this node's shard.
  const sim::SimTime offset =
      network_.simulator().node_rng(link_.self()).uniform(
          kBeaconPeriod);
  beacon_timer_ = network_.simulator().schedule_in(
      offset, link_.self(), [this] { send_beacon(); });
  if (suppressing()) {
    // Backed-off beacons check for expiry too rarely: sweep on the base
    // cadence so a silenced-then-dead neighbour is still evicted after
    // kExpiryPeriods of ITS advertised interval.
    schedule_expiry_sweep();
  }
}

bool NeighborTable::suppressing() const {
  if (options_.suppression != Suppression::kAuto) {
    return options_.suppression == Suppression::kOn;
  }
  const energy::EnergyOptions* energy = network_.energy_options();
  return energy != nullptr && energy->duty.active();
}

void NeighborTable::stop() {
  running_ = false;
  beacon_timer_.cancel();
  expiry_timer_.cancel();
}

void NeighborTable::schedule_expiry_sweep() {
  expiry_timer_ = network_.simulator().schedule_in(
      kBeaconPeriod, link_.self(), [this] {
        if (!running_) {
          return;
        }
        expire();
        schedule_expiry_sweep();
      });
}

NeighborTable::SelfState NeighborTable::advertised_state() const {
  // Residual battery (full for mains-powered / battery-less nodes) and
  // the current LPL check period.
  SelfState state;
  if (energy::Battery* battery = network_.battery(link_.self())) {
    battery->settle(network_.simulator().now());
    state.residual = encode_residual(battery->remaining_mj() /
                                     battery->capacity_mj());
  }
  state.period_units = network_.node_duty(link_.self()).period_units();
  return state;
}

sim::SimTime NeighborTable::interval_for_exp(std::uint32_t exp) const {
  // The exponent can arrive off the wire (0-255): clamp before shifting
  // (a shift >= 64 is UB, and anything past ~32 is already beyond every
  // plausible kMaxBeaconPeriod).
  const sim::SimTime interval = kBeaconPeriod
                                << std::min<std::uint32_t>(exp, 32);
  return std::min(interval, kMaxBeaconPeriod);
}

sim::SimTime NeighborTable::current_beacon_interval() const {
  return interval_for_exp(backoff_exp_);
}

void NeighborTable::send_beacon() {
  if (!running_) {
    return;
  }
  const SelfState state = advertised_state();
  if (suppressing()) {
    // Stability check: any membership change, or a material self-state
    // change (period moved, or the residual dropped a rebeacon step),
    // snaps the period back to the base; otherwise keep backing off.
    const bool material =
        state.period_units != last_advertised_.period_units ||
        std::abs(static_cast<int>(state.residual) -
                 static_cast<int>(last_advertised_.residual)) >=
            static_cast<int>(kResidualRestep);
    if (table_changed_ || material) {
      backoff_exp_ = 0;
    } else if (interval_for_exp(backoff_exp_ + 1) >
               interval_for_exp(backoff_exp_)) {
      backoff_exp_++;
    }
    table_changed_ = false;
  }
  last_advertised_ = state;
  Writer w;
  beacon_for(state).write(w);
  link_.send_unacked(sim::kBroadcastNode, sim::AmType::kBeacon, w.payload());
  expire();
  beacon_timer_ = network_.simulator().schedule_in(
      current_beacon_interval(), link_.self(), [this] { send_beacon(); });
}

BeaconPayload NeighborTable::beacon_for(const SelfState& state) const {
  BeaconPayload beacon;
  beacon.location = self_;
  beacon.residual = state.residual;
  beacon.period_units = state.period_units;
  beacon.backoff_exp = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(backoff_exp_, 255));
  return beacon;
}

BeaconPayload NeighborTable::make_piggyback() const {
  return beacon_for(advertised_state());
}

void NeighborTable::on_beacon(sim::NodeId from,
                              std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const BeaconPayload beacon = BeaconPayload::read(r);
  if (!r.ok()) {
    return;
  }
  upsert(from, beacon);
}

void NeighborTable::insert(sim::NodeId id, sim::Location location) {
  insert(id, location, BeaconPayload::kResidualFull, 1);
}

void NeighborTable::insert(sim::NodeId id, sim::Location location,
                           std::uint8_t residual,
                           std::uint8_t period_units) {
  upsert(id, BeaconPayload{location, residual, period_units, 0});
}

void NeighborTable::upsert(sim::NodeId id, const BeaconPayload& beacon) {
  const sim::SimTime now = network_.simulator().now();
  NeighborEntry entry;
  entry.id = id;
  entry.location = beacon.location;
  entry.last_heard = now;
  entry.residual = beacon.residual;
  // A period of 0 units is not representable (the sender's own cycler
  // never advertises it); clamp so a malformed frame cannot underflow
  // the preamble math in preamble_extension_for().
  entry.period_units = std::max<std::uint8_t>(beacon.period_units, 1);
  entry.beacon_interval = interval_for_exp(beacon.backoff_exp);
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [id](const NeighborEntry& e) { return e.id == id; });
  if (it != entries_.end()) {
    *it = entry;
    return;
  }
  table_changed_ = true;
  if (entries_.size() >= kCapacity) {
    // Evict the stalest entry (mote memory is fixed; paper Sec. 3.2).
    auto stalest = std::min_element(
        entries_.begin(), entries_.end(),
        [](const NeighborEntry& a, const NeighborEntry& b) {
          return a.last_heard < b.last_heard;
        });
    *stalest = entry;
  } else {
    entries_.push_back(entry);
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const NeighborEntry& a, const NeighborEntry& b) {
              return a.id < b.id;
            });
  if (listener_ != nullptr) {
    listener_->on_neighbor_discovered(id, beacon.location);
  }
}

void NeighborTable::expire() {
  const sim::SimTime now = network_.simulator().now();
  const std::size_t before = entries_.size();
  std::erase_if(entries_, [&](const NeighborEntry& e) {
    // Expiry clock: the sender's ADVERTISED beacon interval (a backed-off
    // neighbour beacons rarely but is not dead). upsert() always sets it
    // to at least the base period; the max() only defends entries built
    // outside that path.
    const sim::SimTime interval =
        std::max(e.beacon_interval, kBeaconPeriod);
    const sim::SimTime horizon =
        static_cast<sim::SimTime>(kExpiryPeriods) * interval;
    return now > e.last_heard && now - e.last_heard > horizon;
  });
  if (entries_.size() != before) {
    table_changed_ = true;
  }
}

std::optional<NeighborEntry> NeighborTable::by_index(std::size_t i) const {
  if (i >= entries_.size()) {
    return std::nullopt;
  }
  return entries_[i];
}

std::optional<NeighborEntry> NeighborTable::by_id(sim::NodeId id) const {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [id](const NeighborEntry& e) { return e.id == id; });
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return *it;
}

std::optional<NeighborEntry> NeighborTable::random(sim::Rng& rng) const {
  if (entries_.empty()) {
    return std::nullopt;
  }
  return entries_[rng.uniform(entries_.size())];
}

std::optional<NeighborEntry> NeighborTable::closest_to(
    sim::Location dest) const {
  const NeighborEntry* best = nullptr;
  double best_d = std::numeric_limits<double>::infinity();
  for (const auto& e : entries_) {
    const double d = distance(e.location, dest);
    if (d < best_d) {
      best_d = d;
      best = &e;
    }
  }
  if (best == nullptr) {
    return std::nullopt;
  }
  return *best;
}

std::optional<sim::SimTime> NeighborTable::preamble_extension_for(
    sim::NodeId dst) const {
  const auto extension_of = [](const NeighborEntry& e) {
    return static_cast<sim::SimTime>(e.period_units - 1) * energy::kWakeTime;
  };
  if (dst.is_broadcast()) {
    // A broadcast must outlast the slowest sampler in range.
    std::optional<sim::SimTime> max;
    for (const auto& e : entries_) {
      const sim::SimTime ext = extension_of(e);
      if (!max || ext > *max) {
        max = ext;
      }
    }
    return max;
  }
  const auto entry = by_id(dst);
  if (!entry) {
    return std::nullopt;
  }
  return extension_of(*entry);
}

}  // namespace agilla::net
