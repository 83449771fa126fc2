// Beacon-based neighbour discovery — the paper's "acquaintance list"
// (Sec. 2.2: "Agilla provides one-hop neighbor discovery using beacons. The
// one-hop neighbor information is stored in an acquaintance list and is
// continuously updated").
//
// Beyond the paper, beacons carry the energy state the routing and LPL
// layers need (residual battery, LPL check period — see BeaconPayload),
// and under `Options::suppression` the table implements the two
// beacon-budget optimisations DESIGN.md's "Routing & LPL" chapter
// documents:
//  * exponential beacon backoff (kBeaconPeriod -> kMaxBeaconPeriod) while
//    the acquaintance list and the advertised self-state are stable; any
//    membership change or a material residual/period change resets the
//    period to the base. The current backoff exponent is advertised in
//    the beacon so listeners scale their expiry horizon to the sender's
//    actual interval.
//  * piggybacking: outgoing data frames carry the same 7-byte payload
//    (the mote's LinkLayer asks this table for it), so active neighbours
//    stay fresh without any beacon at all.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/link_layer.h"
#include "sim/rng.h"

namespace agilla::net {

struct NeighborEntry {
  sim::NodeId id;
  sim::Location location;
  sim::SimTime last_heard = 0;
  /// Advertised residual energy (encode_residual; 255 = full/mains).
  std::uint8_t residual = BeaconPayload::kResidualFull;
  /// Advertised LPL check period in wake-time units (1 = always on).
  std::uint8_t period_units = 1;
  /// The sender's beacon interval implied by its advertised backoff
  /// exponent — the expiry clock for this entry.
  sim::SimTime beacon_interval = 0;

  [[nodiscard]] double residual_frac() const {
    return decode_residual(residual);
  }
};

/// Beacon suppression setting (the `beacon_suppression` knob's values).
enum class Suppression : std::int8_t {
  kAuto = -1,  ///< on exactly when the network runs LPL
  kOff = 0,
  kOn = 1,
};

class NeighborTable {
 public:
  /// Base beacon period (and the expiry-sweep cadence).
  static constexpr sim::SimTime kBeaconPeriod = 1 * sim::kSecond;
  /// Entries older than `kExpiryPeriods * (sender's advertised beacon
  /// interval)` are evicted.
  static constexpr std::uint32_t kExpiryPeriods = 3;
  /// Acquaintance-list slots on the mote.
  static constexpr std::size_t kCapacity = 16;
  /// Ceiling of the exponential beacon backoff.
  static constexpr sim::SimTime kMaxBeaconPeriod = 8 * sim::kSecond;
  /// A residual drop of at least this many quantization steps (13/255
  /// ~ 5 %) is "material": it resets the beacon backoff so routers learn
  /// about draining relays promptly.
  static constexpr std::uint8_t kResidualRestep = 13;

  struct Options {
    /// Beacon suppression: exponential backoff while stable + piggyback.
    /// Auto turns it on when LPL makes every beacon pay the preamble
    /// extension.
    Suppression suppression = Suppression::kAuto;
  };

  /// Told when a NEW neighbour enters the table (not on refresh) — the
  /// middleware turns this into a fresh <"ctx", loc> tuple so deployment
  /// agents can re-flood onto rebooted nodes.
  class Listener {
   public:
    virtual void on_neighbor_discovered(sim::NodeId id,
                                        sim::Location location) = 0;

   protected:
    ~Listener() = default;
  };

  /// `listener` may be nullptr (nobody is told of discoveries).
  NeighborTable(sim::Network& network, LinkLayer& link, sim::Location self);
  NeighborTable(sim::Network& network, LinkLayer& link, sim::Location self,
                Options options, Listener* listener = nullptr);

  /// Start periodic beaconing (first beacon after a random sub-period
  /// offset so co-located nodes do not synchronize).
  void start();
  void stop();

  /// Entries sorted by node id (stable order for the getnbr instruction).
  [[nodiscard]] const std::vector<NeighborEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] std::optional<NeighborEntry> by_index(std::size_t i) const;
  [[nodiscard]] std::optional<NeighborEntry> by_id(sim::NodeId id) const;
  [[nodiscard]] std::optional<NeighborEntry> random(sim::Rng& rng) const;

  /// Neighbour strictly closest to `dest` (used by greedy routing).
  [[nodiscard]] std::optional<NeighborEntry> closest_to(
      sim::Location dest) const;

  /// The LPL preamble a frame to `dst` must pay, from the destination's
  /// advertised check period (max over all entries for broadcast).
  /// nullopt when nothing is known — the sender falls back to its own
  /// schedule.
  [[nodiscard]] std::optional<sim::SimTime> preamble_extension_for(
      sim::NodeId dst) const;

  /// The node's current beacon payload (what a data frame piggybacks).
  [[nodiscard]] BeaconPayload make_piggyback() const;
  /// Consumes a beacon payload from `from`: a kBeacon frame, or one
  /// piggybacked on a data frame.
  void on_beacon(sim::NodeId from, std::span<const std::uint8_t> payload);

  /// Force-insert an entry (tests / warm start).
  void insert(sim::NodeId id, sim::Location location);
  void insert(sim::NodeId id, sim::Location location, std::uint8_t residual,
              std::uint8_t period_units);

  /// Forgets every acquaintance (node death wipes the mote's RAM; a
  /// rebooted node relearns its neighbourhood from beacons).
  void clear() {
    entries_.clear();
    backoff_exp_ = 0;
  }

  /// The interval until this node's next beacon (base << backoff).
  [[nodiscard]] sim::SimTime current_beacon_interval() const;

  /// Options::suppression with kAuto resolved against the network's LPL
  /// state.
  [[nodiscard]] bool suppressing() const;

 private:
  /// What this node advertises about itself in beacons and piggybacks
  /// (the table adds its location).
  struct SelfState {
    std::uint8_t residual = BeaconPayload::kResidualFull;
    std::uint8_t period_units = 1;
  };

  void send_beacon();
  void upsert(sim::NodeId from, const BeaconPayload& beacon);
  [[nodiscard]] BeaconPayload beacon_for(const SelfState& state) const;
  void expire();
  void schedule_expiry_sweep();
  /// Read fresh from the network at every beacon and piggyback.
  [[nodiscard]] SelfState advertised_state() const;
  [[nodiscard]] sim::SimTime interval_for_exp(std::uint32_t exp) const;

  sim::Network& network_;
  LinkLayer& link_;
  sim::Location self_;
  Options options_;
  Listener* listener_;
  std::vector<NeighborEntry> entries_;
  sim::EventHandle beacon_timer_;
  sim::EventHandle expiry_timer_;
  bool running_ = false;
  // Suppression state: exponent of the current backoff, whether the
  // table changed since the last beacon, and what that beacon advertised.
  std::uint32_t backoff_exp_ = 0;
  bool table_changed_ = false;
  SelfState last_advertised_;
};

}  // namespace agilla::net
