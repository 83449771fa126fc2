// Wire formats shared by the protocol modules.
//
// The paper's MICA2 TinyOS stack carries 27-byte payloads by default; the
// real Agilla distribution raised TOSH_DATA_LENGTH so that a maximal tuple
// plus headers fits in one frame. We allow 48-byte payloads for the same
// reason (sim::kFramePayloadBytes) and document it in DESIGN.md; the
// air-time model always charges for the actual bytes transmitted, so
// radio timing stays honest.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/serialize.h"
#include "sim/types.h"

namespace agilla::net {

/// Default TinyOS payload budget (paper Sec. 3.2: tuples are capped at 25
/// bytes "to fit within the 27 byte payload of a single TinyOS message").
inline constexpr std::size_t kTinyOsPayloadBytes = 27;

/// Our extended payload budget (see file comment): the frame's inline
/// payload capacity.
inline constexpr std::size_t kMaxPayloadBytes = sim::kFramePayloadBytes;

/// Locations travel as Q10.6 fixed point: int16 = round(coordinate * 64).
/// Grid coordinates in the paper are small integers, so this is exact for
/// them and gives ~1.5 cm resolution for everything else.
std::int16_t encode_coordinate(double v);
double decode_coordinate(std::int16_t v);

void write_location(Writer& w, sim::Location loc);  // 4 bytes
sim::Location read_location(Reader& r);

/// Epsilon (location-addressing tolerance) travels as u8 = round(eps * 16),
/// i.e. tolerances up to ~15.9 units in 1/16 steps.
std::uint8_t encode_epsilon(double eps);
double decode_epsilon(std::uint8_t e);

/// Residual battery energy travels as u8 = round(fraction * 255): a 1-byte
/// quantization with <= 1/510 (~0.2 %) error (calibration in DESIGN.md).
/// 255 doubles as "mains-powered / no battery" — indistinguishable from a
/// full battery on the wire, which is exactly how a router should treat it.
std::uint8_t encode_residual(double fraction);
double decode_residual(std::uint8_t v);

/// Link-layer header prepended to every non-ack frame payload (2 bytes).
/// Flag bit 1 marks a piggybacked BeaconPayload appended after the inner
/// payload (beacon suppression: data frames double as beacons).
struct LinkHeader {
  std::uint8_t seq = 0;
  bool wants_ack = false;
  bool has_piggyback = false;

  static constexpr std::size_t kWireSize = 2;

  void write(Writer& w) const;
  static LinkHeader read(Reader& r);
};

/// Acknowledgement payload (AmType::kAck, 1 byte): the acked sequence.
struct AckPayload {
  std::uint8_t acked_seq = 0;

  void write(Writer& w) const { w.u8(acked_seq); }
  static AckPayload read(Reader& r) { return AckPayload{r.u8()}; }
};

/// Beacon payload (AmType::kBeacon, 7 bytes): the sender's location plus
/// the energy state the routing and LPL layers need from a neighbour —
/// residual battery energy (1 byte, see encode_residual), the current LPL
/// check period in wake-time units (1 = always on, so a sender can size
/// its preamble for THIS receiver), and the sender's beacon-backoff
/// exponent (so listeners scale their expiry horizon to the actual
/// beacon interval instead of evicting a suppressed-but-alive node).
/// The same 7 bytes ride piggybacked on data frames under beacon
/// suppression (LinkHeader flag bit 1).
struct BeaconPayload {
  sim::Location location;
  std::uint8_t residual = kResidualFull;  ///< encode_residual(remaining)
  std::uint8_t period_units = 1;          ///< check period / kWakeTime
  std::uint8_t backoff_exp = 0;           ///< beacon period = base << exp

  /// Mains-powered or battery-less senders advertise a full battery.
  static constexpr std::uint8_t kResidualFull = 255;
  static constexpr std::size_t kWireSize = 7;

  void write(Writer& w) const;
  static BeaconPayload read(Reader& r);
};

/// Geographic routing envelope (AmType::kGeo): 11-byte header + inner
/// payload. Forwarded greedily hop by hop without link acks (used by the
/// remote tuple-space operations, paper Sec. 3.2).
struct GeoHeader {
  sim::AmType inner_am = sim::AmType::kTsRequest;
  sim::Location dest;
  sim::Location origin;
  double epsilon = 0.0;
  std::uint8_t ttl = kDefaultTtl;

  static constexpr std::uint8_t kDefaultTtl = 32;
  static constexpr std::size_t kWireSize = 11;

  void write(Writer& w) const;
  static GeoHeader read(Reader& r);
};

}  // namespace agilla::net
