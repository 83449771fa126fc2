#include "net/packet.h"

#include <algorithm>
#include <cmath>

namespace agilla::net {

std::int16_t encode_coordinate(double v) {
  if (std::isnan(v)) {
    return 0;  // std::clamp passes NaN through; the cast would be undefined
  }
  const double scaled = std::round(v * 64.0);
  const double clamped = std::clamp(scaled, -32768.0, 32767.0);
  return static_cast<std::int16_t>(clamped);
}

double decode_coordinate(std::int16_t v) {
  return static_cast<double>(v) / 64.0;
}

void write_location(Writer& w, sim::Location loc) {
  w.i16(encode_coordinate(loc.x));
  w.i16(encode_coordinate(loc.y));
}

sim::Location read_location(Reader& r) {
  const double x = decode_coordinate(r.i16());
  const double y = decode_coordinate(r.i16());
  return sim::Location{x, y};
}

std::uint8_t encode_epsilon(double eps) {
  if (std::isnan(eps)) {
    return 0;
  }
  const double scaled = std::round(std::clamp(eps, 0.0, 15.9) * 16.0);
  return static_cast<std::uint8_t>(scaled);
}

double decode_epsilon(std::uint8_t e) { return static_cast<double>(e) / 16.0; }

std::uint8_t encode_residual(double fraction) {
  const double scaled = std::round(std::clamp(fraction, 0.0, 1.0) * 255.0);
  return static_cast<std::uint8_t>(scaled);
}

double decode_residual(std::uint8_t v) {
  return static_cast<double>(v) / 255.0;
}

void LinkHeader::write(Writer& w) const {
  w.u8(seq);
  w.u8(static_cast<std::uint8_t>((wants_ack ? 1 : 0) |
                                 (has_piggyback ? 2 : 0)));
}

LinkHeader LinkHeader::read(Reader& r) {
  LinkHeader h;
  h.seq = r.u8();
  const std::uint8_t flags = r.u8();
  h.wants_ack = (flags & 1) != 0;
  h.has_piggyback = (flags & 2) != 0;
  return h;
}

void BeaconPayload::write(Writer& w) const {
  write_location(w, location);
  w.u8(residual);
  w.u8(period_units);
  w.u8(backoff_exp);
}

BeaconPayload BeaconPayload::read(Reader& r) {
  BeaconPayload b;
  b.location = read_location(r);
  b.residual = r.u8();
  b.period_units = r.u8();
  b.backoff_exp = r.u8();
  return b;
}

void GeoHeader::write(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(inner_am));
  write_location(w, dest);
  write_location(w, origin);
  w.u8(encode_epsilon(epsilon));
  w.u8(ttl);
}

GeoHeader GeoHeader::read(Reader& r) {
  GeoHeader h;
  h.inner_am = static_cast<sim::AmType>(r.u8());
  h.dest = read_location(r);
  h.origin = read_location(r);
  h.epsilon = decode_epsilon(r.u8());
  h.ttl = r.u8();
  return h;
}

}  // namespace agilla::net
