#include "net/packet.h"

#include <gtest/gtest.h>

#include <limits>

namespace agilla::net {
namespace {

TEST(Coordinate, RoundTripsGridCoordinatesExactly) {
  for (double v : {0.0, 1.0, 5.0, -3.0, 100.0}) {
    EXPECT_DOUBLE_EQ(decode_coordinate(encode_coordinate(v)), v);
  }
}

TEST(Coordinate, SubUnitResolution) {
  // Q10.6 gives 1/64 steps.
  EXPECT_DOUBLE_EQ(decode_coordinate(encode_coordinate(2.5)), 2.5);
  EXPECT_NEAR(decode_coordinate(encode_coordinate(1.33)), 1.33, 1.0 / 64.0);
}

TEST(Coordinate, SaturatesAtInt16Range) {
  EXPECT_EQ(encode_coordinate(1e9), 32767);
  EXPECT_EQ(encode_coordinate(-1e9), -32768);
}

TEST(Location, WireRoundTrip) {
  Writer w;
  write_location(w, {3.0, 4.5});
  EXPECT_EQ(w.size(), 4u);
  Reader r(w.data());
  const sim::Location loc = read_location(r);
  EXPECT_DOUBLE_EQ(loc.x, 3.0);
  EXPECT_DOUBLE_EQ(loc.y, 4.5);
}

TEST(Coordinate, EncodersAreTotalOverNonFiniteInput) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(encode_coordinate(nan), 0);
  EXPECT_EQ(encode_coordinate(inf), 32767);
  EXPECT_EQ(encode_coordinate(-inf), -32768);
  EXPECT_EQ(encode_epsilon(nan), 0);
  EXPECT_EQ(encode_epsilon(inf), encode_epsilon(15.9));
}

TEST(Epsilon, RoundTripsSixteenths) {
  EXPECT_DOUBLE_EQ(decode_epsilon(encode_epsilon(0.5)), 0.5);
  EXPECT_DOUBLE_EQ(decode_epsilon(encode_epsilon(0.0)), 0.0);
  EXPECT_NEAR(decode_epsilon(encode_epsilon(0.3)), 0.3, 1.0 / 16.0);
}

TEST(LinkHeader, RoundTrip) {
  Writer w;
  LinkHeader{42, true}.write(w);
  EXPECT_EQ(w.size(), LinkHeader::kWireSize);
  Reader r(w.data());
  const LinkHeader h = LinkHeader::read(r);
  EXPECT_EQ(h.seq, 42);
  EXPECT_TRUE(h.wants_ack);
  EXPECT_FALSE(h.has_piggyback);
}

TEST(LinkHeader, PiggybackFlagRoundTrips) {
  Writer w;
  LinkHeader{7, false, /*has_piggyback=*/true}.write(w);
  Reader r(w.data());
  const LinkHeader h = LinkHeader::read(r);
  EXPECT_EQ(h.seq, 7);
  EXPECT_FALSE(h.wants_ack);
  EXPECT_TRUE(h.has_piggyback);
}

TEST(AckPayload, RoundTrip) {
  Writer w;
  AckPayload{99}.write(w);
  Reader r(w.data());
  EXPECT_EQ(AckPayload::read(r).acked_seq, 99);
}

TEST(BeaconPayload, RoundTripAndWireSize) {
  Writer w;
  BeaconPayload{{2.0, 3.0}, 128, 10, 3}.write(w);
  EXPECT_EQ(w.size(), BeaconPayload::kWireSize);
  Reader r(w.data());
  const BeaconPayload b = BeaconPayload::read(r);
  EXPECT_DOUBLE_EQ(b.location.x, 2.0);
  EXPECT_DOUBLE_EQ(b.location.y, 3.0);
  EXPECT_EQ(b.residual, 128);
  EXPECT_EQ(b.period_units, 10);
  EXPECT_EQ(b.backoff_exp, 3);
}

TEST(Residual, QuantizationErrorIsBounded) {
  // The 1-byte encoding must stay within half a step (1/510) everywhere
  // and be exact at the endpoints (calibration note in DESIGN.md).
  EXPECT_EQ(encode_residual(1.0), 255);
  EXPECT_EQ(encode_residual(0.0), 0);
  EXPECT_EQ(encode_residual(-0.5), 0);   // clamped
  EXPECT_EQ(encode_residual(2.0), 255);  // clamped
  for (int i = 0; i <= 1000; ++i) {
    const double f = static_cast<double>(i) / 1000.0;
    const double back = decode_residual(encode_residual(f));
    EXPECT_NEAR(back, f, 0.5 / 255.0) << "f=" << f;
  }
}

TEST(GeoHeader, RoundTripAndWireSize) {
  GeoHeader h;
  h.inner_am = sim::AmType::kTsReply;
  h.dest = {5.0, 1.0};
  h.origin = {1.0, 1.0};
  h.epsilon = 0.5;
  h.ttl = 17;
  Writer w;
  h.write(w);
  EXPECT_EQ(w.size(), GeoHeader::kWireSize);
  Reader r(w.data());
  const GeoHeader parsed = GeoHeader::read(r);
  EXPECT_EQ(parsed.inner_am, sim::AmType::kTsReply);
  EXPECT_EQ(parsed.dest, (sim::Location{5.0, 1.0}));
  EXPECT_EQ(parsed.origin, (sim::Location{1.0, 1.0}));
  EXPECT_DOUBLE_EQ(parsed.epsilon, 0.5);
  EXPECT_EQ(parsed.ttl, 17);
}

TEST(Payloads, TupleBudgetFitsTinyOsMessage) {
  // The paper caps tuples at 25 bytes to fit the 27-byte TinyOS payload.
  EXPECT_LE(25u + 2u, kTinyOsPayloadBytes + LinkHeader::kWireSize);
  EXPECT_LT(kTinyOsPayloadBytes, kMaxPayloadBytes);
}

}  // namespace
}  // namespace agilla::net
