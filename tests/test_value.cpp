#include "tuplespace/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

namespace agilla::ts {
namespace {

TEST(PackString, RoundTripsThreeLetters) {
  EXPECT_EQ(unpack_string(pack_string("fir")), "fir");
  EXPECT_EQ(unpack_string(pack_string("abc")), "abc");
  EXPECT_EQ(unpack_string(pack_string("zzz")), "zzz");
}

TEST(PackString, ShorterStringsKeepLength) {
  EXPECT_EQ(unpack_string(pack_string("a")), "a");
  EXPECT_EQ(unpack_string(pack_string("ab")), "ab");
  EXPECT_EQ(unpack_string(pack_string("")), "");
}

TEST(PackString, CaseInsensitiveAndTruncates) {
  EXPECT_EQ(pack_string("FIR"), pack_string("fir"));
  EXPECT_EQ(pack_string("fire"), pack_string("fir"));
}

TEST(Value, DefaultIsInvalid) {
  Value v;
  EXPECT_FALSE(v.valid());
  EXPECT_EQ(v.type(), ValueType::kInvalid);
  EXPECT_FALSE(v.concrete());
}

TEST(Value, NumberBasics) {
  const Value v = Value::number(-321);
  EXPECT_TRUE(v.valid());
  EXPECT_TRUE(v.concrete());
  EXPECT_EQ(v.as_number(), -321);
  EXPECT_EQ(v.to_string(), "-321");
}

TEST(Value, StringBasics) {
  const Value v = Value::string("fir");
  EXPECT_EQ(v.type(), ValueType::kString);
  EXPECT_EQ(v.as_packed_string(), pack_string("fir"));
  EXPECT_EQ(v.to_string(), "\"fir\"");
}

TEST(Value, LocationRoundTrip) {
  const Value v = Value::location({3.5, 4.0});
  EXPECT_EQ(v.type(), ValueType::kLocation);
  EXPECT_DOUBLE_EQ(v.as_location().x, 3.5);
  EXPECT_DOUBLE_EQ(v.as_location().y, 4.0);
}

TEST(Value, ReadingCarriesSensorAndValue) {
  const Value v = Value::reading(sim::SensorType::kTemperature, 212);
  EXPECT_EQ(v.sensor(), sim::SensorType::kTemperature);
  EXPECT_EQ(v.as_number(), 212);
}

TEST(Value, AgentIdNumericView) {
  const Value v = Value::agent_id(0x0102);
  EXPECT_EQ(v.as_agent_id(), 0x0102);
}

TEST(Value, EqualityIsExact) {
  EXPECT_EQ(Value::number(5), Value::number(5));
  EXPECT_NE(Value::number(5), Value::number(6));
  EXPECT_NE(Value::number(5), Value::agent_id(5));
  EXPECT_EQ(Value::location({1, 2}), Value::location({1, 2}));
}

TEST(Matching, TypeWildcardMatchesByType) {
  const Value wild = Value::type_wildcard(ValueType::kLocation);
  EXPECT_TRUE(wild.matches(Value::location({1, 1})));
  EXPECT_FALSE(wild.matches(Value::number(1)));
  EXPECT_FALSE(wild.matches(Value::string("loc")));
}

TEST(Matching, ConcreteFieldsMatchByEquality) {
  EXPECT_TRUE(Value::string("fir").matches(Value::string("fir")));
  EXPECT_FALSE(Value::string("fir").matches(Value::string("ice")));
  EXPECT_TRUE(Value::number(7).matches(Value::number(7)));
}

TEST(Matching, ReadingTypeMatchesReadingsOfThatSensor) {
  const Value templ = Value::reading_type(sim::SensorType::kTemperature);
  EXPECT_TRUE(
      templ.matches(Value::reading(sim::SensorType::kTemperature, 99)));
  EXPECT_FALSE(templ.matches(Value::reading(sim::SensorType::kPhoto, 99)));
  EXPECT_TRUE(
      templ.matches(Value::reading_type(sim::SensorType::kTemperature)));
}

TEST(Matching, WildcardForReadingsMatchesAnySensor) {
  const Value wild = Value::type_wildcard(ValueType::kReading);
  EXPECT_TRUE(wild.matches(Value::reading(sim::SensorType::kPhoto, 1)));
  EXPECT_TRUE(
      wild.matches(Value::reading(sim::SensorType::kTemperature, 2)));
}

TEST(CompactWire, RoundTripsEveryType) {
  const Value values[] = {
      Value::number(-5),
      Value::string("abc"),
      Value::type_wildcard(ValueType::kString),
      Value::reading(sim::SensorType::kMicrophone, 321),
      Value::location({2.5, -1.0}),
      Value::agent_id(777),
      Value::reading_type(sim::SensorType::kPhoto),
  };
  for (const Value& v : values) {
    net::Writer w;
    v.encode_compact(w);
    EXPECT_EQ(w.size(), v.compact_size()) << v.to_string();
    net::Reader r(w.data());
    EXPECT_EQ(Value::decode_compact(r), v) << v.to_string();
    EXPECT_TRUE(r.ok());
  }
}

TEST(CompactWire, SizesMatchSpec) {
  EXPECT_EQ(Value::number(1).compact_size(), 3u);
  EXPECT_EQ(Value::string("a").compact_size(), 3u);
  EXPECT_EQ(Value::location({0, 0}).compact_size(), 5u);
  EXPECT_EQ(Value::reading(sim::SensorType::kPhoto, 0).compact_size(), 4u);
  EXPECT_EQ(Value::type_wildcard(ValueType::kNumber).compact_size(), 2u);
  EXPECT_EQ(
      Value::reading_type(sim::SensorType::kTemperature).compact_size(), 2u);
}

TEST(CompactWire, CanonicalValuesAreExactlyTheirEncoding) {
  // Every type byte against payload halves at the edges the compact form
  // keeps or drops, built the way migration builds them: stored_form() is
  // exactly the compact round trip, and canonical values are their bytes.
  const std::int16_t halves[] = {0, 1, 255, 256, -1, INT16_MIN, INT16_MAX};
  for (int type = 0; type <= 255; ++type) {
    for (const std::int16_t a : halves) {
      for (const std::int16_t b : halves) {
        net::Writer padded;
        padded.u8(static_cast<std::uint8_t>(type));
        padded.i16(a);
        padded.i16(b);
        padded.zeros(1);
        net::Reader pr(padded.data());
        const Value v = Value::decode_padded(pr);
        net::Writer w;
        v.encode_compact(w);
        net::Reader r(w.data());
        const Value round_trip = Value::decode_compact(r);
        ASSERT_EQ(v.stored_form(), round_trip) << type << " " << a << " " << b;
        ASSERT_EQ(v.compact_canonical(), round_trip == v)
            << type << " " << a << " " << b;
        if (!v.compact_canonical()) {
          continue;
        }
        const std::vector<std::uint8_t> wire(w.data().begin(),
                                             w.data().end());
        EXPECT_EQ(v.compact_prefix(wire), v.compact_size());
        EXPECT_EQ(v.compact_prefix(std::span(wire).first(wire.size() - 1)),
                  0u);
        for (std::size_t at = 0; at < wire.size(); ++at) {
          std::vector<std::uint8_t> mutated = wire;
          mutated[at] ^= 0x10;
          EXPECT_EQ(v.compact_prefix(mutated), 0u) << v.to_string();
        }
      }
    }
  }
}

TEST(PaddedWire, AlwaysSixBytes) {
  const Value values[] = {
      Value::number(-5),
      Value::location({2.5, -1.0}),
      Value::reading(sim::SensorType::kMicrophone, 321),
      Value{},
  };
  for (const Value& v : values) {
    net::Writer w;
    v.encode_padded(w);
    EXPECT_EQ(w.size(), Value::kPaddedWireSize);
    net::Reader r(w.data());
    EXPECT_EQ(Value::decode_padded(r), v);
  }
}

TEST(Value, InvalidNumericViewIsZero) {
  EXPECT_EQ(Value{}.as_number(), 0);
  EXPECT_EQ(Value::location({5, 5}).as_number(), 0);
}

}  // namespace
}  // namespace agilla::ts
