#include "tuplespace/tuple.h"

#include <gtest/gtest.h>

namespace agilla::ts {
namespace {

TEST(Tuple, BuildAndInspect) {
  const Tuple t{Value::string("fir"), Value::location({3, 3})};
  EXPECT_EQ(t.arity(), 2u);
  EXPECT_EQ(t.field(0), Value::string("fir"));
  EXPECT_EQ(t.field(1), Value::location({3, 3}));
}

TEST(Tuple, RejectsWildcardFields) {
  Tuple t;
  EXPECT_FALSE(t.add(Value::type_wildcard(ValueType::kNumber)));
  EXPECT_FALSE(t.add(Value{}));
  EXPECT_TRUE(t.add(Value::number(1)));
}

TEST(Tuple, EnforcesWireBudget) {
  Tuple t;
  // Locations cost 5 bytes each; 1 count byte + 4 locations = 21; a 5th
  // would make 26 > 25.
  for (int i = 0; i < 4; ++i) {
    const double c = i;
    EXPECT_TRUE(t.add(Value::location({c, c})));
  }
  EXPECT_FALSE(t.add(Value::location({9, 9})));
  EXPECT_EQ(t.arity(), 4u);
  EXPECT_LE(t.wire_size(), kMaxTupleWireBytes);
}

TEST(Tuple, WireRoundTrip) {
  const Tuple t{Value::string("abc"), Value::number(5),
                Value::reading(sim::SensorType::kPhoto, 10)};
  net::Writer w;
  t.encode(w);
  EXPECT_EQ(w.size(), t.wire_size());
  net::Reader r(w.data());
  const auto decoded = Tuple::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, t);
}

TEST(Tuple, DecodeRejectsTruncated) {
  const Tuple t{Value::number(5)};
  net::Writer w;
  t.encode(w);
  std::vector<std::uint8_t> bytes(w.data().begin(), w.data().end());
  bytes.pop_back();
  net::Reader r(bytes);
  EXPECT_FALSE(Tuple::decode(r).has_value());
}

TEST(Tuple, ToStringReadable) {
  const Tuple t{Value::string("fir"), Value::number(7)};
  EXPECT_EQ(t.to_string(), "<\"fir\", 7>");
}

TEST(Template, MatchesRequiresSameArity) {
  const Tuple t{Value::number(1), Value::number(2)};
  const Template one{Value::type_wildcard(ValueType::kNumber)};
  const Template two{Value::type_wildcard(ValueType::kNumber),
                     Value::type_wildcard(ValueType::kNumber)};
  EXPECT_FALSE(one.matches(t));
  EXPECT_TRUE(two.matches(t));
}

TEST(Template, MixedConcreteAndWildcard) {
  const Template templ{Value::string("fir"),
                       Value::type_wildcard(ValueType::kLocation)};
  EXPECT_TRUE(
      templ.matches(Tuple{Value::string("fir"), Value::location({4, 2})}));
  EXPECT_FALSE(
      templ.matches(Tuple{Value::string("ice"), Value::location({4, 2})}));
  EXPECT_FALSE(
      templ.matches(Tuple{Value::string("fir"), Value::number(42)}));
}

TEST(Template, AllConcreteIsExactMatch) {
  const Template templ{Value::number(1), Value::string("ab")};
  EXPECT_TRUE(templ.matches(Tuple{Value::number(1), Value::string("ab")}));
  EXPECT_FALSE(templ.matches(Tuple{Value::number(2), Value::string("ab")}));
}

TEST(Template, EmptyTemplateMatchesOnlyEmptyTuple) {
  const Template empty;
  EXPECT_TRUE(empty.matches(Tuple{}));
  EXPECT_FALSE(empty.matches(Tuple{Value::number(1)}));
}

TEST(Template, WireRoundTripPreservesWildcards) {
  Template templ{Value::string("fir"),
                 Value::type_wildcard(ValueType::kLocation)};
  net::Writer w;
  templ.encode(w);
  net::Reader r(w.data());
  const auto decoded = Template::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, templ);
  EXPECT_TRUE(
      decoded->matches(Tuple{Value::string("fir"), Value::location({1, 1})}));
}

TEST(Template, FieldOrderMatters) {
  const Template templ{Value::type_wildcard(ValueType::kLocation),
                       Value::string("fir")};
  EXPECT_FALSE(
      templ.matches(Tuple{Value::string("fir"), Value::location({1, 1})}));
  EXPECT_TRUE(
      templ.matches(Tuple{Value::location({1, 1}), Value::string("fir")}));
}

TEST(Template, ReadingTypeFieldMatchesReadings) {
  const Template templ{Value::reading_type(sim::SensorType::kTemperature)};
  EXPECT_TRUE(templ.matches(
      Tuple{Value::reading(sim::SensorType::kTemperature, 451)}));
  EXPECT_FALSE(
      templ.matches(Tuple{Value::reading(sim::SensorType::kPhoto, 451)}));
}

}  // namespace
}  // namespace agilla::ts
