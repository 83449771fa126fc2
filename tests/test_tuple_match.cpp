// The zero-copy matching layer (tuple_match.h): fingerprint prefilter
// soundness (a fingerprint may pass a non-match through, but must never
// reject a true match), TupleRef bounds behaviour, and lazy-vs-eager match
// agreement on well-formed encodings. The adversarial byte-mutation sweep
// lives in test_fuzz.cpp.
#include "tuplespace/tuple_match.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/rng.h"

namespace agilla::ts {
namespace {

std::vector<std::uint8_t> encode(const Tuple& t) {
  net::Writer w;
  t.encode(w);
  return {w.data().begin(), w.data().end()};
}

TupleRef ref_of(const std::vector<std::uint8_t>& bytes) {
  return TupleRef(std::span<const std::uint8_t>(bytes));
}

TEST(Fingerprint, EqualTuplesShareAFingerprint) {
  const Tuple a{Value::string("fir"), Value::number(7)};
  const Tuple b{Value::string("fir"), Value::number(7)};
  EXPECT_EQ(fingerprint_of(a), fingerprint_of(b));
}

/// A value as Value::decode_padded builds it from a migration image, with
/// payload halves the compact form may drop.
Value padded(ValueType type, std::int16_t a, std::int16_t b) {
  net::Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.i16(a);
  w.i16(b);
  w.zeros(1);
  net::Reader r(w.data());
  return Value::decode_padded(r);
}

TEST(Fingerprint, ArityTypesAndFirstTwoFieldsContribute) {
  const Fingerprint base =
      fingerprint_of(Tuple{Value::string("fir"), Value::number(7)});
  EXPECT_NE(base, fingerprint_of(Tuple{Value::string("fir")}));
  EXPECT_NE(base,
            fingerprint_of(Tuple{Value::string("fir"), Value::string("ab")}));
  EXPECT_NE(base,
            fingerprint_of(Tuple{Value::string("ice"), Value::number(7)}));
  EXPECT_NE(base,
            fingerprint_of(Tuple{Value::string("fir"), Value::number(8)}));
}

TEST(Fingerprint, HashesWhatTheStoreKeeps) {
  // Bits the compact encoding drops do not reach the fingerprint: a tuple
  // written with them shares the fingerprint of the tuple stored.
  const Tuple written{padded(ValueType::kNumber, 5, 7),
                      padded(ValueType::kReading, 9, 0x0102)};
  const Tuple kept{Value::number(5),
                   Value::reading(sim::SensorType::kMicrophone, 9)};
  ASSERT_NE(written, kept);
  const auto bytes = encode(written);
  ASSERT_EQ(ref_of(bytes).materialize(), kept);
  EXPECT_EQ(fingerprint_of(written), fingerprint_of(kept));
}

TEST(CompiledTemplate, NeverRejectsAMatchingTuple) {
  // Soundness sweep: random template/tuple pairs; whenever the eager match
  // succeeds, the fingerprint prefilter must have let the tuple through.
  // Both kinds of match count: the tuple as written (reaction dispatch)
  // and the tuple a store decodes from its bytes (probes), each against
  // the fingerprint of the tuple as written.
  sim::Rng rng(2026);
  auto random_value = [&rng]() -> Value {
    // Every fourth number or reading carries stray bits the compact
    // encoding drops, as a radio-delivered agent image can.
    const bool stray = rng.uniform(4) == 0;
    switch (rng.uniform(5)) {
      case 0: {
        const auto n = static_cast<std::int16_t>(rng.uniform(4));
        return stray ? padded(ValueType::kNumber, n, 3) : Value::number(n);
      }
      case 1:
        return Value::string(std::string(1, 'a' + rng.uniform(2)));
      case 2:
        return Value::location({static_cast<double>(rng.uniform(2)), 1.0});
      case 3: {
        const auto n = static_cast<std::int16_t>(rng.uniform(3));
        return stray ? padded(ValueType::kReading, n, 0x0101)
                     : Value::reading(sim::SensorType::kPhoto, n);
      }
      default:
        return Value::agent_id(static_cast<std::uint16_t>(rng.uniform(3)));
    }
  };
  std::size_t matched = 0;
  std::size_t matched_stored = 0;
  for (int i = 0; i < 5000; ++i) {
    Tuple tuple;
    const std::size_t arity = 1 + rng.uniform(3);
    for (std::size_t f = 0; f < arity; ++f) {
      tuple.add(random_value());
    }
    const auto bytes = encode(tuple);
    const Tuple stored = *ref_of(bytes).materialize();
    Template templ;
    const std::size_t templ_arity =
        rng.chance(0.5) ? arity : 1 + rng.uniform(3);
    for (std::size_t f = 0; f < templ_arity; ++f) {
      switch (rng.uniform(5)) {
        case 0:
          templ.add(Value::type_wildcard(random_value().type()));
          break;
        case 1:
          templ.add(Value::reading_type(sim::SensorType::kPhoto));
          break;
        case 2:
          // Exact field values, field 1 included, as written or as stored.
          if (f < arity) {
            templ.add(rng.chance(0.5) ? tuple.field(f) : stored.field(f));
            break;
          }
          [[fallthrough]];
        default:
          templ.add(random_value());
          break;
      }
    }
    const CompiledTemplate compiled(templ);
    const std::string what = templ.to_string() + " vs " + tuple.to_string();
    if (templ.matches(tuple)) {
      ++matched;
      EXPECT_FALSE(compiled.key_rejects(fingerprint_of(tuple))) << what;
    }
    if (templ.matches(stored)) {
      ++matched_stored;
      EXPECT_FALSE(compiled.key_rejects(fingerprint_of(tuple))) << what;
    }
  }
  // The sweep must actually exercise matches.
  EXPECT_GT(matched, 200u);
  EXPECT_GT(matched_stored, 200u);
}

TEST(CompiledTemplate, RejectsDifferentFirstFieldWithoutScanning) {
  const CompiledTemplate compiled(
      Template{Value::string("key"), Value::type_wildcard(ValueType::kNumber)});
  EXPECT_TRUE(compiled.key_rejects(
      fingerprint_of(Tuple{Value::string("fil"), Value::number(1)})));
  EXPECT_TRUE(compiled.key_rejects(fingerprint_of(Tuple{Value::number(1)})));
  EXPECT_FALSE(compiled.key_rejects(
      fingerprint_of(Tuple{Value::string("key"), Value::number(1)})));
}

TEST(CompiledTemplate, RejectsDifferentSecondFieldWithoutScanning) {
  // The agent_dense probe: <"fil", 99> against twenty <"fil", i> fillers
  // fails on the prefilter alone, while <"fil", ?number> passes them all.
  const CompiledTemplate miss(
      Template{Value::string("fil"), Value::number(99)});
  const CompiledTemplate any(Template{
      Value::string("fil"), Value::type_wildcard(ValueType::kNumber)});
  for (std::int16_t i = 0; i < 20; ++i) {
    const Fingerprint filler =
        fingerprint_of(Tuple{Value::string("fil"), Value::number(i)});
    EXPECT_TRUE(miss.key_rejects(filler)) << i;
    EXPECT_FALSE(any.key_rejects(filler)) << i;
  }
}

TEST(CompiledTemplate, ReadingTypeFieldDoesNotPinTheFieldType) {
  // A reading-type template field accepts both a reading of that sensor
  // and the identical reading-type value — the prefilter must admit both.
  const CompiledTemplate compiled(
      Template{Value::reading_type(sim::SensorType::kTemperature)});
  const Tuple reading{Value::reading(sim::SensorType::kTemperature, 300)};
  const Tuple designator{Value::reading_type(sim::SensorType::kTemperature)};
  EXPECT_FALSE(compiled.key_rejects(fingerprint_of(reading)));
  EXPECT_FALSE(compiled.key_rejects(fingerprint_of(designator)));
  EXPECT_TRUE(compiled.matches(reading));
  EXPECT_TRUE(compiled.matches(designator));
}

TEST(CompiledTemplate, WireMatchAgreesWithEagerMatchOnValidEncodings) {
  const Tuple stored{Value::string("fir"), Value::location({2, 3})};
  const auto bytes = encode(stored);
  const Template hit{Value::string("fir"),
                     Value::type_wildcard(ValueType::kLocation)};
  const Template wrong_type{Value::string("fir"),
                            Value::type_wildcard(ValueType::kNumber)};
  const Template wrong_arity{Value::string("fir")};
  EXPECT_EQ(CompiledTemplate(hit).matches(ref_of(bytes)),
            hit.matches(stored));
  EXPECT_EQ(CompiledTemplate(wrong_type).matches(ref_of(bytes)),
            wrong_type.matches(stored));
  EXPECT_EQ(CompiledTemplate(wrong_arity).matches(ref_of(bytes)),
            wrong_arity.matches(stored));
}

TEST(CompiledTemplate, EmptyTemplateMatchesEmptyEncodingOnly) {
  const std::vector<std::uint8_t> empty_tuple{0x00};
  const CompiledTemplate compiled((Template{}));
  EXPECT_TRUE(compiled.matches(ref_of(empty_tuple)));
  EXPECT_FALSE(compiled.matches(ref_of(encode(Tuple{Value::number(1)}))));
  EXPECT_FALSE(compiled.matches(TupleRef{}));  // no bytes at all
}

TEST(TupleRef, EncodedSizeWalksExactlyOneTuple) {
  const Tuple t{Value::string("abc"), Value::number(5)};
  auto bytes = encode(t);
  const std::size_t exact = bytes.size();
  bytes.push_back(0xFF);  // trailing garbage must not count
  const auto size = ref_of(bytes).encoded_size();
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, exact);
  EXPECT_EQ(exact, t.wire_size());
}

TEST(TupleRef, TruncationAndOversizeAreRejected) {
  const Tuple t{Value::location({1, 2}), Value::number(5)};
  const auto bytes = encode(t);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const TupleRef truncated(
        std::span<const std::uint8_t>(bytes.data(), len));
    EXPECT_FALSE(truncated.encoded_size().has_value()) << "len " << len;
    EXPECT_FALSE(truncated.materialize().has_value()) << "len " << len;
  }
  // A count beyond kMaxTupleFields cannot belong to a storable tuple.
  const std::vector<std::uint8_t> oversized{
      static_cast<std::uint8_t>(kMaxTupleFields + 1)};
  EXPECT_FALSE(ref_of(oversized).encoded_size().has_value());
}

TEST(TupleRef, MaterializeRoundTrips) {
  const Tuple t{Value::reading(sim::SensorType::kMagnetometer, 42),
                Value::agent_id(7)};
  const auto bytes = encode(t);
  const auto decoded = ref_of(bytes).materialize();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, t);
}

}  // namespace
}  // namespace agilla::ts
