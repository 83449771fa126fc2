#include "tuplespace/tuple_match.h"

#include <algorithm>

namespace agilla::ts {
namespace {

constexpr Fingerprint kArityMask = 0xF;
constexpr std::size_t kTypeShiftBase = 4;
constexpr std::size_t kTypeBits = 3;
constexpr Fingerprint kTypeMask = 0x7;
constexpr std::size_t kHashShift = 40;
constexpr std::size_t kLaneBits = 12;
constexpr std::size_t kHashedFields = 2;
constexpr Fingerprint kLaneMask = (Fingerprint{1} << kLaneBits) - 1;
static_assert(kHashShift + kLaneBits * kHashedFields == 64);

constexpr Fingerprint type_shift(std::size_t i) {
  return kTypeShiftBase + kTypeBits * i;
}

constexpr Fingerprint lane_shift(std::size_t i) {
  return kHashShift + kLaneBits * i;
}

/// 12-bit mix of field i's stored form (type + payload), positioned in
/// lane i. The stored form, not the value: the store keeps only the
/// compact bytes, and a template compares against what it decodes.
Fingerprint lane_hash(const Value& v, std::size_t i) {
  const Value stored = v.stored_form();
  std::uint64_t x =
      (static_cast<std::uint64_t>(stored.type()) << 32) | stored.payload_bits();
  x *= 0x9E3779B97F4A7C15ULL;  // SplitMix64 finalizer constant
  return (x >> (64 - kLaneBits)) << lane_shift(i);
}

/// True when a template field of this type accepts tuple fields of exactly
/// one ValueType (so its 3-bit code can join the fingerprint mask).
constexpr bool pins_field_type(ValueType t) {
  // kReadingType accepts both kReading fields and kReadingType fields.
  return t != ValueType::kReadingType;
}

/// True when a template field of this type matches by value equality only
/// (so the field's lane, if it has one, can join the fingerprint mask).
constexpr bool pins_field_content(ValueType t) {
  return t != ValueType::kReadingType && t != ValueType::kTypeWildcard;
}

/// True when template field `f` is exact (see the header). Not kInvalid:
/// every unknown type byte decodes to it.
bool compares_by_bytes(const Value& f) {
  return pins_field_content(f.type()) && f.type() != ValueType::kInvalid &&
         f.compact_canonical();
}

}  // namespace

Fingerprint fingerprint_of(const Tuple& tuple) {
  Fingerprint fp = tuple.arity() & kArityMask;
  for (std::size_t i = 0; i < tuple.arity(); ++i) {
    fp |= (static_cast<Fingerprint>(tuple.field(i).type()) & kTypeMask)
          << type_shift(i);
  }
  for (std::size_t i = 0; i < std::min(tuple.arity(), kHashedFields); ++i) {
    fp |= lane_hash(tuple.field(i), i);
  }
  return fp;
}

std::optional<std::size_t> TupleRef::encoded_size() const {
  net::Reader r(bytes_);
  const std::uint8_t count = r.u8();
  if (!r.ok() || count > kMaxTupleFields) {
    return std::nullopt;
  }
  for (std::uint8_t i = 0; i < count; ++i) {
    Value::decode_compact(r);  // bounds-checked skip
  }
  if (!r.ok()) {
    return std::nullopt;
  }
  return bytes_.size() - r.remaining();
}

std::optional<Tuple> TupleRef::materialize() const {
  net::Reader r(bytes_);
  return Tuple::decode(r);
}

CompiledTemplate::CompiledTemplate(const Template& templ) : templ_(templ) {
  mask_ = kArityMask;
  want_ = templ_.arity() & kArityMask;
  for (std::size_t i = 0; i < templ_.arity(); ++i) {
    const Value& f = templ_.field(i);
    if (compares_by_bytes(f)) {
      by_bytes_ |= static_cast<std::uint16_t>(1u << i);
    }
    if (i < kHashedFields && pins_field_content(f.type())) {
      mask_ |= kLaneMask << lane_shift(i);
      want_ |= lane_hash(f, i);
    }
    if (!pins_field_type(f.type())) {
      continue;
    }
    const ValueType required = f.type() == ValueType::kTypeWildcard
                                   ? f.wrapped_type()
                                   : f.type();
    mask_ |= kTypeMask << type_shift(i);
    want_ |= (static_cast<Fingerprint>(required) & kTypeMask)
             << type_shift(i);
  }
}

bool CompiledTemplate::matches(TupleRef ref) const {
  const std::span<const std::uint8_t> bytes = ref.bytes();
  if (bytes.empty() || bytes[0] != templ_.arity()) {
    return false;
  }
  std::size_t at = 1;
  for (std::size_t i = 0; i < templ_.arity(); ++i) {
    const Value& f = templ_.field(i);
    if ((by_bytes_ >> i) & 1u) {
      const std::size_t size = f.compact_prefix(bytes.subspan(at));
      if (size == 0) {
        return false;
      }
      at += size;
      continue;
    }
    net::Reader r(bytes.subspan(at));
    // A mutated stream can truncate inside a field that still compares
    // equal (Reader zero-fills on underrun); the eager path fails
    // Tuple::decode there, so the lazy path must report no-match too.
    if (!f.matches(Value::decode_compact(r)) || !r.ok()) {
      return false;
    }
    at = bytes.size() - r.remaining();
  }
  return true;
}

std::optional<Tuple> CompiledTemplate::hit(TupleRef ref) const {
  if (by_bytes_ + 1u != 1u << templ_.arity()) {
    return ref.materialize();
  }
  Tuple tuple;
  static_cast<detail::FieldList&>(tuple) = templ_;  // copies the fields
  return tuple;
}

}  // namespace agilla::ts
