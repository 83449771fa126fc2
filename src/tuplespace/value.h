// The tagged value type shared by tuple fields, templates, the VM operand
// stack, and the agent heap (paper Sec. 2.2: "each field has a type and
// value. Types may include integers, strings, locations, and sensor
// readings").
//
// Strings are packed 3 characters x 5 bits into 16 bits, as in the real
// Agilla (the paper's agents use 3-letter strings like "fir").
//
// Two wire encodings exist:
//  * compact  — 1 type byte + minimal payload; used inside the tuple store
//               (600-byte budget, 25-byte tuples) and remote-op messages;
//  * padded   — exactly 6 bytes; used by migration messages so their sizes
//               match paper Fig. 5 (heap 32 B, stack 30 B).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "net/serialize.h"
#include "sim/environment.h"
#include "sim/types.h"

namespace agilla::ts {

enum class ValueType : std::uint8_t {
  kInvalid = 0,
  kNumber = 1,       ///< 16-bit signed integer
  kString = 2,       ///< packed 3-char string
  kTypeWildcard = 3, ///< template-only: matches any field of wrapped type
  kReading = 4,      ///< sensor type + 16-bit value
  kLocation = 5,     ///< (x, y)
  kAgentId = 6,      ///< 16-bit agent identifier
  kReadingType = 7,  ///< sensor-type designator (sense operand; template
                     ///< field matching readings of that sensor)
};

[[nodiscard]] const char* to_string(ValueType t);

/// Packs the first 3 chars of `s` (case-insensitive a-z) into 15 bits.
std::uint16_t pack_string(std::string_view s);
std::string unpack_string(std::uint16_t packed);

class Value {
 public:
  /// Fixed serialized footprint of the padded (migration) encoding.
  static constexpr std::size_t kPaddedWireSize = 6;

  constexpr Value() = default;

  static Value number(std::int16_t v) {
    return Value(ValueType::kNumber, v, 0);
  }
  static Value string(std::string_view s);
  static Value packed_string(std::uint16_t packed);
  static Value type_wildcard(ValueType wrapped);
  static Value reading(sim::SensorType sensor, std::int16_t v);
  static Value location(sim::Location loc);
  static Value agent_id(std::uint16_t id);
  static Value reading_type(sim::SensorType sensor);

  [[nodiscard]] ValueType type() const { return type_; }
  [[nodiscard]] bool valid() const { return type_ != ValueType::kInvalid; }

  /// Numeric view: kNumber -> value, kReading -> reading value, kAgentId
  /// -> id, others 0.
  [[nodiscard]] std::int16_t as_number() const {
    const bool numeric = type_ == ValueType::kNumber ||
                         type_ == ValueType::kReading ||
                         type_ == ValueType::kAgentId;
    return numeric ? a_ : 0;
  }
  [[nodiscard]] std::uint16_t as_packed_string() const;
  [[nodiscard]] sim::Location as_location() const;
  [[nodiscard]] std::uint16_t as_agent_id() const;
  [[nodiscard]] sim::SensorType sensor() const;
  [[nodiscard]] ValueType wrapped_type() const;

  /// Template-field semantics: does this (possibly wildcard) field accept
  /// the concrete field `v`?
  [[nodiscard]] bool matches(const Value& v) const;

  /// Both payload halves as one word; the fingerprint hashes it from
  /// stored_form() (tuple_match.h). Equal values always produce equal bits.
  [[nodiscard]] std::uint32_t payload_bits() const {
    return (static_cast<std::uint32_t>(static_cast<std::uint16_t>(a_)) << 16) |
           static_cast<std::uint16_t>(b_);
  }

  /// True for field types that can appear in a stored tuple.
  [[nodiscard]] bool concrete() const;

  /// Compact encoding size: the type byte plus a 16-bit payload; x + y
  /// for a location, sensor + value for a reading, one designator byte for
  /// a wildcard or a reading type, nothing for kInvalid.
  [[nodiscard]] std::size_t compact_size() const {
    constexpr std::array<std::uint8_t, 8> kSizeByType = {1, 3, 3, 2,
                                                         4, 5, 3, 2};
    const auto t = static_cast<std::size_t>(type_);
    return t < kSizeByType.size() ? kSizeByType[t] : 3;
  }
  /// decode_compact(encode_compact(v)) without the round trip: the value
  /// the compact form keeps. decode_padded can build values with bits it
  /// drops: an unused second half is zeroed, a reading's sensor and a
  /// designator are masked to 8 bits, and an unknown type becomes Value{}.
  [[nodiscard]] Value stored_form() const {
    const auto low_byte = [](std::int16_t v) {
      return static_cast<std::int16_t>(static_cast<std::uint8_t>(v));
    };
    switch (type_) {
      case ValueType::kInvalid:
        break;
      case ValueType::kLocation:
        return *this;
      case ValueType::kReading:
        return Value(type_, a_, low_byte(b_));
      case ValueType::kReadingType:
      case ValueType::kTypeWildcard:
        return Value(type_, low_byte(a_), 0);
      case ValueType::kNumber:
      case ValueType::kString:
      case ValueType::kAgentId:
        return Value(type_, a_, 0);
    }
    return Value{};
  }
  /// True when the compact form keeps every payload bit.
  [[nodiscard]] bool compact_canonical() const {
    return stored_form() == *this;
  }
  /// compact_size() when `wire` begins with this value's compact encoding,
  /// else 0. Reads nothing past `wire`.
  [[nodiscard]] std::size_t compact_prefix(
      std::span<const std::uint8_t> wire) const {
    const std::size_t size = compact_size();
    if (wire.size() < size) {
      return 0;
    }
    // At most 5 bytes, compared inline: std::equal over a run-time length
    // becomes a libc memcmp call per field.
    const auto bytes = compact_bytes();
    for (std::size_t i = 0; i < size; ++i) {
      if (bytes[i] != wire[i]) {
        return 0;
      }
    }
    return size;
  }
  void encode_compact(net::Writer& w) const;
  static Value decode_compact(net::Reader& r);

  void encode_padded(net::Writer& w) const;
  static Value decode_padded(net::Reader& r);

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Value& a, const Value& b) = default;

 private:
  /// The compact encoding in its first compact_size() bytes: the type
  /// byte, then the payload, little-endian.
  [[nodiscard]] std::array<std::uint8_t, 5> compact_bytes() const {
    const auto t = static_cast<std::uint8_t>(type_);
    const auto lo = [](std::int16_t v) { return static_cast<std::uint8_t>(v); };
    const auto hi = [](std::int16_t v) {
      return static_cast<std::uint8_t>(static_cast<std::uint16_t>(v) >> 8);
    };
    switch (type_) {
      case ValueType::kLocation:
        return {t, lo(a_), hi(a_), lo(b_), hi(b_)};
      case ValueType::kReading:
        return {t, lo(b_), lo(a_), hi(a_), 0};
      default:  // a designator is one byte, kInvalid none
        return {t, lo(a_), hi(a_), 0, 0};
    }
  }

  Value(ValueType type, std::int16_t a, std::int16_t b)
      : type_(type), a_(a), b_(b) {}

  ValueType type_ = ValueType::kInvalid;
  std::int16_t a_ = 0;  ///< number / packed string / x / wrapped type / id
  std::int16_t b_ = 0;  ///< y / sensor type
};

}  // namespace agilla::ts
