// Tuples and templates (paper Sec. 2.2): a tuple is an ordered set of typed
// fields; a template is an ordered set of fields that may contain
// type-wildcards. "A template matches a tuple if they have the same number
// of fields, and each field in the tuple matches the corresponding field in
// the template."
//
// Both store their fields inline (the 25-byte wire budget bounds a tuple at
// kMaxTupleFields fields), so building, copying, and decoding them never
// heap-allocates — the tuple-space data plane moves plain values around.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>

#include "tuplespace/value.h"

namespace agilla::ts {

/// Maximum compact wire size of a stored tuple (paper Sec. 3.2: "a tuple
/// may contain up to 25 bytes worth of fields").
inline constexpr std::size_t kMaxTupleWireBytes = 25;

/// Most fields that budget admits for a buildable tuple/template: every
/// VALID field encodes to >= 2 bytes under a 1-byte count prefix
/// (1 + 12 * 2 = 25). Tuple and Template reserve exactly this many inline
/// slots. Hostile wire encodings can declare more fields in budget (a
/// kInvalid field is 1 byte), so decode_fields enforces this cap
/// explicitly — the inline slot count is a hard contract, not a corollary
/// of the byte budget.
inline constexpr std::size_t kMaxTupleFields = (kMaxTupleWireBytes - 1) / 2;

namespace detail {

/// The inline field list Tuple and Template share, encoded as
/// [count u8][fields...].
class FieldList {
 public:
  [[nodiscard]] std::size_t arity() const { return count_; }
  [[nodiscard]] const Value& field(std::size_t i) const { return fields_[i]; }
  [[nodiscard]] std::span<const Value> fields() const {
    return {fields_.data(), count_};
  }

  /// Compact serialized size: 1 count byte + fields.
  [[nodiscard]] std::size_t wire_size() const { return wire_bytes_; }
  void encode(net::Writer& w) const;
  [[nodiscard]] std::string to_string() const;

  bool operator==(const FieldList&) const = default;

 protected:
  FieldList() = default;
  /// Appends `field` unless that passes kMaxTupleFields or
  /// kMaxTupleWireBytes.
  bool append(const Value& field);
  /// Reads [count u8][fields...]; false when the stream truncates or the
  /// count exceeds kMaxTupleFields (no such encoding fits the wire budget).
  bool decode_from(net::Reader& r);

 private:
  std::array<Value, kMaxTupleFields> fields_{};
  std::uint8_t count_ = 0;
  /// wire_size(), kept as fields are added; fills the padding byte.
  std::uint8_t wire_bytes_ = 1;
};

}  // namespace detail

class Tuple : public detail::FieldList {
 public:
  Tuple() = default;
  Tuple(std::initializer_list<Value> fields);

  /// Appends a field. Returns false (and leaves the tuple unchanged) if the
  /// field is not concrete or the tuple would exceed kMaxTupleWireBytes.
  bool add(const Value& field) { return field.concrete() && append(field); }

  [[nodiscard]] bool empty() const { return arity() == 0; }

  static std::optional<Tuple> decode(net::Reader& r);

  friend bool operator==(const Tuple& a, const Tuple& b) = default;
};

class Template : public detail::FieldList {
 public:
  Template() = default;
  Template(std::initializer_list<Value> fields);

  /// Appends a field (concrete or wildcard). Returns false if the template
  /// would exceed kMaxTupleWireBytes.
  bool add(const Value& field) { return field.valid() && append(field); }

  [[nodiscard]] bool matches(const Tuple& tuple) const;

  static std::optional<Template> decode(net::Reader& r);

  friend bool operator==(const Template& a, const Template& b) = default;
};

// Twelve 6-byte fields, the count and the byte count: the running size
// costs no space.
static_assert(sizeof(Tuple) == 74);
static_assert(sizeof(Template) == 74);

}  // namespace agilla::ts
