// Zero-copy tuple matching (the Sec. 3.2 "efficient tuple space
// implementations" future work): templates are compiled once into an
// integer fingerprint filter, and candidates are matched directly against
// their wire bytes through a bounds-checked lazy cursor. Scanning a store
// never heap-allocates; a Tuple is materialized only for an actual hit —
// and materializing is itself allocation-free (tuples store their fields
// inline, see tuple.h).
//
// Three pieces:
//  * Fingerprint      — a 64-bit summary of a stored tuple (arity, per-field
//                       type codes, a hash of each of fields 0 and 1)
//                       computed once at insertion time;
//  * TupleRef         — a non-owning view of one encoded tuple record;
//  * CompiledTemplate — a template pre-lowered to (mask, want) over the
//                       fingerprint, so most candidates are rejected with a
//                       single integer compare and the rest are matched
//                       field-by-field straight off the wire.
//
// Two rules keep the hit path decode-free:
//  * byte compare — a template field that matches by value alone (not a
//    type wildcard or a reading-type designator) and encodes canonically
//    (Value::compact_canonical) is EXACT: its compact encoding is compared
//    with the candidate's bytes, with no decode. Values decode_padded
//    built with stray payload bits (a number's second half, a sensor byte
//    over 255) keep the decode path, where they match nothing;
//  * an exact hit is the template — when every field is exact, hit()
//    returns the template's own fields without reading the record.
//
// Equivalence contract (enforced by test_fuzz.cpp): for ANY byte string b
// and template t,
//     CompiledTemplate(t).matches(TupleRef(b))
//  == (Tuple::decode(b) succeeds && t.matches(*Tuple::decode(b))),
// and on a match, hit(TupleRef(b)) == Tuple::decode(b).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "tuplespace/tuple.h"

namespace agilla::ts {

/// 64-bit tuple summary. Layout:
///   bits  0..3   arity (stored tuples have <= kMaxTupleFields fields)
///   bits  4..39  3-bit ValueType code of field i at bits [4+3i, 7+3i)
///   bits 40..51  12-bit hash of field 0 (type + payload)
///   bits 52..63  12-bit hash of field 1 (type + payload)
/// Each hash is taken over the field's Value::stored_form(), what the store
/// keeps, so a stored tuple's fingerprint agrees with every template that
/// matches its decoded fields. A template that pins field 0 or 1 by value
/// adds that lane to its mask: a probe for <"fil", k> rejects a stored
/// <"fil", i> (i != k) with one compare, short of a 1-in-4096 collision.
using Fingerprint = std::uint64_t;

/// Fingerprint of a concrete tuple; computed once per insertion.
[[nodiscard]] Fingerprint fingerprint_of(const Tuple& tuple);

/// Non-owning view of one encoded tuple record ([count u8][fields...]).
/// The bytes are NOT assumed well-formed: every accessor is bounds-checked
/// via net::Reader, so a TupleRef over truncated or mutated input never
/// reads out of range.
class TupleRef {
 public:
  constexpr TupleRef() = default;
  explicit constexpr TupleRef(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return bytes_; }

  /// Declared field count (first byte); 0 for an empty view.
  [[nodiscard]] std::size_t arity() const {
    return bytes_.empty() ? 0 : bytes_[0];
  }

  /// Walks the encoding. Returns the number of bytes one decoded tuple
  /// occupies (count byte + fields), or nullopt when the view truncates
  /// mid-field or declares more than kMaxTupleFields fields — exactly when
  /// Tuple::decode (materialize) would fail.
  [[nodiscard]] std::optional<std::size_t> encoded_size() const;

  /// Decodes into an owning Tuple; called once per matched candidate.
  /// Nullopt on malformed bytes.
  [[nodiscard]] std::optional<Tuple> materialize() const;

 private:
  std::span<const std::uint8_t> bytes_;
};

/// A Template lowered for repeated matching: the fields plus a
/// (mask, want) pair over Fingerprint so stores reject most candidates
/// with one integer compare. Compile once per operation, match many
/// candidates.
class CompiledTemplate {
 public:
  CompiledTemplate() = default;

  /// Deliberately implicit: call sites that probe once may pass a Template
  /// directly; hot paths compile explicitly and reuse the result.
  // NOLINTNEXTLINE(google-explicit-constructor)
  CompiledTemplate(const Template& templ);

  [[nodiscard]] std::size_t arity() const { return templ_.arity(); }
  [[nodiscard]] const Template& source() const { return templ_; }

  /// One-compare prefilter: true when `fp` proves the candidate cannot
  /// match (never true for a candidate that would match).
  [[nodiscard]] bool key_rejects(Fingerprint fp) const {
    return (fp & mask_) != want_;
  }

  /// Matches directly against wire bytes; never allocates and never reads
  /// past `ref.bytes()`. Exact fields compare their encoding with the
  /// candidate's bytes, the others decode one field at a time.
  [[nodiscard]] bool matches(TupleRef ref) const;

  /// The tuple a hit on `ref` found: the template's own fields when every
  /// field is exact, the decoded record otherwise.
  [[nodiscard]] std::optional<Tuple> hit(TupleRef ref) const;

  /// Matches an already-decoded tuple (reaction dispatch path).
  [[nodiscard]] bool matches(const Tuple& tuple) const {
    return templ_.matches(tuple);
  }

 private:
  Template templ_;
  /// Bit i set when field i is exact: it is compared by its wire bytes.
  std::uint16_t by_bytes_ = 0;
  static_assert(kMaxTupleFields <= 16);
  Fingerprint mask_ = 0;
  Fingerprint want_ = 0;
};

static_assert(sizeof(CompiledTemplate) == 96);

}  // namespace agilla::ts
