#include "tuplespace/tuple.h"

#include <sstream>

namespace agilla::ts {
namespace detail {

void FieldList::encode(net::Writer& w) const {
  w.u8(count_);
  for (const Value& f : fields()) {
    f.encode_compact(w);
  }
}

bool FieldList::decode_from(net::Reader& r) {
  const std::uint8_t n = r.u8();
  if (!r.ok() || n > kMaxTupleFields) {
    return false;
  }
  std::size_t bytes = 1;  // count byte
  for (std::uint8_t i = 0; i < n; ++i) {
    fields_[i] = Value::decode_compact(r);
    bytes += fields_[i].compact_size();
  }
  if (!r.ok()) {
    return false;
  }
  count_ = n;
  wire_bytes_ = static_cast<std::uint8_t>(bytes);
  return true;
}

std::string FieldList::to_string() const {
  std::ostringstream os;
  os << "<";
  for (std::size_t i = 0; i < count_; ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << fields_[i].to_string();
  }
  os << ">";
  return os.str();
}

bool FieldList::append(const Value& field) {
  const std::size_t bytes = wire_bytes_ + field.compact_size();
  if (count_ >= kMaxTupleFields || bytes > kMaxTupleWireBytes) {
    return false;
  }
  fields_[count_++] = field;
  wire_bytes_ = static_cast<std::uint8_t>(bytes);
  return true;
}

}  // namespace detail

Tuple::Tuple(std::initializer_list<Value> fields) {
  for (const Value& f : fields) {
    add(f);
  }
}

std::optional<Tuple> Tuple::decode(net::Reader& r) {
  Tuple t;
  if (!t.decode_from(r)) {
    return std::nullopt;
  }
  return t;
}

Template::Template(std::initializer_list<Value> fields) {
  for (const Value& f : fields) {
    add(f);
  }
}

bool Template::matches(const Tuple& tuple) const {
  if (tuple.arity() != arity()) {
    return false;
  }
  for (std::size_t i = 0; i < arity(); ++i) {
    if (!field(i).matches(tuple.field(i))) {
      return false;
    }
  }
  return true;
}

std::optional<Template> Template::decode(net::Reader& r) {
  Template t;
  if (!t.decode_from(r)) {
    return std::nullopt;
  }
  return t;
}

}  // namespace agilla::ts
