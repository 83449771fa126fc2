#include "tuplespace/value.h"

#include <array>
#include <cctype>
#include <sstream>

#include "net/packet.h"

namespace agilla::ts {

const char* to_string(ValueType t) {
  switch (t) {
    case ValueType::kInvalid:
      return "invalid";
    case ValueType::kNumber:
      return "number";
    case ValueType::kString:
      return "string";
    case ValueType::kTypeWildcard:
      return "type";
    case ValueType::kReading:
      return "reading";
    case ValueType::kLocation:
      return "location";
    case ValueType::kAgentId:
      return "agent-id";
    case ValueType::kReadingType:
      return "reading-type";
  }
  return "unknown";
}

std::uint16_t pack_string(std::string_view s) {
  std::uint16_t packed = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    std::uint16_t code = 0;  // 0 = empty slot
    if (i < s.size()) {
      const char c = static_cast<char>(
          std::tolower(static_cast<unsigned char>(s[i])));
      if (c >= 'a' && c <= 'z') {
        code = static_cast<std::uint16_t>(c - 'a' + 1);
      }
    }
    packed = static_cast<std::uint16_t>(packed | (code << (i * 5)));
  }
  return packed;
}

std::string unpack_string(std::uint16_t packed) {
  std::string out;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto code = static_cast<std::uint16_t>((packed >> (i * 5)) & 0x1F);
    if (code >= 1 && code <= 26) {
      out.push_back(static_cast<char>('a' + code - 1));
    }
  }
  return out;
}

Value Value::string(std::string_view s) {
  return packed_string(pack_string(s));
}

Value Value::packed_string(std::uint16_t packed) {
  return Value(ValueType::kString, static_cast<std::int16_t>(packed), 0);
}

Value Value::type_wildcard(ValueType wrapped) {
  return Value(ValueType::kTypeWildcard,
               static_cast<std::int16_t>(wrapped), 0);
}

Value Value::reading(sim::SensorType sensor, std::int16_t v) {
  return Value(ValueType::kReading, v,
               static_cast<std::int16_t>(sensor));
}

Value Value::location(sim::Location loc) {
  return Value(ValueType::kLocation, net::encode_coordinate(loc.x),
               net::encode_coordinate(loc.y));
}

Value Value::agent_id(std::uint16_t id) {
  return Value(ValueType::kAgentId, static_cast<std::int16_t>(id), 0);
}

Value Value::reading_type(sim::SensorType sensor) {
  return Value(ValueType::kReadingType,
               static_cast<std::int16_t>(sensor), 0);
}

std::uint16_t Value::as_packed_string() const {
  return static_cast<std::uint16_t>(a_);
}

sim::Location Value::as_location() const {
  return sim::Location{net::decode_coordinate(a_),
                       net::decode_coordinate(b_)};
}

std::uint16_t Value::as_agent_id() const {
  return static_cast<std::uint16_t>(a_);
}

sim::SensorType Value::sensor() const {
  if (type_ == ValueType::kReading) {
    return static_cast<sim::SensorType>(b_);
  }
  return static_cast<sim::SensorType>(a_);
}

ValueType Value::wrapped_type() const {
  return static_cast<ValueType>(a_);
}

bool Value::concrete() const {
  switch (type_) {
    case ValueType::kNumber:
    case ValueType::kString:
    case ValueType::kReading:
    case ValueType::kLocation:
    case ValueType::kAgentId:
    case ValueType::kReadingType:
      return true;
    default:
      return false;
  }
}

bool Value::matches(const Value& v) const {
  switch (type_) {
    case ValueType::kTypeWildcard:
      return v.type() == wrapped_type();
    case ValueType::kReadingType:
      // A reading-type template field accepts readings of that sensor as
      // well as an identical reading-type field.
      if (v.type() == ValueType::kReading) {
        return v.sensor() == sensor();
      }
      return v == *this;
    default:
      return v == *this;
  }
}

void Value::encode_compact(net::Writer& w) const {
  const auto bytes = compact_bytes();
  w.bytes(std::span(bytes).first(compact_size()));
}

Value Value::decode_compact(net::Reader& r) {
  const auto type = static_cast<ValueType>(r.u8());
  switch (type) {
    case ValueType::kInvalid:
      return Value{};
    case ValueType::kLocation: {
      const std::int16_t x = r.i16();
      const std::int16_t y = r.i16();
      return Value(type, x, y);
    }
    case ValueType::kReading: {
      const auto sensor = static_cast<std::int16_t>(r.u8());
      const std::int16_t v = r.i16();
      return Value(type, v, sensor);
    }
    case ValueType::kReadingType:
    case ValueType::kTypeWildcard:
      return Value(type, static_cast<std::int16_t>(r.u8()), 0);
    case ValueType::kNumber:
    case ValueType::kString:
    case ValueType::kAgentId:
      return Value(type, r.i16(), 0);
  }
  return Value{};
}

void Value::encode_padded(net::Writer& w) const {
  // type(1) + a(2) + b(2) + reserved(1): matches the fixed 6-byte variable
  // slots of the migration messages (paper Fig. 5).
  w.u8(static_cast<std::uint8_t>(type_));
  w.i16(a_);
  w.i16(b_);
  w.zeros(1);
}

Value Value::decode_padded(net::Reader& r) {
  const auto type = static_cast<ValueType>(r.u8());
  const std::int16_t a = r.i16();
  const std::int16_t b = r.i16();
  r.skip(1);
  return Value(type, a, b);
}

std::string Value::to_string() const {
  std::ostringstream os;
  switch (type_) {
    case ValueType::kInvalid:
      os << "<invalid>";
      break;
    case ValueType::kNumber:
      os << a_;
      break;
    case ValueType::kString:
      os << '"' << unpack_string(static_cast<std::uint16_t>(a_)) << '"';
      break;
    case ValueType::kTypeWildcard:
      os << "?" << ts::to_string(wrapped_type());
      break;
    case ValueType::kReading:
      os << sim::to_string(sensor()) << "=" << a_;
      break;
    case ValueType::kLocation:
      os << as_location();
      break;
    case ValueType::kAgentId:
      os << "agent#" << static_cast<std::uint16_t>(a_);
      break;
    case ValueType::kReadingType:
      os << "sensor:" << sim::to_string(sensor());
      break;
  }
  return os.str();
}

}  // namespace agilla::ts
