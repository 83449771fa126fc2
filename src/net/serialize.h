// Bounds-checked little-endian wire (de)serialization.
//
// Reader never throws on truncated input: it sets an error flag and returns
// zeros, so protocol code can parse untrusted bytes and check ok() once.
#pragma once

#include <cstdint>
#include <span>

#include "sim/frame.h"

namespace agilla::net {

/// Writes into a frame-sized inline buffer (sim::FramePayload): every
/// wire struct in the program fits one radio frame, so writing allocates
/// nothing, and writing past the frame throws std::length_error.
class Writer {
 public:
  void u8(std::uint8_t v) { *bytes_.extend(1) = v; }
  void u16(std::uint16_t v);
  void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
  void u32(std::uint32_t v);
  void bytes(std::span<const std::uint8_t> data);
  /// Writes `n` zero bytes (reserved/padding fields in wire structs).
  void zeros(std::size_t n);

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> data() const { return bytes_; }
  [[nodiscard]] const sim::FramePayload& payload() const { return bytes_; }

 private:
  sim::FramePayload bytes_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
  std::uint32_t u32();
  /// Copies `n` bytes into `out`; zero-fills on underrun.
  void bytes(std::span<std::uint8_t> out);
  void skip(std::size_t n);

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

 private:
  [[nodiscard]] bool ensure(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace agilla::net
