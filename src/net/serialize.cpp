#include "net/serialize.h"

#include <algorithm>

namespace agilla::net {

void Writer::u16(std::uint16_t v) {
  std::uint8_t* at = bytes_.extend(2);
  at[0] = static_cast<std::uint8_t>(v & 0xFF);
  at[1] = static_cast<std::uint8_t>(v >> 8);
}

void Writer::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v & 0xFFFF));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void Writer::bytes(std::span<const std::uint8_t> data) {
  std::copy(data.begin(), data.end(), bytes_.extend(data.size()));
}

void Writer::zeros(std::size_t n) { std::fill_n(bytes_.extend(n), n, 0); }

bool Reader::ensure(std::size_t n) {
  if (pos_ + n > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!ensure(1)) {
    return 0;
  }
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!ensure(2)) {
    return 0;
  }
  const std::uint16_t lo = data_[pos_];
  const std::uint16_t hi = data_[pos_ + 1];
  pos_ += 2;
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t Reader::u32() {
  const std::uint32_t lo = u16();
  const std::uint32_t hi = u16();
  return lo | (hi << 16);
}

void Reader::bytes(std::span<std::uint8_t> out) {
  if (!ensure(out.size())) {
    std::fill(out.begin(), out.end(), std::uint8_t{0});
    return;
  }
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), out.size(),
              out.begin());
  pos_ += out.size();
}

void Reader::skip(std::size_t n) {
  if (ensure(n)) {
    pos_ += n;
  }
}

}  // namespace agilla::net
