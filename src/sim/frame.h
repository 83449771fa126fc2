// A radio frame, flat: header fields plus an inline payload buffer, the
// way TinyOS sends a fixed TOS_Msg. Copying a frame copies a few dozen
// bytes and never touches the heap, so a frame can ride inside an event
// callback (and across a shard outbox) by value.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>

#include "sim/types.h"

namespace agilla::sim {

/// The one frame-size constant: payload bytes a frame can carry. The
/// paper's MICA2 stack carries 27; the real Agilla distribution raised
/// TOSH_DATA_LENGTH so a maximal tuple plus headers fits one frame (see
/// net/packet.h, which aliases this as net::kMaxPayloadBytes).
inline constexpr std::size_t kFramePayloadBytes = 48;

/// A frame's payload: kFramePayloadBytes of inline storage plus a length.
/// Every way of putting bytes in checks the capacity and throws
/// std::length_error past it, so an over-long frame cannot be built.
class FramePayload {
 public:
  static constexpr std::size_t kCapacity = kFramePayloadBytes;

  FramePayload() = default;
  /// Copies any contiguous run of bytes (a span, a vector, an array);
  /// implicit, so those convert at call sites.
  template <typename R>
    requires(std::ranges::contiguous_range<const R> &&
             std::ranges::sized_range<const R> &&
             std::same_as<std::ranges::range_value_t<R>, std::uint8_t> &&
             !std::same_as<R, FramePayload>)
  FramePayload(const R& bytes) {
    std::copy(std::ranges::begin(bytes), std::ranges::end(bytes),
              extend(std::ranges::size(bytes)));
  }
  FramePayload(std::initializer_list<std::uint8_t> bytes)
      : FramePayload(std::span<const std::uint8_t>(bytes.begin(),
                                                   bytes.size())) {}

  /// Grows the payload by `n` bytes and returns where they start.
  std::uint8_t* extend(std::size_t n) {
    if (n > kCapacity - size_) {
      throw std::length_error("frame payload over " +
                              std::to_string(kCapacity) + " bytes");
    }
    std::uint8_t* at = bytes_.data() + size_;
    size_ = static_cast<std::uint8_t>(size_ + n);
    return at;
  }

  [[nodiscard]] const std::uint8_t* data() const { return bytes_.data(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::uint8_t* begin() const { return bytes_.data(); }
  [[nodiscard]] const std::uint8_t* end() const {
    return bytes_.data() + size_;
  }
  operator std::span<const std::uint8_t>() const {
    return {bytes_.data(), size_};
  }

  friend bool operator==(const FramePayload& a, const FramePayload& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::uint8_t size_ = 0;
  std::array<std::uint8_t, kCapacity> bytes_{};
};

/// An optional LPL preamble extension in four bytes, so a frame stays
/// 64 B: microseconds below 2^32 - 1 (71 minutes; an advertised
/// extension is at most 255 wake times), or none.
class FramePreamble {
 public:
  FramePreamble() = default;
  /// Implicit, so the net layer's optional extension converts. Throws
  /// std::overflow_error for an extension past the four-byte range.
  FramePreamble(std::optional<SimTime> extension) {
    if (extension.has_value()) {
      if (*extension >= kNone) {
        throw std::overflow_error("frame preamble past 2^32 - 1 us");
      }
      us_ = static_cast<std::uint32_t>(*extension);
    }
  }

  [[nodiscard]] bool has_value() const { return us_ != kNone; }
  [[nodiscard]] SimTime value_or(SimTime fallback) const {
    return has_value() ? us_ : fallback;
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFF;
  std::uint32_t us_ = kNone;
};

/// A radio-level packet. Payload layouts are defined by the net/ layer.
struct Frame {
  NodeId src;
  NodeId dst;  ///< kBroadcastNode for beacons
  AmType am = AmType::kAck;
  FramePayload payload;
  /// LPL preamble extension for THIS frame, set by the sender's net layer
  /// when it knows the receiver's advertised check period (adaptive LPL).
  /// None = use the node's own duty-cycler extension (static LPL).
  FramePreamble preamble;
};
static_assert(sizeof(Frame) == 64);

}  // namespace agilla::sim
