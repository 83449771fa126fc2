#include "net/serialize.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace agilla::net {
namespace {

constexpr std::size_t kFrameBytes = sim::kFramePayloadBytes;

TEST(Writer, LittleEndianLayout) {
  Writer w;
  w.u16(0x1234);
  w.u32(0xAABBCCDD);
  ASSERT_EQ(w.size(), 6u);
  EXPECT_EQ(w.data()[0], 0x34);
  EXPECT_EQ(w.data()[1], 0x12);
  EXPECT_EQ(w.data()[2], 0xDD);
  EXPECT_EQ(w.data()[3], 0xCC);
  EXPECT_EQ(w.data()[4], 0xBB);
  EXPECT_EQ(w.data()[5], 0xAA);
}

TEST(Writer, ZerosAppendsPadding) {
  Writer w;
  w.u8(1);
  w.zeros(3);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[3], 0u);
}

TEST(RoundTrip, AllScalarTypes) {
  Writer w;
  w.u8(0xFE);
  w.u16(0xBEEF);
  w.i16(-1234);
  w.u32(0xDEADBEEF);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xFE);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.i16(), -1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(RoundTrip, ByteSpans) {
  Writer w;
  const std::vector<std::uint8_t> data{9, 8, 7, 6};
  w.bytes(data);
  Reader r(w.data());
  std::array<std::uint8_t, 4> out{};
  r.bytes(out);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.end()), data);
}

TEST(Reader, UnderrunSetsErrorAndReturnsZero) {
  const std::vector<std::uint8_t> data{0x01};
  Reader r(data);
  EXPECT_EQ(r.u16(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Reader, UnderrunZeroFillsByteOutput) {
  const std::vector<std::uint8_t> data{0xFF};
  Reader r(data);
  std::array<std::uint8_t, 4> out{1, 2, 3, 4};
  r.bytes(out);
  EXPECT_FALSE(r.ok());
  for (std::uint8_t b : out) {
    EXPECT_EQ(b, 0u);
  }
}

TEST(Reader, ErrorIsSticky) {
  const std::vector<std::uint8_t> data{0x01, 0x02};
  Reader r(data);
  r.u32();  // underrun
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // still failing even though a byte "exists"
  EXPECT_FALSE(r.ok());
}

TEST(Reader, SkipAndRemaining) {
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  Reader r(data);
  EXPECT_EQ(r.remaining(), 5u);
  r.skip(2);
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.u8(), 3u);
  r.skip(10);
  EXPECT_FALSE(r.ok());
}

TEST(Writer, PayloadHoldsTheWrittenBytes) {
  Writer w;
  w.u8(7);
  EXPECT_EQ(w.payload(), (sim::FramePayload{7}));
}

TEST(Writer, FillsOneFrameAndThrowsPastIt) {
  Writer w;
  w.zeros(kFrameBytes - 2);
  w.u16(0xBEEF);
  EXPECT_EQ(w.size(), kFrameBytes);
  EXPECT_THROW(w.u8(1), std::length_error);
  EXPECT_EQ(w.size(), kFrameBytes) << "a refused write leaves no bytes";
  Writer v;
  EXPECT_THROW(v.zeros(kFrameBytes + 1), std::length_error);
  EXPECT_EQ(v.size(), 0u);
}

}  // namespace
}  // namespace agilla::net
