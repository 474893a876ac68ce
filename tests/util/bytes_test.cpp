#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace nidkit {
namespace {

TEST(ByteWriter, WritesBigEndianU16) {
  ByteWriter w;
  w.u16(0x1234);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.view()[0], 0x12);
  EXPECT_EQ(w.view()[1], 0x34);
}

TEST(ByteWriter, WritesBigEndianU24) {
  ByteWriter w;
  w.u24(0xabcdef);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w.view()[0], 0xab);
  EXPECT_EQ(w.view()[1], 0xcd);
  EXPECT_EQ(w.view()[2], 0xef);
}

TEST(ByteWriter, WritesBigEndianU32) {
  ByteWriter w;
  w.u32(0xdeadbeef);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.view()[0], 0xde);
  EXPECT_EQ(w.view()[3], 0xef);
}

TEST(ByteWriter, SignedRoundTripsThroughU32) {
  ByteWriter w;
  w.i32(-0x7fffffff);
  ByteReader r(w.view());
  EXPECT_EQ(r.i32(), -0x7fffffff);
}

TEST(ByteWriter, AppendsRawBytesAndZeros) {
  ByteWriter w;
  const std::vector<std::uint8_t> data = {1, 2, 3};
  w.bytes(data);
  w.zeros(2);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_EQ(w.view()[2], 3);
  EXPECT_EQ(w.view()[4], 0);
}

TEST(ByteWriter, PatchU16OverwritesInPlace) {
  ByteWriter w;
  w.u32(0);
  w.patch_u16(1, 0xbeef);
  EXPECT_EQ(w.view()[1], 0xbe);
  EXPECT_EQ(w.view()[2], 0xef);
}

TEST(ByteWriter, PatchPastEndThrows) {
  ByteWriter w;
  w.u8(0);
  EXPECT_THROW(w.patch_u16(1, 1), std::out_of_range);
}

TEST(ByteWriter, TakeMovesBufferOut) {
  ByteWriter w;
  w.u16(7);
  auto buf = std::move(w).take();
  EXPECT_EQ(buf.size(), 2u);
}

TEST(ByteReader, ReadsSequentially) {
  ByteWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u16(), 0x0203);
  EXPECT_EQ(r.u32(), 0x04050607u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, StickyErrorOnOverread) {
  const std::uint8_t data[] = {1, 2};
  ByteReader r(data);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
  // Subsequent reads keep failing even if bytes would be available.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, BytesReturnsSubspan) {
  const std::uint8_t data[] = {9, 8, 7, 6};
  ByteReader r(data);
  auto first = r.bytes(3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[2], 7);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(ByteReader, BytesPastEndFails) {
  const std::uint8_t data[] = {1};
  ByteReader r(data);
  EXPECT_TRUE(r.bytes(2).empty());
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, SkipAdvances) {
  const std::vector<std::uint8_t> data = {1, 2, 3};
  ByteReader r(data);
  r.skip(2);
  EXPECT_EQ(r.u8(), 3);
  EXPECT_TRUE(r.ok());
}

TEST(ByteReader, SkipPastEndFails) {
  const std::uint8_t data[] = {1};
  ByteReader r(data);
  r.skip(5);
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, U24ReadsThreeBytes) {
  const std::uint8_t data[] = {0x10, 0x20, 0x30};
  ByteReader r(data);
  EXPECT_EQ(r.u24(), 0x102030u);
}

TEST(ByteReader, EmptySpanFailsImmediately) {
  ByteReader r({});
  EXPECT_EQ(r.u8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(HexDump, FormatsGroupsOfFour) {
  const std::uint8_t data[] = {0xde, 0xad, 0xbe, 0xef, 0x01};
  EXPECT_EQ(hex_dump(data), "deadbeef 01");
}

TEST(HexDump, EmptyInputEmptyOutput) { EXPECT_EQ(hex_dump({}), ""); }

/// Property: every (writer value, reader value) pair round-trips for a
/// sweep of representative integers.
class BytesRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BytesRoundTrip, U32) {
  ByteWriter w;
  w.u32(GetParam());
  ByteReader r(w.view());
  EXPECT_EQ(r.u32(), GetParam());
}

TEST_P(BytesRoundTrip, U16TruncatedToLowBits) {
  const auto v = static_cast<std::uint16_t>(GetParam());
  ByteWriter w;
  w.u16(v);
  ByteReader r(w.view());
  EXPECT_EQ(r.u16(), v);
}

TEST_P(BytesRoundTrip, U24LowBits) {
  const auto v = GetParam() & 0xffffffu;
  ByteWriter w;
  w.u24(v);
  ByteReader r(w.view());
  EXPECT_EQ(r.u24(), v);
}

INSTANTIATE_TEST_SUITE_P(Representative, BytesRoundTrip,
                         ::testing::Values(0u, 1u, 0x7fu, 0x80u, 0xffu,
                                           0x100u, 0xffffu, 0x10000u,
                                           0xffffffu, 0x1000000u, 0x7fffffffu,
                                           0x80000000u, 0xffffffffu));

}  // namespace
}  // namespace nidkit
