#include "packet/ospf_packet.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace nidkit::ospf {
namespace {

const RouterId kR1{1, 1, 1, 1};

Lsa simple_lsa(std::uint32_t adv, std::int32_t seq = kInitialSequenceNumber) {
  Lsa lsa;
  lsa.header.type = LsaType::kRouter;
  lsa.header.link_state_id = Ipv4Addr{adv};
  lsa.header.advertising_router = RouterId{adv};
  lsa.header.seq = seq;
  RouterLsaBody body;
  body.links.push_back(RouterLink{Ipv4Addr{10, 0, 0, 0},
                                  Ipv4Addr{255, 255, 255, 252},
                                  RouterLinkType::kStub, 1});
  lsa.body = std::move(body);
  lsa.finalize();
  return lsa;
}

OspfPacket round_trip(const OspfPacket& in) {
  const auto wire = encode(in);
  auto out = decode(wire);
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error());
  return std::move(out).take();
}

TEST(OspfCodec, HelloRoundTrips) {
  HelloBody h;
  h.network_mask = Ipv4Addr{255, 255, 255, 0};
  h.hello_interval = 10;
  h.router_priority = 5;
  h.dead_interval = 40;
  h.designated_router = Ipv4Addr{10, 0, 0, 1};
  h.backup_designated_router = Ipv4Addr{10, 0, 0, 2};
  h.neighbors = {RouterId{2, 2, 2, 2}, RouterId{3, 3, 3, 3}};
  const auto in = make_packet(kR1, kBackboneArea, h);
  const auto out = round_trip(in);
  EXPECT_EQ(out.header.type, PacketType::kHello);
  EXPECT_EQ(std::get<HelloBody>(out.body), h);
}

TEST(OspfCodec, EmptyNeighborHelloRoundTrips) {
  HelloBody h;
  const auto out = round_trip(make_packet(kR1, kBackboneArea, h));
  EXPECT_TRUE(std::get<HelloBody>(out.body).neighbors.empty());
}

TEST(OspfCodec, DbdRoundTrips) {
  DbdBody d;
  d.interface_mtu = 1500;
  d.flags = kDbdFlagInit | kDbdFlagMore | kDbdFlagMs;
  d.dd_sequence = 0x1234;
  d.lsa_headers.push_back(simple_lsa(0x01010101).header);
  d.lsa_headers.push_back(simple_lsa(0x02020202).header);
  const auto out = round_trip(make_packet(kR1, kBackboneArea, d));
  const auto& body = std::get<DbdBody>(out.body);
  EXPECT_EQ(body, d);
  EXPECT_TRUE(body.init());
  EXPECT_TRUE(body.more());
  EXPECT_TRUE(body.master());
}

TEST(OspfCodec, LsrRoundTrips) {
  LsRequestBody b;
  b.requests.push_back(LsRequestEntry{LsaType::kRouter, Ipv4Addr{1, 1, 1, 1},
                                      RouterId{1, 1, 1, 1}});
  b.requests.push_back(LsRequestEntry{LsaType::kExternal,
                                      Ipv4Addr{192, 168, 0, 0},
                                      RouterId{3, 3, 3, 3}});
  const auto out = round_trip(make_packet(kR1, kBackboneArea, b));
  EXPECT_EQ(std::get<LsRequestBody>(out.body), b);
}

TEST(OspfCodec, LsuRoundTrips) {
  LsUpdateBody b;
  b.lsas.push_back(simple_lsa(0x01010101, kInitialSequenceNumber + 3));
  b.lsas.push_back(simple_lsa(0x02020202));
  const auto out = round_trip(make_packet(kR1, kBackboneArea, b));
  EXPECT_EQ(std::get<LsUpdateBody>(out.body), b);
}

TEST(OspfCodec, LsAckRoundTrips) {
  LsAckBody b;
  b.lsa_headers.push_back(simple_lsa(0x01010101).header);
  const auto out = round_trip(make_packet(kR1, kBackboneArea, b));
  EXPECT_EQ(std::get<LsAckBody>(out.body), b);
}

TEST(OspfCodec, MakePacketSetsMatchingType) {
  EXPECT_EQ(make_packet(kR1, kBackboneArea, HelloBody{}).header.type,
            PacketType::kHello);
  EXPECT_EQ(make_packet(kR1, kBackboneArea, DbdBody{}).header.type,
            PacketType::kDbd);
  EXPECT_EQ(make_packet(kR1, kBackboneArea, LsRequestBody{}).header.type,
            PacketType::kLsRequest);
  EXPECT_EQ(make_packet(kR1, kBackboneArea, LsUpdateBody{}).header.type,
            PacketType::kLsUpdate);
  EXPECT_EQ(make_packet(kR1, kBackboneArea, LsAckBody{}).header.type,
            PacketType::kLsAck);
}

TEST(OspfCodec, LengthFieldMatchesWireSize) {
  const auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  const std::uint16_t length =
      (std::uint16_t{wire[2]} << 8) | std::uint16_t{wire[3]};
  EXPECT_EQ(length, wire.size());
}

TEST(OspfCodec, HeaderChecksumExcludesAuthField) {
  auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  // Corrupting the 8-byte authentication field (header bytes 16-23) must
  // NOT break the checksum (§D.4 excludes it).
  wire[20] ^= 0xff;
  EXPECT_TRUE(decode(wire).ok());
}

TEST(OspfCodec, HeaderChecksumCoversEveryByteButAuth) {
  // §D.4: the checksum skips exactly the 64-bit authentication field
  // (header bytes 16-23). decode sums around that hole in place, so check
  // the hole's edges bit by bit, on a password-carrying packet of every
  // body shape with a variable-length tail.
  HelloBody hello;
  hello.neighbors = {RouterId{2, 2, 2, 2}, RouterId{3, 3, 3, 3}};
  DbdBody dbd;
  dbd.flags = kDbdFlagMore;
  dbd.lsa_headers.push_back(simple_lsa(0x01010101).header);
  LsUpdateBody lsu;
  lsu.lsas.push_back(simple_lsa(0x01010101, kInitialSequenceNumber + 3));
  lsu.lsas.push_back(simple_lsa(0x02020202));
  LsAckBody ack;
  ack.lsa_headers.push_back(simple_lsa(0x02020202).header);
  const PacketBody bodies[] = {hello, dbd, lsu, ack};
  for (const PacketBody& body : bodies) {
    OspfPacket pkt = make_packet(kR1, kBackboneArea, body);
    SCOPED_TRACE(to_string(pkt.header.type));
    pkt.header.au_type = 1;
    pkt.header.auth = {'s', '3', 'c', 'r', 'e', 't', '!', '?'};
    const auto wire = encode(pkt);
    ASSERT_TRUE(decode(wire).ok());
    for (std::size_t byte = 0; byte < wire.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                     std::to_string(bit));
        auto flipped = wire;
        flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
        const auto out = decode(flipped);
        if (byte >= 16 && byte < 24) {
          ASSERT_TRUE(out.ok()) << out.error();
          EXPECT_EQ(out.value().body, pkt.body);
          EXPECT_EQ(out.value().header.auth[byte - 16],
                    pkt.header.auth[byte - 16] ^ (1u << bit));
        } else {
          ASSERT_FALSE(out.ok());
          // Past the header every field check passes; only the sum sees it.
          if (byte >= kOspfHeaderSize) {
            EXPECT_EQ(out.error(), "bad header checksum");
          }
        }
      }
    }
  }
}

TEST(OspfCodec, CorruptedBodyRejected) {
  auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  wire[kOspfHeaderSize] ^= 0x01;  // first body byte (network mask)
  auto out = decode(wire);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.error().find("checksum"), std::string::npos);
}

TEST(OspfCodec, CorruptedHeaderRejected) {
  auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  wire[4] ^= 0x01;  // router id
  EXPECT_FALSE(decode(wire).ok());
}

TEST(OspfCodec, TruncatedPacketRejected) {
  auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  wire.pop_back();
  EXPECT_FALSE(decode(wire).ok());
}

TEST(OspfCodec, RuntPacketRejected) {
  const std::vector<std::uint8_t> wire(10, 0);
  EXPECT_FALSE(decode(wire).ok());
}

TEST(OspfCodec, BadVersionRejected) {
  auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  wire[0] = 3;
  // Repair the checksum so version is the only problem.
  wire[12] = wire[13] = 0;
  const auto csum = internet_checksum(wire);
  wire[12] = static_cast<std::uint8_t>(csum >> 8);
  wire[13] = static_cast<std::uint8_t>(csum);
  auto out = decode(wire);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.error().find("version"), std::string::npos);
}

TEST(OspfCodec, BadTypeRejected) {
  auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  wire[1] = 9;
  wire[12] = wire[13] = 0;
  const auto csum = internet_checksum(wire);
  wire[12] = static_cast<std::uint8_t>(csum >> 8);
  wire[13] = static_cast<std::uint8_t>(csum);
  EXPECT_FALSE(decode(wire).ok());
}

TEST(OspfCodec, SimplePasswordAuthAccepted) {
  auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  wire[15] = 1;  // AuType = simple password
  wire[12] = wire[13] = 0;
  const auto csum = internet_checksum(wire);
  wire[12] = static_cast<std::uint8_t>(csum >> 8);
  wire[13] = static_cast<std::uint8_t>(csum);
  auto out = decode(wire);
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_EQ(out.value().header.au_type, 1);
}

TEST(OspfCodec, Autype2WithoutDigestFramingRejected) {
  // Flipping AuType to 2 without appending the 16-byte digest makes the
  // length field inconsistent with the cryptographic framing.
  auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  wire[15] = 2;
  EXPECT_FALSE(decode(wire).ok());
}

TEST(OspfCodec, UnknownAuthTypeRejected) {
  auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  wire[15] = 3;
  wire[12] = wire[13] = 0;
  const auto csum = internet_checksum(wire);
  wire[12] = static_cast<std::uint8_t>(csum >> 8);
  wire[13] = static_cast<std::uint8_t>(csum);
  EXPECT_FALSE(decode(wire).ok());
}

TEST(OspfCodec, LengthMismatchRejected) {
  auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  wire.push_back(0);  // extra trailing byte
  EXPECT_FALSE(decode(wire).ok());
}

TEST(OspfCodec, LsuWithCorruptedLsaRejected) {
  LsUpdateBody b;
  b.lsas.push_back(simple_lsa(0x01010101));
  auto pkt = make_packet(kR1, kBackboneArea, b);
  // Corrupt the LSA *after* finalize, then re-encode with a fixed-up outer
  // checksum so only the Fletcher check can catch it.
  std::get<LsUpdateBody>(pkt.body).lsas[0].header.seq += 1;
  auto wire = encode(pkt);
  auto out = decode(wire);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.error().find("Fletcher"), std::string::npos);
}

TEST(OspfCodec, RaggedHelloNeighborListRejected) {
  auto wire = encode(make_packet(kR1, kBackboneArea, HelloBody{}));
  // Append 2 junk bytes to the neighbor list and fix length+checksum.
  wire.insert(wire.end(), {0xab, 0xcd});
  const std::uint16_t len = static_cast<std::uint16_t>(wire.size());
  wire[2] = static_cast<std::uint8_t>(len >> 8);
  wire[3] = static_cast<std::uint8_t>(len);
  wire[12] = wire[13] = 0;
  const auto csum = internet_checksum(wire);
  wire[12] = static_cast<std::uint8_t>(csum >> 8);
  wire[13] = static_cast<std::uint8_t>(csum);
  auto out = decode(wire);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.error().find("ragged"), std::string::npos);
}

TEST(OspfCodec, PeekTypeReadsWithoutDecoding) {
  const auto wire = encode(make_packet(kR1, kBackboneArea, LsUpdateBody{}));
  EXPECT_EQ(peek_type(wire), 4);
  EXPECT_EQ(peek_type({wire.data(), 1}), 0);
}

TEST(OspfCodec, SummaryStringsNameTheType) {
  EXPECT_NE(make_packet(kR1, kBackboneArea, HelloBody{}).summary().find(
                "Hello"),
            std::string::npos);
  EXPECT_NE(
      make_packet(kR1, kBackboneArea, DbdBody{}).summary().find("DBD"),
      std::string::npos);
  EXPECT_NE(make_packet(kR1, kBackboneArea, LsUpdateBody{}).summary().find(
                "LSU"),
            std::string::npos);
}

/// Property: decoding arbitrary bytes never crashes and never produces a
/// packet that fails to re-encode.
TEST(OspfCodec, FuzzDecodeIsTotal) {
  Rng rng(20260706);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.uniform(120));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(256));
    auto out = decode(junk);
    if (out.ok() && out.value().header.au_type != 2) {
      // Astronomically unlikely, but if it decodes it must re-encode.
      EXPECT_EQ(encode(out.value()).size(), junk.size());
    }
  }
  // Also fuzz behind a valid header — version 2, type 1-5, length = size,
  // AuType 0/1 and a correct checksum — so the body decoders run.
  std::size_t decoded = 0;
  std::set<std::uint8_t> rejected_types;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint8_t> wire(kOspfHeaderSize + rng.uniform(64));
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.uniform(256));
    wire[0] = kOspfVersion;
    wire[1] = static_cast<std::uint8_t>(1 + rng.uniform(5));
    wire[2] = static_cast<std::uint8_t>(wire.size() >> 8);
    wire[3] = static_cast<std::uint8_t>(wire.size());
    wire[14] = 0;
    wire[15] = static_cast<std::uint8_t>(rng.uniform(2));
    // RFC 1071 over the packet with the checksum and auth bytes zeroed.
    std::vector<std::uint8_t> summed = wire;
    std::fill(summed.begin() + 12, summed.begin() + 14, 0);
    std::fill(summed.begin() + 16, summed.begin() + 24, 0);
    const std::uint16_t csum = internet_checksum(summed);
    wire[12] = static_cast<std::uint8_t>(csum >> 8);
    wire[13] = static_cast<std::uint8_t>(csum);
    auto out = decode(wire);
    if (!out.ok()) {
      EXPECT_NE(out.error(), "bad header checksum");
      rejected_types.insert(wire[1]);
      continue;
    }
    ++decoded;
    EXPECT_EQ(encode(out.value()).size(), wire.size());
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_EQ(rejected_types.size(), 5u) << "a body decoder was never reached";
}

/// Property: every packet type round-trips bit-exactly (encode∘decode∘
/// encode is the identity on the wire image).
class WireStability : public ::testing::TestWithParam<int> {};

TEST_P(WireStability, EncodeDecodeEncodeIsStable) {
  PacketBody body;
  switch (GetParam()) {
    case 1: {
      HelloBody h;
      h.neighbors = {RouterId{7, 7, 7, 7}};
      body = h;
      break;
    }
    case 2: {
      DbdBody d;
      d.lsa_headers.push_back(simple_lsa(0x05050505).header);
      body = d;
      break;
    }
    case 3: {
      LsRequestBody b;
      b.requests.push_back(LsRequestEntry{});
      body = b;
      break;
    }
    case 4: {
      LsUpdateBody b;
      b.lsas.push_back(simple_lsa(0x09090909));
      body = b;
      break;
    }
    default: {
      LsAckBody b;
      b.lsa_headers.push_back(simple_lsa(0x0a0a0a0a).header);
      body = b;
      break;
    }
  }
  const auto wire1 = encode(make_packet(kR1, kBackboneArea, body));
  auto decoded = decode(wire1);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const auto wire2 = encode(decoded.value());
  EXPECT_EQ(wire1, wire2);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, WireStability, ::testing::Range(1, 6));

}  // namespace
}  // namespace nidkit::ospf
