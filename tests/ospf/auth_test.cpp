// Simple-password authentication (§D.4.2) tests.
#include <gtest/gtest.h>

#include "ospf_test_util.hpp"

namespace nidkit::ospf {
namespace {

using namespace std::chrono_literals;
using testutil::Rig;

void make_pair_with_passwords(Rig& rig, const std::string& pw0,
                              const std::string& pw1) {
  rig.add_nodes(2);
  rig.net.add_p2p(rig.nodes[0], rig.nodes[1]);
  rig.net.fault(0).delay = 50ms;
  const std::string pws[2] = {pw0, pw1};
  for (std::size_t i = 0; i < 2; ++i) {
    RouterConfig cfg;
    const auto b = static_cast<std::uint8_t>(i + 1);
    cfg.router_id = RouterId{b, b, b, b};
    cfg.profile = frr_profile();
    cfg.auth_password = pws[i];
    rig.routers.push_back(
        std::make_unique<Router>(rig.net, rig.nodes[i], cfg, 1 + i));
  }
}

TEST(Auth, MatchingPasswordsFormAdjacency) {
  Rig rig;
  make_pair_with_passwords(rig, "s3cret", "s3cret");
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kFull);
  EXPECT_EQ(rig.r(0).stats().auth_failures, 0u);
}

TEST(Auth, MismatchedPasswordsSilentlyIsolate) {
  Rig rig;
  make_pair_with_passwords(rig, "s3cret", "wr0ng");
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kDown);
  EXPECT_EQ(rig.r(1).neighbor_state(rig.id(0)), NeighborState::kDown);
  EXPECT_GT(rig.r(0).stats().auth_failures, 0u);
  EXPECT_GT(rig.r(1).stats().auth_failures, 0u);
}

TEST(Auth, PasswordVsNullNeverPairs) {
  Rig rig;
  make_pair_with_passwords(rig, "s3cret", "");
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kDown);
  // Both directions fail: the authenticated side rejects AuType 0, the
  // null side rejects AuType 1.
  EXPECT_GT(rig.r(0).stats().auth_failures, 0u);
  EXPECT_GT(rig.r(1).stats().auth_failures, 0u);
}

TEST(Auth, PasswordTravelsOnTheWire) {
  Rig rig;
  make_pair_with_passwords(rig, "abc", "abc");
  bool saw_autype1 = false;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.direction != netsim::Direction::kSend) return;
    auto d = decode(ev.frame->payload);
    if (!d.ok()) return;
    if (d.value().header.au_type == 1) {
      saw_autype1 = true;
      EXPECT_EQ(d.value().header.auth[0], 'a');
      EXPECT_EQ(d.value().header.auth[2], 'c');
      EXPECT_EQ(d.value().header.auth[3], 0);  // zero-padded
    }
  });
  rig.start_all();
  rig.run_for(15s);
  EXPECT_TRUE(saw_autype1);
}

TEST(Auth, LongPasswordsTruncateToEightBytes) {
  Rig rig;
  make_pair_with_passwords(rig, "12345678ignored", "12345678IGNORED");
  rig.start_all();
  rig.run_for(60s);
  // Only the first 8 bytes are the key (§D.4.2): these two configs match.
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kFull);
}

TEST(Auth, CodecRoundTripsAuthFields) {
  OspfPacket pkt = make_packet(RouterId{1, 1, 1, 1}, kBackboneArea,
                               HelloBody{});
  pkt.header.au_type = 1;
  pkt.header.auth = {'p', 'w', 0, 0, 0, 0, 0, 0};
  auto decoded = decode(encode(pkt));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().header.au_type, 1);
  EXPECT_EQ(decoded.value().header.auth, pkt.header.auth);
}

TEST(Auth, ChecksumIndependentOfPassword) {
  // §D.4: the checksum excludes the authentication field, so two packets
  // differing only in key carry the same checksum.
  OspfPacket a = make_packet(RouterId{1, 1, 1, 1}, kBackboneArea,
                             HelloBody{});
  OspfPacket b = a;
  a.header.au_type = b.header.au_type = 1;
  a.header.auth = {'x', 0, 0, 0, 0, 0, 0, 0};
  b.header.auth = {'y', 0, 0, 0, 0, 0, 0, 0};
  const auto wa = encode(a);
  const auto wb = encode(b);
  EXPECT_EQ(wa[12], wb[12]);
  EXPECT_EQ(wa[13], wb[13]);
  EXPECT_TRUE(decode(wa).ok());
  EXPECT_TRUE(decode(wb).ok());
}

// ---- Cryptographic (MD5) authentication, §D.4.3 ----

void make_pair_with_md5(Rig& rig, const std::string& k0,
                        const std::string& k1, std::uint8_t id0 = 1,
                        std::uint8_t id1 = 1) {
  rig.add_nodes(2);
  rig.net.add_p2p(rig.nodes[0], rig.nodes[1]);
  rig.net.fault(0).delay = 50ms;
  const std::string keys[2] = {k0, k1};
  const std::uint8_t ids[2] = {id0, id1};
  for (std::size_t i = 0; i < 2; ++i) {
    RouterConfig cfg;
    const auto b = static_cast<std::uint8_t>(i + 1);
    cfg.router_id = RouterId{b, b, b, b};
    cfg.profile = frr_profile();
    cfg.md5_key = keys[i];
    cfg.md5_key_id = ids[i];
    rig.routers.push_back(
        std::make_unique<Router>(rig.net, rig.nodes[i], cfg, 1 + i));
  }
}

TEST(Md5Auth, MatchingKeysFormAdjacency) {
  Rig rig;
  make_pair_with_md5(rig, "hunter2hunter2", "hunter2hunter2");
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kFull);
  EXPECT_EQ(rig.r(0).stats().auth_failures, 0u);
  EXPECT_EQ(rig.r(0).stats().decode_failures, 0u);
}

TEST(Md5Auth, WrongKeySilentlyIsolates) {
  Rig rig;
  make_pair_with_md5(rig, "hunter2", "hunter3");
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kDown);
  EXPECT_GT(rig.r(0).stats().auth_failures, 0u);
  EXPECT_GT(rig.r(1).stats().auth_failures, 0u);
}

TEST(Md5Auth, KeyIdMismatchRejected) {
  Rig rig;
  make_pair_with_md5(rig, "samekey", "samekey", /*id0=*/1, /*id1=*/2);
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kDown);
  EXPECT_GT(rig.r(0).stats().auth_failures, 0u);
}

TEST(Md5Auth, Md5VsNullNeverPairs) {
  Rig rig;
  rig.add_nodes(2);
  rig.net.add_p2p(rig.nodes[0], rig.nodes[1]);
  rig.net.fault(0).delay = 50ms;
  RouterConfig c0;
  c0.router_id = RouterId{1, 1, 1, 1};
  c0.profile = frr_profile();
  c0.md5_key = "secret";
  rig.routers.push_back(
      std::make_unique<Router>(rig.net, rig.nodes[0], c0, 1));
  RouterConfig c1;
  c1.router_id = RouterId{2, 2, 2, 2};
  c1.profile = frr_profile();
  rig.routers.push_back(
      std::make_unique<Router>(rig.net, rig.nodes[1], c1, 2));
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kDown);
}

TEST(Md5Auth, ReplayedPacketRejected) {
  Rig rig;
  make_pair_with_md5(rig, "replaykey", "replaykey");
  // Capture one authenticated hello off the wire...
  std::vector<std::uint8_t> captured;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (captured.empty() && ev.node == rig.nodes[0] &&
        ev.direction == netsim::Direction::kSend)
      captured = ev.frame->payload.to_vector();
  });
  rig.start_all();
  rig.run_for(60s);
  ASSERT_FALSE(captured.empty());
  ASSERT_EQ(rig.r(1).neighbor_state(rig.id(0)), NeighborState::kFull);

  // ...and replay it later: the stale sequence number must be rejected.
  const auto before = rig.r(1).stats().auth_failures;
  netsim::Frame frame;
  frame.dst = rig.net.iface(rig.nodes[1], 0).address;
  frame.protocol = kIpProtoOspf;
  frame.payload = captured;
  rig.net.send(rig.nodes[0], 0, std::move(frame));
  rig.run_for(2s);
  EXPECT_EQ(rig.r(1).stats().auth_failures, before + 1);
}

TEST(Md5Auth, TamperedBodyRejected) {
  // With AuType 2 there is no standard checksum; integrity rests on the
  // digest. Flip one body byte of a captured packet: decode still succeeds
  // structurally, but the router's digest check must reject it.
  Rig rig;
  make_pair_with_md5(rig, "integrity", "integrity");
  std::vector<std::uint8_t> captured;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (captured.empty() && ev.node == rig.nodes[0] &&
        ev.direction == netsim::Direction::kSend)
      captured = ev.frame->payload.to_vector();
  });
  rig.start_all();
  rig.run_for(60s);
  ASSERT_FALSE(captured.empty());

  auto tampered = captured;
  tampered[kOspfHeaderSize] ^= 0x01;
  const auto before = rig.r(1).stats().auth_failures;
  netsim::Frame frame;
  frame.dst = rig.net.iface(rig.nodes[1], 0).address;
  frame.protocol = kIpProtoOspf;
  frame.payload = tampered;
  rig.net.send(rig.nodes[0], 0, std::move(frame));
  rig.run_for(2s);
  EXPECT_EQ(rig.r(1).stats().auth_failures, before + 1);
}

TEST(Md5Auth, CodecRoundTripsMd5Frames) {
  OspfPacket pkt = make_packet(RouterId{1, 1, 1, 1}, kBackboneArea,
                               HelloBody{});
  pkt.header.au_type = 2;
  pkt.header.md5_key_id = 7;
  pkt.header.md5_seq = 1234;
  const std::string key = "k3y";
  const std::span<const std::uint8_t> key_span{
      reinterpret_cast<const std::uint8_t*>(key.data()), key.size()};
  ByteWriter w;
  encode_md5(pkt, key_span, w);
  const auto wire = w.take();
  EXPECT_TRUE(verify_md5(wire, key_span));

  auto out = decode(wire);
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_EQ(out.value().header.au_type, 2);
  EXPECT_EQ(out.value().header.md5_key_id, 7);
  EXPECT_EQ(out.value().header.md5_seq, 1234u);

  const std::string wrong = "k3y2";
  EXPECT_FALSE(verify_md5(
      wire, {reinterpret_cast<const std::uint8_t*>(wrong.data()),
             wrong.size()}));
}

}  // namespace
}  // namespace nidkit::ospf
