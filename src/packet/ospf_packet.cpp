#include "packet/ospf_packet.hpp"

#include <algorithm>
#include <sstream>

#include "util/checksum.hpp"
#include "util/md5.hpp"

namespace nidkit::ospf {

std::string to_string(PacketType t) {
  switch (t) {
    case PacketType::kHello: return "Hello";
    case PacketType::kDbd: return "DBD";
    case PacketType::kLsRequest: return "LSR";
    case PacketType::kLsUpdate: return "LSU";
    case PacketType::kLsAck: return "LSAck";
  }
  return "?";
}

std::string to_string(LsaType t) {
  switch (t) {
    case LsaType::kRouter: return "router-LSA";
    case LsaType::kNetwork: return "network-LSA";
    case LsaType::kSummaryNet: return "summary-LSA";
    case LsaType::kSummaryAsbr: return "asbr-summary-LSA";
    case LsaType::kExternal: return "external-LSA";
  }
  return "?";
}

namespace {

PacketType type_of(const PacketBody& body) {
  return std::visit(
      [](const auto& b) {
        using B = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<B, HelloBody>) return PacketType::kHello;
        else if constexpr (std::is_same_v<B, DbdBody>) return PacketType::kDbd;
        else if constexpr (std::is_same_v<B, LsRequestBody>)
          return PacketType::kLsRequest;
        else if constexpr (std::is_same_v<B, LsUpdateBody>)
          return PacketType::kLsUpdate;
        else
          return PacketType::kLsAck;
      },
      body);
}

void encode_body(const PacketBody& body, ByteWriter& w) {
  std::visit(
      [&w](const auto& b) {
        using B = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<B, HelloBody>) {
          w.u32(b.network_mask.value());
          w.u16(b.hello_interval);
          w.u8(b.options);
          w.u8(b.router_priority);
          w.u32(b.dead_interval);
          w.u32(b.designated_router.value());
          w.u32(b.backup_designated_router.value());
          for (const auto& n : b.neighbors) w.u32(n.value());
        } else if constexpr (std::is_same_v<B, DbdBody>) {
          w.u16(b.interface_mtu);
          w.u8(b.options);
          w.u8(b.flags);
          w.u32(b.dd_sequence);
          for (const auto& h : b.lsa_headers) encode_lsa_header(h, w);
        } else if constexpr (std::is_same_v<B, LsRequestBody>) {
          for (const auto& req : b.requests) {
            w.u32(static_cast<std::uint32_t>(req.type));
            w.u32(req.link_state_id.value());
            w.u32(req.advertising_router.value());
          }
        } else if constexpr (std::is_same_v<B, LsUpdateBody>) {
          w.u32(static_cast<std::uint32_t>(b.lsas.size()));
          for (const auto& lsa : b.lsas) lsa.encode(w);
        } else {
          static_assert(std::is_same_v<B, LsAckBody>);
          for (const auto& h : b.lsa_headers) encode_lsa_header(h, w);
        }
      },
      body);
}

Result<PacketBody> decode_body(PacketType type,
                               std::span<const std::uint8_t> raw) {
  ByteReader r(raw);
  switch (type) {
    case PacketType::kHello: {
      HelloBody b;
      b.network_mask = Ipv4Addr{r.u32()};
      b.hello_interval = r.u16();
      b.options = r.u8();
      b.router_priority = r.u8();
      b.dead_interval = r.u32();
      b.designated_router = Ipv4Addr{r.u32()};
      b.backup_designated_router = Ipv4Addr{r.u32()};
      if (!r.ok()) return fail("truncated hello");
      if (r.remaining() % 4 != 0) return fail("ragged hello neighbor list");
      b.neighbors.reserve(r.remaining() / 4);
      while (r.remaining() >= 4) b.neighbors.push_back(RouterId{r.u32()});
      return PacketBody{std::move(b)};
    }
    case PacketType::kDbd: {
      DbdBody b;
      b.interface_mtu = r.u16();
      b.options = r.u8();
      b.flags = r.u8();
      b.dd_sequence = r.u32();
      if (!r.ok()) return fail("truncated DBD");
      if (r.remaining() % kLsaHeaderSize != 0)
        return fail("ragged DBD header list");
      b.lsa_headers.reserve(r.remaining() / kLsaHeaderSize);
      while (r.remaining() >= kLsaHeaderSize) {
        auto h = decode_lsa_header(r);
        if (!h.ok()) return fail(h.error());
        b.lsa_headers.push_back(h.value());
      }
      return PacketBody{std::move(b)};
    }
    case PacketType::kLsRequest: {
      LsRequestBody b;
      if (r.remaining() % 12 != 0) return fail("ragged LSR list");
      b.requests.reserve(r.remaining() / 12);
      while (r.remaining() >= 12) {
        LsRequestEntry e;
        const std::uint32_t t = r.u32();
        e.link_state_id = Ipv4Addr{r.u32()};
        e.advertising_router = Ipv4Addr{r.u32()};
        if (t < 1 || t > 5) return fail("bad LSR type");
        e.type = static_cast<LsaType>(t);
        b.requests.push_back(e);
      }
      if (!r.ok()) return fail("truncated LSR");
      return PacketBody{std::move(b)};
    }
    case PacketType::kLsUpdate: {
      LsUpdateBody b;
      const std::uint32_t n = r.u32();
      if (!r.ok()) return fail("truncated LSU count");
      // Every LSA is at least a header long, so the bytes left bound how
      // many can follow; a lying count field cannot force a huge reserve.
      b.lsas.reserve(std::min<std::size_t>(n, r.remaining() / kLsaHeaderSize));
      for (std::uint32_t i = 0; i < n; ++i) {
        auto lsa = Lsa::decode(r);
        if (!lsa.ok()) return fail(lsa.error());
        b.lsas.push_back(std::move(lsa).take());
      }
      if (r.remaining() != 0) return fail("trailing bytes after LSU");
      return PacketBody{std::move(b)};
    }
    case PacketType::kLsAck: {
      LsAckBody b;
      if (r.remaining() % kLsaHeaderSize != 0)
        return fail("ragged LSAck header list");
      b.lsa_headers.reserve(r.remaining() / kLsaHeaderSize);
      while (r.remaining() >= kLsaHeaderSize) {
        auto h = decode_lsa_header(r);
        if (!h.ok()) return fail(h.error());
        b.lsa_headers.push_back(h.value());
      }
      return PacketBody{std::move(b)};
    }
  }
  return fail("unreachable packet type");
}

}  // namespace

OspfPacket make_packet(RouterId router, AreaId area, PacketBody body) {
  OspfPacket pkt;
  pkt.header.router_id = router;
  pkt.header.area_id = area;
  pkt.header.type = type_of(body);
  pkt.body = std::move(body);
  return pkt;
}

void encode(const OspfPacket& pkt, ByteWriter& w) {
  const std::size_t start = w.size();
  w.u8(pkt.header.version);
  w.u8(static_cast<std::uint8_t>(pkt.header.type));
  w.u16(0);  // length, patched below
  w.u32(pkt.header.router_id.value());
  w.u32(pkt.header.area_id.value());
  w.u16(0);  // checksum, patched below
  w.u16(pkt.header.au_type);
  w.zeros(8);  // authentication field (header bytes 16-23), filled last
  encode_body(pkt.body, w);
  const auto length = static_cast<std::uint16_t>(w.size() - start);
  w.patch_u16(start + 2, length);
  // §D.4: the checksum covers the whole packet with the authentication
  // field excluded — equivalently, with those 8 bytes zero (zeros add
  // nothing to a one's-complement sum). The buffer is in exactly that
  // state here.
  const std::uint16_t csum = internet_checksum(w.view().subspan(start));
  w.patch_u16(start + 12, csum);
  // Only now does the password (AuType 1) land in the auth field.
  std::copy(pkt.header.auth.begin(), pkt.header.auth.end(),
            w.data().begin() + static_cast<std::ptrdiff_t>(start + 16));
}

std::vector<std::uint8_t> encode(const OspfPacket& pkt) {
  ByteWriter w(64);
  encode(pkt, w);
  return w.take();
}

namespace {

/// The secret padded with zeros to 16 bytes (§D.4.3).
std::array<std::uint8_t, 16> padded_md5_key(
    std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 16> padded{};
  std::copy_n(key.begin(), std::min<std::size_t>(16, key.size()),
              padded.begin());
  return padded;
}

/// MD5 authentication input: the packet (auth field included) followed by
/// the padded secret.
std::array<std::uint8_t, 16> md5_digest_for(
    std::span<const std::uint8_t> packet, std::span<const std::uint8_t> key) {
  std::vector<std::uint8_t> input(packet.begin(), packet.end());
  const auto padded = padded_md5_key(key);
  input.insert(input.end(), padded.begin(), padded.end());
  return md5(input);
}

}  // namespace

void encode_md5(const OspfPacket& pkt, std::span<const std::uint8_t> key,
                ByteWriter& w) {
  const std::size_t start = w.size();
  w.u8(pkt.header.version);
  w.u8(static_cast<std::uint8_t>(pkt.header.type));
  w.u16(0);  // length, patched below
  w.u32(pkt.header.router_id.value());
  w.u32(pkt.header.area_id.value());
  w.u16(0);  // checksum: not used with cryptographic authentication
  w.u16(2);  // AuType 2
  // Auth slot: 0(2) key-id(1) auth-data-length(1) crypto-sequence(4).
  w.u16(0);
  w.u8(pkt.header.md5_key_id);
  w.u8(16);
  w.u32(pkt.header.md5_seq);
  encode_body(pkt.body, w);
  // Length covers the packet but NOT the trailing digest.
  const std::size_t length = w.size() - start;
  w.patch_u16(start + 2, static_cast<std::uint16_t>(length));
  // Digest the packet with the padded secret appended in place, then
  // overwrite the secret with the digest: no copy of the packet.
  w.bytes(padded_md5_key(key));
  const auto digest = md5(w.view().subspan(start));
  std::copy(digest.begin(), digest.end(),
            w.data().begin() + static_cast<std::ptrdiff_t>(start + length));
}

bool verify_md5(std::span<const std::uint8_t> wire,
                std::span<const std::uint8_t> key) {
  if (wire.size() < kOspfHeaderSize + 16) return false;
  const auto packet = wire.subspan(0, wire.size() - 16);
  const auto digest = md5_digest_for(packet, key);
  return std::equal(digest.begin(), digest.end(), wire.end() - 16);
}

Result<OspfPacket> decode(std::span<const std::uint8_t> wire) {
  if (wire.size() < kOspfHeaderSize) return fail("packet shorter than header");
  ByteReader r(wire);
  OspfPacket pkt;
  pkt.header.version = r.u8();
  const std::uint8_t type = r.u8();
  pkt.header.length = r.u16();
  pkt.header.router_id = RouterId{r.u32()};
  pkt.header.area_id = AreaId{r.u32()};
  pkt.header.checksum = r.u16();
  pkt.header.au_type = r.u16();

  if (pkt.header.version != kOspfVersion) return fail("bad OSPF version");
  if (type < 1 || type > 5) return fail("bad packet type");
  pkt.header.type = static_cast<PacketType>(type);
  if (pkt.header.au_type > 2) return fail("unsupported AuType");

  if (pkt.header.au_type == 2) {
    // Cryptographic authentication (§D.4.3): the 16-byte digest trails the
    // packet, the length field excludes it, and there is no standard
    // checksum. Digest verification needs the key: the router calls
    // verify_md5; the codec validates framing and surfaces the fields.
    if (static_cast<std::size_t>(pkt.header.length) + 16 != wire.size())
      return fail("length field does not match md5 frame size");
    if (pkt.header.length < kOspfHeaderSize)
      return fail("length shorter than header");
    ByteReader auth(wire.subspan(16, 8));
    auth.skip(2);
    pkt.header.md5_key_id = auth.u8();
    const std::uint8_t digest_len = auth.u8();
    pkt.header.md5_seq = auth.u32();
    if (digest_len != 16) return fail("bad md5 digest length");
    auto md5_body = decode_body(
        pkt.header.type,
        wire.subspan(kOspfHeaderSize, pkt.header.length - kOspfHeaderSize));
    if (!md5_body.ok()) return fail(md5_body.error());
    pkt.body = std::move(md5_body).take();
    if (auto* lsu = std::get_if<LsUpdateBody>(&pkt.body)) {
      for (const auto& lsa : lsu->lsas)
        if (!lsa.checksum_ok()) return fail("bad LSA Fletcher checksum");
    }
    return pkt;
  }

  // Password verification is the receiver's policy decision (the router
  // knows its configured key); the codec only surfaces the field.
  std::copy_n(wire.begin() + 16, 8, pkt.header.auth.begin());
  if (pkt.header.length != wire.size())
    return fail("length field does not match frame size");
  if (pkt.header.length < kOspfHeaderSize)
    return fail("length shorter than header");

  // §D.4: verify the checksum with the authentication field excluded —
  // summing around header bytes 16-23 equals summing a copy with them
  // zeroed, without making the copy.
  if (internet_checksum2(wire.first(16), wire.subspan(24)) != 0)
    return fail("bad header checksum");

  const auto raw_body = wire.subspan(kOspfHeaderSize);
  auto body = decode_body(pkt.header.type, raw_body);
  if (!body.ok()) return fail(body.error());
  pkt.body = std::move(body).take();

  // Per-LSA integrity: receivers discard LSAs with bad Fletcher checksums
  // (§13 step 1); we reject the whole update to surface corruption loudly.
  if (auto* lsu = std::get_if<LsUpdateBody>(&pkt.body)) {
    for (const auto& lsa : lsu->lsas)
      if (!lsa.checksum_ok()) return fail("bad LSA Fletcher checksum");
  }
  return pkt;
}

std::uint8_t peek_type(std::span<const std::uint8_t> wire) {
  return wire.size() >= 2 ? wire[1] : 0;
}

std::string OspfPacket::summary() const {
  std::ostringstream os;
  os << to_string(header.type) << " from " << header.router_id.to_string();
  std::visit(
      [&os](const auto& b) {
        using B = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<B, HelloBody>) {
          os << " nbrs=" << b.neighbors.size();
        } else if constexpr (std::is_same_v<B, DbdBody>) {
          os << " flags=" << (b.init() ? "I" : "") << (b.more() ? "M" : "")
             << (b.master() ? "MS" : "") << " seq=" << b.dd_sequence
             << " hdrs=" << b.lsa_headers.size();
        } else if constexpr (std::is_same_v<B, LsRequestBody>) {
          os << " reqs=" << b.requests.size();
        } else if constexpr (std::is_same_v<B, LsUpdateBody>) {
          os << " lsas=" << b.lsas.size();
        } else {
          os << " acks=" << b.lsa_headers.size();
        }
      },
      body);
  return os.str();
}

}  // namespace nidkit::ospf
