#include "packet/lsa.hpp"

#include <algorithm>
#include <sstream>

#include "util/checksum.hpp"

namespace nidkit::ospf {

std::string LsaHeader::to_string() const {
  std::ostringstream os;
  os << nidkit::ospf::to_string(type) << " id=" << link_state_id.to_string()
     << " adv=" << advertising_router.to_string() << " seq=0x" << std::hex
     << static_cast<std::uint32_t>(seq) << std::dec << " age=" << age;
  return os.str();
}

void encode_lsa_header(const LsaHeader& h, ByteWriter& w) {
  w.u16(h.age);
  w.u8(h.options);
  w.u8(static_cast<std::uint8_t>(h.type));
  w.u32(h.link_state_id.value());
  w.u32(h.advertising_router.value());
  w.i32(h.seq);
  w.u16(h.checksum);
  w.u16(h.length);
}

Result<LsaHeader> decode_lsa_header(ByteReader& r) {
  LsaHeader h;
  h.age = r.u16();
  h.options = r.u8();
  const std::uint8_t type = r.u8();
  h.link_state_id = Ipv4Addr{r.u32()};
  h.advertising_router = Ipv4Addr{r.u32()};
  h.seq = r.i32();
  h.checksum = r.u16();
  h.length = r.u16();
  if (!r.ok()) return fail("truncated LSA header");
  if (type < 1 || type > 5) return fail("unknown LSA type " + std::to_string(type));
  h.type = static_cast<LsaType>(type);
  return h;
}

namespace {

void encode_body(const LsaBody& body, ByteWriter& w) {
  std::visit(
      [&w](const auto& b) {
        using B = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<B, RouterLsaBody>) {
          w.u8(b.flags);
          w.u8(0);
          w.u16(static_cast<std::uint16_t>(b.links.size()));
          for (const auto& link : b.links) {
            w.u32(link.link_id.value());
            w.u32(link.link_data.value());
            w.u8(static_cast<std::uint8_t>(link.type));
            w.u8(0);  // #TOS metrics (none)
            w.u16(link.metric);
          }
        } else if constexpr (std::is_same_v<B, NetworkLsaBody>) {
          w.u32(b.network_mask.value());
          for (const auto& rid : b.attached_routers) w.u32(rid.value());
        } else if constexpr (std::is_same_v<B, SummaryLsaBody>) {
          w.u32(b.network_mask.value());
          w.u8(0);
          w.u24(b.metric);
        } else {
          static_assert(std::is_same_v<B, ExternalLsaBody>);
          w.u32(b.network_mask.value());
          w.u8(b.type2 ? 0x80 : 0x00);
          w.u24(b.metric);
          w.u32(b.forwarding_address.value());
          w.u32(b.external_route_tag);
        }
      },
      body);
}

Result<LsaBody> decode_body(LsaType type, std::span<const std::uint8_t> raw) {
  ByteReader r(raw);
  switch (type) {
    case LsaType::kRouter: {
      RouterLsaBody b;
      b.flags = r.u8();
      r.skip(1);
      const std::uint16_t n = r.u16();
      b.links.reserve(std::min<std::size_t>(n, r.remaining() / 12));
      for (std::uint16_t i = 0; i < n; ++i) {
        RouterLink link;
        link.link_id = Ipv4Addr{r.u32()};
        link.link_data = Ipv4Addr{r.u32()};
        const std::uint8_t lt = r.u8();
        r.skip(1);
        link.metric = r.u16();
        if (!r.ok()) return fail("truncated router-LSA body");
        if (lt < 1 || lt > 4)
          return fail("bad router link type " + std::to_string(lt));
        link.type = static_cast<RouterLinkType>(lt);
        b.links.push_back(link);
      }
      if (!r.ok()) return fail("truncated router-LSA body");
      return LsaBody{std::move(b)};
    }
    case LsaType::kNetwork: {
      NetworkLsaBody b;
      b.network_mask = Ipv4Addr{r.u32()};
      b.attached_routers.reserve(r.remaining() / 4);
      while (r.ok() && r.remaining() >= 4) b.attached_routers.push_back(RouterId{r.u32()});
      if (!r.ok() || r.remaining() != 0)
        return fail("malformed network-LSA body");
      return LsaBody{std::move(b)};
    }
    case LsaType::kSummaryNet:
    case LsaType::kSummaryAsbr: {
      SummaryLsaBody b;
      b.network_mask = Ipv4Addr{r.u32()};
      r.skip(1);
      b.metric = r.u24();
      if (!r.ok()) return fail("truncated summary-LSA body");
      return LsaBody{std::move(b)};
    }
    case LsaType::kExternal: {
      ExternalLsaBody b;
      b.network_mask = Ipv4Addr{r.u32()};
      const std::uint8_t e = r.u8();
      b.type2 = (e & 0x80) != 0;
      b.metric = r.u24();
      b.forwarding_address = Ipv4Addr{r.u32()};
      b.external_route_tag = r.u32();
      if (!r.ok()) return fail("truncated external-LSA body");
      return LsaBody{std::move(b)};
    }
  }
  return fail("unreachable LSA type");
}

/// This thread's scratch writer for checksumming re-encodes. Every
/// received LSU re-encodes each LSA it carries, so reusing one buffer keeps
/// that off the heap once it has grown to the longest LSA.
ByteWriter& scratch_writer() {
  thread_local ByteWriter w;
  w.clear();
  return w;
}

}  // namespace

void Lsa::finalize() {
  // The Fletcher checksum covers the LSA minus the 2-byte age field, with
  // the checksum field (offset 14 after stripping age) zeroed and the
  // length field (offset 18 with age) already final.
  ByteWriter& full = scratch_writer();
  LsaHeader tmp = header;
  tmp.checksum = 0;
  encode_lsa_header(tmp, full);
  encode_body(body, full);
  header.length = static_cast<std::uint16_t>(full.size());
  full.patch_u16(18, header.length);
  header.checksum = fletcher_checksum(full.view().subspan(2), 14);
}

void Lsa::encode(ByteWriter& w) const {
  encode_lsa_header(header, w);
  encode_body(body, w);
}

bool Lsa::checksum_ok() const {
  ByteWriter& full = scratch_writer();
  encode(full);
  return fletcher_checksum_ok(full.view().subspan(2));
}

Result<Lsa> Lsa::decode(ByteReader& r) {
  auto h = decode_lsa_header(r);
  if (!h.ok()) return fail(h.error());
  if (h.value().length < kLsaHeaderSize)
    return fail("LSA length shorter than header");
  Lsa lsa;
  lsa.header = h.value();
  const std::size_t body_len = lsa.header.length - kLsaHeaderSize;
  const auto raw = r.bytes(body_len);
  if (!r.ok()) return fail("LSA body truncated");
  auto body = decode_body(lsa.header.type, raw);
  if (!body.ok()) return fail(body.error());
  lsa.body = std::move(body).take();
  return lsa;
}

int compare_instances(const LsaHeader& a, const LsaHeader& b) {
  // §13.1: greater sequence number wins; then greater checksum; then an
  // instance at MaxAge is newer; then, if the ages differ by more than
  // MaxAgeDiff, the smaller age is newer; otherwise same instance.
  if (a.seq != b.seq) return a.seq > b.seq ? 1 : -1;
  if (a.checksum != b.checksum) return a.checksum > b.checksum ? 1 : -1;
  const bool a_max = a.age >= kMaxAgeSeconds;
  const bool b_max = b.age >= kMaxAgeSeconds;
  if (a_max != b_max) return a_max ? 1 : -1;
  const int diff = static_cast<int>(a.age) - static_cast<int>(b.age);
  if (diff > kMaxAgeDiffSeconds) return -1;
  if (diff < -kMaxAgeDiffSeconds) return 1;
  return 0;
}

}  // namespace nidkit::ospf
