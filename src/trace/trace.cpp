#include "trace/trace.hpp"

#include <algorithm>
#include <limits>

#include "packet/bgp_packet.hpp"
#include "packet/ospf_packet.hpp"
#include "packet/rip_packet.hpp"
#include "util/checksum.hpp"

namespace nidkit::trace {

namespace {

constexpr std::uint32_t kDigestKindShift = 30;
constexpr std::uint32_t kDigestIndexMask = (1u << kDigestKindShift) - 1;

inline std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint32_t{p[0]} << 8) | p[1]);
}
inline std::uint32_t be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline LsaDigest lsa_digest_from_header(const std::uint8_t* h) {
  LsaDigest d;
  d.age = be16(h);
  d.lsa_type = h[3];
  d.link_state_id = Ipv4Addr{be32(h + 4)};
  d.advertising_router = RouterId{be32(h + 8)};
  d.seq = static_cast<std::int32_t>(be32(h + 12));
  return d;
}

}  // namespace

std::int32_t OspfView::max_seq() const {
  std::int32_t best = std::numeric_limits<std::int32_t>::min();
  for (const auto& l : lsas) best = std::max(best, l.seq);
  return best;
}

TraceLog::TraceLog() : arena_(std::make_unique<util::Arena>()) {
  util::Arena* a = arena_.get();
  time_.set_arena(a);
  node_.set_arena(a);
  iface_.set_arena(a);
  send_.set_arena(a);
  src_.set_arena(a);
  dst_.set_arena(a);
  protocol_.set_arena(a);
  frame_id_.set_arena(a);
  caused_by_.set_arena(a);
  observer_state_.set_arena(a);
  digest_ref_.set_arena(a);
  bytes_.set_arena(a);
  ospf_pool_.set_arena(a);
  rip_pool_.set_arena(a);
  bgp_pool_.set_arena(a);
  by_node_.set_arena(a);
}

TraceLog::~TraceLog() { release_bytes(); }

TraceLog::TraceLog(TraceLog&& other) noexcept = default;

TraceLog& TraceLog::operator=(TraceLog&& other) noexcept {
  if (this != &other) {
    release_bytes();
    arena_ = std::move(other.arena_);
    time_ = std::move(other.time_);
    node_ = std::move(other.node_);
    iface_ = std::move(other.iface_);
    send_ = std::move(other.send_);
    src_ = std::move(other.src_);
    dst_ = std::move(other.dst_);
    protocol_ = std::move(other.protocol_);
    frame_id_ = std::move(other.frame_id_);
    caused_by_ = std::move(other.caused_by_);
    observer_state_ = std::move(other.observer_state_);
    digest_ref_ = std::move(other.digest_ref_);
    bytes_ = std::move(other.bytes_);
    ospf_pool_ = std::move(other.ospf_pool_);
    rip_pool_ = std::move(other.rip_pool_);
    bgp_pool_ = std::move(other.bgp_pool_);
    by_node_ = std::move(other.by_node_);
    prober_ = std::move(other.prober_);
    keep_bytes_ = other.keep_bytes_;
  }
  return *this;
}

void TraceLog::release_bytes() noexcept {
  for (util::SharedBytes::Handle h : bytes_) {
    if (h != nullptr) util::SharedBytes::release_handle(h);
  }
}

void TraceLog::attach(netsim::Network& net) {
  net.set_tap([this](const netsim::TapEvent& ev) { on_tap(ev); });
}

void TraceLog::index_record(netsim::NodeId node, std::size_t index) {
  if (node >= by_node_.size()) [[unlikely]] {
    const std::size_t old = by_node_.size();
    by_node_.resize(node + 1);
    for (std::size_t i = old; i < by_node_.size(); ++i)
      by_node_[i].set_arena(arena_.get());
  }
  by_node_[node].push_back(static_cast<std::uint32_t>(index));
}

void TraceLog::push_common(SimTime time, netsim::NodeId node,
                           netsim::IfaceIndex iface,
                           netsim::Direction direction, Ipv4Addr src,
                           Ipv4Addr dst, std::uint8_t protocol,
                           std::uint64_t frame_id, std::uint64_t caused_by,
                           int observer_state,
                           util::SharedBytes::Handle bytes) {
  const std::size_t idx = time_.size();
  time_.push_back(time);
  node_.push_back(node);
  iface_.push_back(iface);
  send_.push_back(direction == netsim::Direction::kSend ? 1 : 0);
  src_.push_back(src.value());
  dst_.push_back(dst.value());
  protocol_.push_back(protocol);
  frame_id_.push_back(frame_id);
  caused_by_.push_back(caused_by);
  observer_state_.push_back(observer_state);
  bytes_.push_back(bytes);
  index_record(node, idx);
}

template <typename T>
void TraceLog::push_pooled(DigestKind kind, util::ArenaVec<T>& pool,
                           const T& digest) {
  digest_ref_.push_back((kind << kDigestKindShift) |
                        static_cast<std::uint32_t>(pool.size()));
  pool.push_back(digest);
}

void TraceLog::append(const RecordView& record) {
  push_common(record.time, record.node, record.iface, record.direction,
              record.src, record.dst, record.protocol, record.frame_id,
              record.caused_by, record.observer_state,
              record.bytes.retain());
  if (record.ospf != nullptr) {
    OspfView v = *record.ospf;
    if (!v.lsas.empty()) {
      auto* slab = arena_->allocate_array<LsaDigest>(v.lsas.size());
      std::copy(v.lsas.begin(), v.lsas.end(), slab);
      v.lsas = {slab, v.lsas.size()};
    }
    push_pooled(kDigestOspf, ospf_pool_, v);
  } else if (record.rip != nullptr) {
    push_pooled(kDigestRip, rip_pool_, *record.rip);
  } else if (record.bgp != nullptr) {
    push_pooled(kDigestBgp, bgp_pool_, *record.bgp);
  } else {
    digest_ref_.push_back(kDigestNone);
  }
}

void TraceLog::push_wire_digest(std::uint8_t protocol,
                                std::span<const std::uint8_t> wire) {
  if (protocol == ospf::kIpProtoOspf) {
    if (fast_ospf_digest(wire)) return;
  } else if (protocol == 17) {  // UDP: the only UDP traffic we model is RIP
    if (fast_rip_digest(wire)) return;
  } else if (protocol == 6) {  // TCP: the only TCP traffic we model is BGP
    // BGP stays on the full decoder: TCP streams are low-volume and the
    // UPDATE digest needs parsed path attributes.
    auto decoded = bgp::decode(wire);
    if (decoded.ok()) {
      const auto& msg = decoded.value();
      BgpDigest d;
      d.msg_type = static_cast<std::uint8_t>(msg.type());
      if (const auto* update = std::get_if<bgp::UpdateMessage>(&msg.body)) {
        d.as_path_len = static_cast<std::uint32_t>(update->as_path.size());
        d.nlri_count = static_cast<std::uint16_t>(update->nlri.size());
        d.withdrawn_count =
            static_cast<std::uint16_t>(update->withdrawn.size());
      } else if (const auto* notif =
                     std::get_if<bgp::NotificationMessage>(&msg.body)) {
        d.error_code = notif->error_code;
      }
      push_pooled(kDigestBgp, bgp_pool_, d);
      return;
    }
  }
  digest_ref_.push_back(kDigestNone);
}

// Header-only OSPF digest: version/type/AuType checks, the §D.4 header
// checksum (MD5 framing for AuType 2), body shape per packet type, and the
// Fletcher checksum over each LSA's raw bytes for LSUs. It accepts every
// frame ospf::decode accepts, with the same digest, and rejects every frame
// decode rejects except two classes of LSU, which pass here:
//  * interior LSA body malformations behind a correct Fletcher sum, such as
//    a router-LSA link of type 9 or a link count above the links present
//    (decode: "bad router link type", "truncated router-LSA body");
//  * non-canonical encodings of otherwise valid bodies, such as a set
//    reserved or #TOS byte in a router-LSA, or bytes after its last link:
//    decode re-encodes the body, whose sum then no longer matches
//    ("bad LSA Fletcher checksum").
// The simulator's encoders produce neither, and load() gives such frames
// no digest. TraceEdge.TapDigestsMalformedLsaBodiesFullDecodeRejects pins
// both classes; TraceEdge.MutatedFramesDigestLikeFullDecode checks the
// rest.
bool TraceLog::fast_ospf_digest(std::span<const std::uint8_t> wire) {
  constexpr std::size_t kHdr = ospf::kOspfHeaderSize;    // 24
  constexpr std::size_t kLsaHdr = ospf::kLsaHeaderSize;  // 20
  if (wire.size() < kHdr) return false;
  const std::uint8_t* p = wire.data();
  if (p[0] != ospf::kOspfVersion) return false;
  const std::uint8_t type = p[1];
  if (type < 1 || type > 5) return false;
  const std::size_t length = be16(p + 2);
  if (length < kHdr) return false;
  const std::uint16_t au_type = be16(p + 14);
  if (au_type > 2) return false;
  if (au_type == 2) {
    // Cryptographic auth (§D.4.3): 16-byte digest trails the packet, the
    // length field excludes it, no standard checksum. Byte 19 is the
    // auth-data length.
    if (length + 16 != wire.size()) return false;
    if (p[19] != 16) return false;
  } else {
    if (length != wire.size()) return false;
    // §D.4: checksum covers the packet with the auth field (bytes 16..24)
    // excluded; summing around the hole avoids the copy decode makes.
    if (internet_checksum2(wire.first(16), wire.subspan(24, length - 24)) !=
        0)
      return false;
  }

  const std::uint8_t* body = p + kHdr;
  const std::size_t blen = length - kHdr;
  OspfView v;
  v.pkt_type = type;
  std::size_t lsa_count = 0;
  const std::uint8_t* headers = nullptr;  // dense LSA header array, if any

  switch (type) {
    case 1:  // Hello: 20-byte fixed part + 4-byte neighbor entries
      if (blen < 20 || (blen - 20) % 4 != 0) return false;
      break;
    case 2: {  // DBD: 8-byte fixed part + LSA header list
      if (blen < 8 || (blen - 8) % kLsaHdr != 0) return false;
      v.dbd_flags = body[3];
      headers = body + 8;
      lsa_count = (blen - 8) / kLsaHdr;
      break;
    }
    case 3:  // LSR: 12-byte request entries
      if (blen % 12 != 0) return false;
      for (std::size_t off = 0; off < blen; off += 12) {
        const std::uint32_t t = be32(body + off);
        if (t < 1 || t > 5) return false;
      }
      break;
    case 4: {  // LSU: count + variable-length LSAs
      if (blen < 4) return false;
      const std::uint32_t n = be32(body);
      std::size_t off = 4;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (blen - off < kLsaHdr) return false;
        const std::uint8_t* h = body + off;
        const std::uint8_t t = h[3];
        if (t < 1 || t > 5) return false;
        const std::size_t lsa_len = be16(h + 18);
        if (lsa_len < kLsaHdr || lsa_len > blen - off) return false;
        // §13 step 1: Fletcher over the LSA minus the LS age field.
        if (!fletcher_checksum_ok({h + 2, lsa_len - 2})) return false;
        off += lsa_len;
      }
      if (off != blen) return false;
      lsa_count = n;
      break;
    }
    case 5:  // LSAck: dense LSA header list
      if (blen % kLsaHdr != 0) return false;
      headers = body;
      lsa_count = blen / kLsaHdr;
      break;
  }

  if (headers != nullptr) {
    for (std::size_t i = 0; i < lsa_count; ++i) {
      const std::uint8_t t = headers[i * kLsaHdr + 3];
      if (t < 1 || t > 5) return false;
    }
  }

  if (lsa_count > 0) {
    auto* slab = arena_->allocate_array<LsaDigest>(lsa_count);
    if (headers != nullptr) {  // dense 20-byte headers (DBD, LSAck)
      for (std::size_t i = 0; i < lsa_count; ++i)
        slab[i] = lsa_digest_from_header(headers + i * kLsaHdr);
    } else {  // LSU: stride by each LSA's length field
      std::size_t off = 4;
      for (std::size_t i = 0; i < lsa_count; ++i) {
        const std::uint8_t* h = body + off;
        slab[i] = lsa_digest_from_header(h);
        off += be16(h + 18);
      }
    }
    v.lsas = {slab, lsa_count};
  }

  push_pooled(kDigestOspf, ospf_pool_, v);
  return true;
}

// Validation-equivalent to rip::decode (which the simulator's RIP frames
// always pass): header size, 20-byte entry grid, command/version ranges,
// per-entry metric range (AFI-0 entries exempt), 25-entry cap.
bool TraceLog::fast_rip_digest(std::span<const std::uint8_t> wire) {
  if (wire.size() < 4) return false;
  if ((wire.size() - 4) % 20 != 0) return false;
  const std::uint8_t* p = wire.data();
  const std::uint8_t cmd = p[0];
  if (cmd != 1 && cmd != 2) return false;
  const std::uint8_t version = p[1];
  if (version != 1 && version != rip::kRipVersion) return false;
  const std::size_t entries = (wire.size() - 4) / 20;
  if (entries > 25) return false;

  RipDigest d;
  d.command = cmd;
  d.entry_count = static_cast<std::uint16_t>(entries);
  std::uint16_t first_afi = 0xffff;
  std::uint32_t first_metric = 0;
  for (std::size_t i = 0; i < entries; ++i) {
    const std::uint8_t* e = p + 4 + i * 20;
    const std::uint16_t afi = be16(e);
    const std::uint32_t metric = be32(e + 16);
    if ((metric < 1 || metric > rip::kInfinityMetric) && afi != 0)
      return false;
    if (i == 0) {
      first_afi = afi;
      first_metric = metric;
    }
    d.max_metric = std::max(d.max_metric, metric);
  }
  d.full_table_request = cmd == 1 && entries == 1 && first_afi == 0 &&
                         first_metric == rip::kInfinityMetric;

  push_pooled(kDigestRip, rip_pool_, d);
  return true;
}

void TraceLog::on_tap(const netsim::TapEvent& ev) {
  const netsim::Frame& frame = *ev.frame;
  const int state = prober_ ? prober_(ev.node) : -1;
  // Sharing, not copying: the bytes column holds another reference to the
  // frame's payload cell.
  push_common(ev.time, ev.node, ev.iface, ev.direction, frame.src, frame.dst,
              frame.protocol, frame.id, frame.caused_by, state,
              keep_bytes_ ? frame.payload.retain() : nullptr);
  push_wire_digest(frame.protocol, frame.payload);
}

RecordView TraceLog::view(std::size_t i) const {
  RecordView v;
  v.time = time_[i];
  v.node = node_[i];
  v.iface = iface_[i];
  v.direction =
      send_[i] ? netsim::Direction::kSend : netsim::Direction::kRecv;
  v.src = Ipv4Addr{src_[i]};
  v.dst = Ipv4Addr{dst_[i]};
  v.protocol = protocol_[i];
  v.frame_id = frame_id_[i];
  v.caused_by = caused_by_[i];
  v.observer_state = observer_state_[i];
  v.bytes = util::SharedBytes::from_handle(bytes_[i]);
  const std::uint32_t ref = digest_ref_[i];
  const std::uint32_t idx = ref & kDigestIndexMask;
  switch (ref >> kDigestKindShift) {
    case kDigestOspf: v.ospf = &ospf_pool_[idx]; break;
    case kDigestRip: v.rip = &rip_pool_[idx]; break;
    case kDigestBgp: v.bgp = &bgp_pool_[idx]; break;
    default: break;
  }
  return v;
}

std::span<const std::uint32_t> TraceLog::node_records(
    netsim::NodeId node) const {
  return node < by_node_.size() ? by_node_[node].span()
                                : std::span<const std::uint32_t>{};
}

std::size_t TraceLog::observed_nodes() const {
  std::size_t n = 0;
  for (const auto& idx : by_node_)
    if (!idx.empty()) ++n;
  return n;
}

void TraceLog::clear() {
  release_bytes();
  time_.clear();
  node_.clear();
  iface_.clear();
  send_.clear();
  src_.clear();
  dst_.clear();
  protocol_.clear();
  frame_id_.clear();
  caused_by_.clear();
  observer_state_.clear();
  digest_ref_.clear();
  bytes_.clear();
  ospf_pool_.clear();
  rip_pool_.clear();
  bgp_pool_.clear();
  by_node_.clear();
  // One reset releases every column, pool, slab and index at once; the
  // chunks stay with the arena, so refilling reuses the same pages.
  arena_->reset();
}

void TraceLog::save(std::ostream& os) const {
  os << "nidkit-trace v1 " << size() << '\n';
  for (std::size_t i = 0; i < size(); ++i) {
    os << time_[i].count() << ' ' << node_[i] << ' ' << iface_[i] << ' '
       << (send_[i] ? 'S' : 'R') << ' ' << src_[i] << ' ' << dst_[i] << ' '
       << int(protocol_[i]) << ' ' << frame_id_[i] << ' ' << caused_by_[i]
       << ' ' << observer_state_[i] << ' ';
    static constexpr char kHexDigits[] = "0123456789abcdef";
    const auto bytes = util::SharedBytes::handle_span(bytes_[i]);
    if (bytes.empty()) os << '-';
    for (const auto b : bytes) os << kHexDigits[b >> 4] << kHexDigits[b & 0xf];
    os << '\n';
  }
}

Result<TraceLog> TraceLog::load(std::istream& is) {
  std::string magic, version;
  std::size_t count = 0;
  if (!(is >> magic >> version >> count) || magic != "nidkit-trace" ||
      version != "v1") {
    return fail("not a nidkit-trace v1 stream");
  }
  TraceLog log;
  for (std::size_t i = 0; i < count; ++i) {
    RecordView r;
    long long time_us = 0;
    char dir = 0;
    std::uint32_t src = 0, dst = 0;
    int protocol = 0;
    std::string hex;
    if (!(is >> time_us >> r.node >> r.iface >> dir >> src >> dst >>
          protocol >> r.frame_id >> r.caused_by >> r.observer_state >> hex)) {
      return fail("truncated trace at record " + std::to_string(i));
    }
    const auto bad = [i](const std::string& what) {
      return fail(what + " at record " + std::to_string(i));
    };
    if (dir != 'S' && dir != 'R') return bad("bad direction");
    // append()'s order: the miner's windows and the per-node index both
    // assume it, and a reordered trace would mine to nothing.
    r.time = SimTime{time_us};
    if (i > 0 && r.time < log.time_[i - 1])
      return bad("time earlier than the previous record's");
    // The per-node index holds one entry per id up to the largest.
    if (r.node >= kMaxNodes)
      return bad("node id " + std::to_string(r.node) + " out of range");
    if (protocol < 0 || protocol > 255)
      return bad("protocol " + std::to_string(protocol) + " out of range");
    // The state scheme labels any other value as a state no router has.
    if (r.observer_state < -1 || r.observer_state > kMaxObserverState)
      return bad("observer state " + std::to_string(r.observer_state) +
                 " out of range");
    r.direction = dir == 'S' ? netsim::Direction::kSend
                             : netsim::Direction::kRecv;
    r.src = Ipv4Addr{src};
    r.dst = Ipv4Addr{dst};
    r.protocol = static_cast<std::uint8_t>(protocol);
    if (hex != "-") {
      if (hex.size() % 2 != 0) return bad("ragged hex");
      auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      std::vector<std::uint8_t> bytes;
      bytes.reserve(hex.size() / 2);
      for (std::size_t k = 0; k < hex.size(); k += 2) {
        const int hi = nibble(hex[k]);
        const int lo = nibble(hex[k + 1]);
        if (hi < 0 || lo < 0) return bad("bad hex");
        bytes.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
      }
      r.bytes = util::SharedBytes(bytes);
    }
    log.push_common(r.time, r.node, r.iface, r.direction, r.src, r.dst,
                    r.protocol, r.frame_id, r.caused_by, r.observer_state,
                    r.bytes.retain());
    // A trace file may hold frames the tap's parsers accept but the full
    // decoders reject (see fast_ospf_digest); those get no digest.
    const bool decodes =
        r.protocol == ospf::kIpProtoOspf ? ospf::decode(r.bytes).ok()
        : r.protocol == 17               ? rip::decode(r.bytes).ok()
                                         : true;
    if (decodes)
      log.push_wire_digest(r.protocol, r.bytes);
    else
      log.digest_ref_.push_back(kDigestNone);
  }
  return log;
}

}  // namespace nidkit::trace
