// OSPFv2 packet structures and wire codec (RFC 2328 appendix A).
//
// Every packet a simulated router sends is encoded to bytes through this
// codec, carried across the virtual network, and decoded by the receiver —
// exactly what the paper's capture-based pipeline observes. Checksums are
// real (RFC 1071 over the packet excluding the authentication field).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "packet/lsa.hpp"
#include "packet/ospf_types.hpp"
#include "util/bytes.hpp"
#include "util/ip.hpp"
#include "util/result.hpp"

namespace nidkit::ospf {

/// The 24-byte OSPF packet header (§A.3.1). Null (AuType 0) and simple
/// password (AuType 1, §D.4.2) authentication are modeled; the checksum
/// covers the packet excluding the 64-bit authentication field in both.
struct OspfHeader {
  std::uint8_t version = kOspfVersion;
  PacketType type = PacketType::kHello;
  std::uint16_t length = 0;  ///< filled by encode()
  RouterId router_id;
  AreaId area_id;
  std::uint16_t checksum = 0;  ///< filled by encode()
  std::uint16_t au_type = 0;  ///< 0 = null, 1 = simple password, 2 = MD5
  std::array<std::uint8_t, 8> auth{};  ///< password bytes for AuType 1

  // AuType 2 (cryptographic, §D.4.3) fields carried in the auth slot:
  std::uint8_t md5_key_id = 0;
  std::uint32_t md5_seq = 0;  ///< non-decreasing anti-replay sequence
};

/// Hello packet body (§A.3.2).
struct HelloBody {
  Ipv4Addr network_mask;
  std::uint16_t hello_interval = 10;  ///< seconds
  std::uint8_t options = kOptionE;
  std::uint8_t router_priority = 1;
  std::uint32_t dead_interval = 40;  ///< seconds
  Ipv4Addr designated_router;
  Ipv4Addr backup_designated_router;
  std::vector<RouterId> neighbors;  ///< recently seen neighbors

  friend bool operator==(const HelloBody&, const HelloBody&) = default;
};

/// Database Description body (§A.3.3).
struct DbdBody {
  std::uint16_t interface_mtu = 1500;
  std::uint8_t options = kOptionE;
  std::uint8_t flags = 0;  ///< I/M/MS
  std::uint32_t dd_sequence = 0;
  std::vector<LsaHeader> lsa_headers;

  bool init() const { return flags & kDbdFlagInit; }
  bool more() const { return flags & kDbdFlagMore; }
  bool master() const { return flags & kDbdFlagMs; }

  friend bool operator==(const DbdBody&, const DbdBody&) = default;
};

/// One Link State Request entry (§A.3.4).
struct LsRequestEntry {
  LsaType type = LsaType::kRouter;
  Ipv4Addr link_state_id;
  RouterId advertising_router;

  friend bool operator==(const LsRequestEntry&,
                         const LsRequestEntry&) = default;
};

struct LsRequestBody {
  std::vector<LsRequestEntry> requests;

  friend bool operator==(const LsRequestBody&,
                         const LsRequestBody&) = default;
};

/// Link State Update body (§A.3.5): full LSAs being flooded.
struct LsUpdateBody {
  std::vector<Lsa> lsas;

  friend bool operator==(const LsUpdateBody&, const LsUpdateBody&) = default;
};

/// Link State Acknowledgment body (§A.3.6): LSA headers being acked.
struct LsAckBody {
  std::vector<LsaHeader> lsa_headers;

  friend bool operator==(const LsAckBody&, const LsAckBody&) = default;
};

using PacketBody =
    std::variant<HelloBody, DbdBody, LsRequestBody, LsUpdateBody, LsAckBody>;

/// A complete OSPF packet. header.type must match the body alternative;
/// make_packet() enforces this.
struct OspfPacket {
  OspfHeader header;
  PacketBody body = HelloBody{};

  /// One-line human-readable summary for traces.
  std::string summary() const;
};

/// Builds a packet with a consistent header.type for the given body.
OspfPacket make_packet(RouterId router, AreaId area, PacketBody body);

/// Appends the wire form of `pkt` to `w`, computing length and checksum.
/// For AuType 0/1 only; AuType 2 packets need the key — use encode_md5.
/// A sender that clear()s and reuses one writer encodes without
/// allocating once the writer has grown to its largest packet.
void encode(const OspfPacket& pkt, ByteWriter& w);

/// The wire form of `pkt` as a fresh vector (tests, injection, tools).
std::vector<std::uint8_t> encode(const OspfPacket& pkt);

/// Appends the wire form of an AuType 2 packet (§D.4.3) to `w`: no
/// standard checksum, the auth slot carries (key id, digest length 16,
/// sequence number), and MD5(packet || key padded to 16 bytes) follows the
/// packet. header.au_type, md5_key_id and md5_seq must be set by the
/// caller.
void encode_md5(const OspfPacket& pkt, std::span<const std::uint8_t> key,
                ByteWriter& w);

/// Verifies the trailing digest of an AuType 2 wire packet against `key`.
bool verify_md5(std::span<const std::uint8_t> wire,
                std::span<const std::uint8_t> key);

/// Parses and validates wire bytes: version, type, length, header checksum
/// and per-LSA Fletcher checksums must all be correct.
Result<OspfPacket> decode(std::span<const std::uint8_t> wire);

/// The wire type of an encoded packet without full decoding (first bytes),
/// or 0 if the buffer is too short. Used by taps that only need the type.
std::uint8_t peek_type(std::span<const std::uint8_t> wire);

}  // namespace nidkit::ospf
