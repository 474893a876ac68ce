// Link State Advertisements: structures, wire codec, freshness ordering.
//
// LSAs are the unit of OSPF's link-state database. Their wire format
// (RFC 2328 §A.4) is the formally-specified part of the standard the
// paper's technique depends on; this codec implements it bit-exactly,
// including the Fletcher checksum over the age-less LSA.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "packet/ospf_types.hpp"
#include "util/bytes.hpp"
#include "util/ip.hpp"
#include "util/result.hpp"

namespace nidkit::ospf {

/// The 20-byte LSA header (§A.4.1). Uniquely identifies an LSA instance by
/// (type, link_state_id, advertising_router) + (seq, checksum, age).
struct LsaHeader {
  std::uint16_t age = 0;  ///< seconds since origination, capped at MaxAge
  std::uint8_t options = kOptionE;
  LsaType type = LsaType::kRouter;
  Ipv4Addr link_state_id;
  RouterId advertising_router;
  std::int32_t seq = kInitialSequenceNumber;
  std::uint16_t checksum = 0;
  std::uint16_t length = 0;  ///< total LSA length including header

  /// The database key (type, id, adv router) — identifies the LSA, not the
  /// instance.
  friend bool same_lsa(const LsaHeader& a, const LsaHeader& b) {
    return a.type == b.type && a.link_state_id == b.link_state_id &&
           a.advertising_router == b.advertising_router;
  }

  std::string to_string() const;

  friend bool operator==(const LsaHeader&, const LsaHeader&) = default;
};

/// The header codec, shared by whole LSAs and by the header lists of DBD
/// and LSAck packets. decode_lsa_header checks the type but not the length
/// field, which a listed header only quotes; Lsa::decode checks it too.
void encode_lsa_header(const LsaHeader& h, ByteWriter& w);
Result<LsaHeader> decode_lsa_header(ByteReader& r);

/// Router-LSA link descriptions (§A.4.2).
enum class RouterLinkType : std::uint8_t {
  kPointToPoint = 1,  ///< link_id = neighbor router id
  kTransit = 2,       ///< link_id = DR interface address
  kStub = 3,          ///< link_id = network number
  kVirtual = 4,
};

struct RouterLink {
  Ipv4Addr link_id;
  Ipv4Addr link_data;
  RouterLinkType type = RouterLinkType::kPointToPoint;
  std::uint16_t metric = 1;

  friend bool operator==(const RouterLink&, const RouterLink&) = default;
};

struct RouterLsaBody {
  std::uint8_t flags = 0;  ///< V/E/B bits
  std::vector<RouterLink> links;

  friend bool operator==(const RouterLsaBody&, const RouterLsaBody&) = default;
};

struct NetworkLsaBody {
  Ipv4Addr network_mask;
  std::vector<RouterId> attached_routers;

  friend bool operator==(const NetworkLsaBody&,
                         const NetworkLsaBody&) = default;
};

struct SummaryLsaBody {
  Ipv4Addr network_mask;
  std::uint32_t metric = 0;  ///< 24-bit on the wire

  friend bool operator==(const SummaryLsaBody&,
                         const SummaryLsaBody&) = default;
};

struct ExternalLsaBody {
  Ipv4Addr network_mask;
  bool type2 = true;  ///< E bit: type-2 external metric
  std::uint32_t metric = 1;
  Ipv4Addr forwarding_address;
  std::uint32_t external_route_tag = 0;

  friend bool operator==(const ExternalLsaBody&,
                         const ExternalLsaBody&) = default;
};

using LsaBody = std::variant<RouterLsaBody, NetworkLsaBody, SummaryLsaBody,
                             ExternalLsaBody>;

/// A complete LSA. `header.length` and `header.checksum` are recomputed by
/// finalize(); decoded LSAs carry the values observed on the wire.
struct Lsa {
  LsaHeader header;
  LsaBody body = RouterLsaBody{};

  /// Recomputes length and Fletcher checksum from the current body.
  /// Must be called after any mutation and before encoding.
  void finalize();

  /// Serializes to wire bytes (finalize() must have run or the LSA must be
  /// a faithfully decoded one).
  void encode(ByteWriter& w) const;

  /// Decodes one LSA. Verifies structural consistency; checksum validity
  /// is reported separately via checksum_ok so chaos tests can observe
  /// corrupted-but-parseable LSAs.
  static Result<Lsa> decode(ByteReader& r);

  /// Recomputes the Fletcher checksum and compares with header.checksum.
  bool checksum_ok() const;

  friend bool operator==(const Lsa&, const Lsa&) = default;
};

/// RFC 2328 §13.1: which instance is newer?
/// Returns >0 if `a` is newer, <0 if `b` is newer, 0 if the same instance.
int compare_instances(const LsaHeader& a, const LsaHeader& b);

}  // namespace nidkit::ospf
