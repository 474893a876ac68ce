#include "cov/cov.hpp"

#include <algorithm>

namespace nidkit::cov {

namespace {

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::kOspf:
      return "ospf";
    case Proto::kRip:
      return "rip";
    case Proto::kBgp:
      return "bgp";
  }
  return "";
}

// FSM state names, by protocol, matching the engines' to_string spellings.
const char* fsm_state_name(Proto p, unsigned s) {
  static const char* const kOspf[kOspfFsmStates] = {
      "Down", "Init", "TwoWay", "ExStart", "Exchange", "Loading", "Full"};
  static const char* const kBgp[kBgpFsmStates] = {"Idle", "OpenSent",
                                                  "OpenConfirm", "Established"};
  if (p == Proto::kOspf && s < kOspfFsmStates) return kOspf[s];
  if (p == Proto::kBgp && s < kBgpFsmStates) return kBgp[s];
  return "";
}

// Wire packet-kind names, 1-based (packet type / command / message type).
const char* packet_kind_name(Proto p, unsigned k) {
  static const char* const kOspf[kOspfPacketKinds] = {
      "Hello", "Dbd", "LsRequest", "LsUpdate", "LsAck"};
  static const char* const kRip[kRipPacketKinds] = {"Request", "Response"};
  static const char* const kBgp[kBgpPacketKinds] = {"Open", "Update",
                                                    "Notification", "Keepalive"};
  if (k == 0) return "";
  if (p == Proto::kOspf && k <= kOspfPacketKinds) return kOspf[k - 1];
  if (p == Proto::kRip && k <= kRipPacketKinds) return kRip[k - 1];
  if (p == Proto::kBgp && k <= kBgpPacketKinds) return kBgp[k - 1];
  return "";
}

unsigned marker_count(Proto p) {
  switch (p) {
    case Proto::kOspf:
      return kOspfMarkers;
    case Proto::kRip:
      return kRipMarkers;
    case Proto::kBgp:
      return kBgpMarkers;
  }
  return 0;
}

const char* marker_name(Proto p, unsigned m) {
  static const char* const kOspf[kOspfMarkers] = {
      "retransmission", "duplicate_lsa", "stale_lsa",
      "dr_role",        "bdr_role",      "drother_role"};
  static const char* const kBgp[kBgpMarkers] = {"session_reset", "loop_reject",
                                                "long_path_reject"};
  static const char* const kRip[kRipMarkers] = {"triggered_update",
                                                "route_expired",
                                                "version_rejected"};
  if (m == 0) return "";
  if (p == Proto::kOspf && m <= kOspfMarkers) return kOspf[m - 1];
  if (p == Proto::kBgp && m <= kBgpMarkers) return kBgp[m - 1];
  if (p == Proto::kRip && m <= kRipMarkers) return kRip[m - 1];
  return "";
}

const char* lsa_event_name(unsigned e) {
  static const char* const kNames[kLsaEvents] = {"originate", "refresh",
                                                 "maxage_flush"};
  return e >= 1 && e <= kLsaEvents ? kNames[e - 1] : "";
}

const char* chaos_class_name(unsigned c) {
  static const char* const kNames[kChaosClasses] = {
      "delay", "jitter", "loss", "duplicate", "reorder", "churn"};
  return c >= 1 && c <= kChaosClasses ? kNames[c - 1] : "";
}

bool valid_proto(unsigned p) {
  return p >= 1 && p <= static_cast<unsigned>(Proto::kBgp);
}

}  // namespace

unsigned fsm_state_count(Proto p) {
  switch (p) {
    case Proto::kOspf:
      return kOspfFsmStates;
    case Proto::kRip:
      return kRipFsmStates;
    case Proto::kBgp:
      return kBgpFsmStates;
  }
  return 0;
}

unsigned packet_kind_count(Proto p) {
  switch (p) {
    case Proto::kOspf:
      return kOspfPacketKinds;
    case Proto::kRip:
      return kRipPacketKinds;
    case Proto::kBgp:
      return kBgpPacketKinds;
  }
  return 0;
}

bool declared(FeatureId id) {
  const std::uint32_t payload = id & 0xFFFFFF;
  const unsigned proto = payload >> 16 & 0xFF;
  const unsigned hi = payload >> 8 & 0xFF;
  const unsigned lo = payload & 0xFF;
  switch (feature_class(id)) {
    case FeatureClass::kFsmEdge: {
      if (!valid_proto(proto)) return false;
      const unsigned states = fsm_state_count(static_cast<Proto>(proto));
      return hi < states && lo < states && hi != lo;
    }
    case FeatureClass::kPacketPair: {
      if (!valid_proto(proto)) return false;
      const unsigned kinds = packet_kind_count(static_cast<Proto>(proto));
      return hi >= 1 && hi <= kinds && lo >= 1 && lo <= kinds;
    }
    case FeatureClass::kPathMarker:
      return valid_proto(proto) && hi == 0 && lo >= 1 &&
             lo <= marker_count(static_cast<Proto>(proto));
    case FeatureClass::kLsaLifecycle:
      return proto == 0 && hi == 0 && lo >= 1 && lo <= kLsaEvents;
    case FeatureClass::kChaos:
      return proto == 0 && hi == 0 && lo >= 1 && lo <= kChaosClasses;
  }
  return false;
}

std::string feature_name(FeatureId id) {
  if (!declared(id)) return "";
  const std::uint32_t payload = id & 0xFFFFFF;
  const auto proto = static_cast<Proto>(payload >> 16 & 0xFF);
  const unsigned hi = payload >> 8 & 0xFF;
  const unsigned lo = payload & 0xFF;
  std::string name;
  switch (feature_class(id)) {
    case FeatureClass::kFsmEdge:
      name = "fsm.";
      name += proto_name(proto);
      name += '.';
      name += fsm_state_name(proto, hi);
      name += '>';
      name += fsm_state_name(proto, lo);
      break;
    case FeatureClass::kPacketPair:
      name = "pair.";
      name += proto_name(proto);
      name += '.';
      name += packet_kind_name(proto, hi);
      name += '>';
      name += packet_kind_name(proto, lo);
      break;
    case FeatureClass::kPathMarker:
      name = "path.";
      name += proto_name(proto);
      name += '.';
      name += marker_name(proto, lo);
      break;
    case FeatureClass::kLsaLifecycle:
      name = "lsa.";
      name += lsa_event_name(lo);
      break;
    case FeatureClass::kChaos:
      name = "chaos.";
      name += chaos_class_name(lo);
      break;
  }
  return name;
}

std::uint64_t universe_size(FeatureClass cls) {
  auto edges = [](unsigned states) -> std::uint64_t {
    return states == 0 ? 0 : std::uint64_t{states} * (states - 1);
  };
  auto square = [](unsigned kinds) -> std::uint64_t {
    return std::uint64_t{kinds} * kinds;
  };
  switch (cls) {
    case FeatureClass::kFsmEdge:
      return edges(kOspfFsmStates) + edges(kRipFsmStates) +
             edges(kBgpFsmStates);
    case FeatureClass::kPacketPair:
      return square(kOspfPacketKinds) + square(kRipPacketKinds) +
             square(kBgpPacketKinds);
    case FeatureClass::kPathMarker:
      return kOspfMarkers + kRipMarkers + kBgpMarkers;
    case FeatureClass::kLsaLifecycle:
      return kLsaEvents;
    case FeatureClass::kChaos:
      return kChaosClasses;
  }
  return 0;
}

std::uint64_t universe_size() {
  std::uint64_t total = 0;
  for (const auto& row : kClasses) total += universe_size(row.cls);
  return total;
}

void CoverageVector::finalize() {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

}  // namespace nidkit::cov
