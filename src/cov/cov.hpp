// Deterministic behavioral coverage vocabulary (nidkit::cov).
//
// A scenario run does not just produce mined relations and metrics — it
// *exercises* a set of behaviors: neighbor/session FSM transition edges,
// stimulus→response packet-kind pairs, retransmission and DR-election
// paths, LSA lifecycle events, chaos-event classes. Each such behavior is
// a FeatureId; the set a scenario exercised is its CoverageVector. The
// fan-out layer folds vectors into the run's obs::RunRecord in canonical
// scenario-index order (the same discipline as its metric counters and
// RelationSet merges), so the accumulated seen set, per-scenario novelty
// scores and saturation curve are bit-identical across --jobs 1/8 and
// cache cold/warm. Cached entries carry their vector and replay it on
// hits instead of re-simulating.
//
// Cost model: collection is always on — the hooks are plain integer ORs
// at existing stat-bump choke points plus one end-of-run pass, nothing
// per-event — so cache entries never depend on a reporting flag, and a
// run without a record simply folds nothing.
//
// Layering: cov sits below obs and the protocol engines. The feature
// universe (state counts, packet-kind counts) is therefore declared here
// as plain constants; the hook-coverage guard test links everything and
// asserts these tables match the real enums, so a new FSM state cannot
// silently fall outside the declared universe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nidkit::cov {

/// A behavioral feature: top byte = class, low 24 bits = class-specific
/// payload. Stable across runs and builds — FeatureIds are cached.
using FeatureId = std::uint32_t;

enum class FeatureClass : std::uint8_t {
  kFsmEdge = 1,       ///< proto<<16 | from_state<<8 | to_state
  kPacketPair = 2,    ///< proto<<16 | rcv_kind<<8 | snd_kind
  kPathMarker = 3,    ///< proto<<16 | marker id
  kLsaLifecycle = 4,  ///< lifecycle event id
  kChaos = 5,         ///< chaos-event class id
};

/// Every feature class with its short report name, in report order.
inline constexpr struct {
  FeatureClass cls;
  const char* name;
} kClasses[] = {
    {FeatureClass::kFsmEdge, "fsm"},      {FeatureClass::kPacketPair, "pair"},
    {FeatureClass::kPathMarker, "path"},  {FeatureClass::kLsaLifecycle, "lsa"},
    {FeatureClass::kChaos, "chaos"},
};

enum class Proto : std::uint8_t { kOspf = 1, kRip = 2, kBgp = 3 };

// ---- Declared feature universe ----
//
// Per-protocol FSM state and packet-kind counts. These mirror (but do not
// include) the protocol engines' enums; hook_guard_test pins them to the
// real definitions enumerator by enumerator.
inline constexpr unsigned kOspfFsmStates = 7;  ///< ospf::NeighborState
inline constexpr unsigned kBgpFsmStates = 4;   ///< bgp::SessionState
inline constexpr unsigned kRipFsmStates = 0;   ///< RIP has no peer FSM
/// Wire packet kinds, 1-based: OSPF packet types 1..5, RIP commands 1..2,
/// BGP message types 1..4.
inline constexpr unsigned kOspfPacketKinds = 5;
inline constexpr unsigned kRipPacketKinds = 2;
inline constexpr unsigned kBgpPacketKinds = 4;

/// Path markers: protocol machinery a scenario drove at least once.
enum class OspfMarker : std::uint8_t {
  kRetransmission = 1,  ///< LSU retransmission fired
  kDuplicateLsa = 2,    ///< duplicate LSA instance received
  kStaleLsa = 3,        ///< older LSA instance received
  kDrRole = 4,          ///< some interface held the DR role
  kBdrRole = 5,         ///< some interface held the Backup role
  kDrOtherRole = 6,     ///< some interface settled as DROther
};
enum class BgpMarker : std::uint8_t {
  kSessionReset = 1,
  kLoopReject = 2,
  kLongPathReject = 3,
};
enum class RipMarker : std::uint8_t {
  kTriggeredUpdate = 1,
  kRouteExpired = 2,
  kVersionRejected = 3,
};
inline constexpr unsigned kOspfMarkers = 6;
inline constexpr unsigned kBgpMarkers = 3;
inline constexpr unsigned kRipMarkers = 3;

/// LSA lifecycle events (OSPF-only class).
enum class LsaEvent : std::uint8_t {
  kOriginate = 1,    ///< a self-origination happened
  kRefresh = 2,      ///< an LSRefreshTime re-origination happened
  kMaxAgeFlush = 3,  ///< a MaxAge instance left a database
};
inline constexpr unsigned kLsaEvents = 3;

/// Chaos-event classes that actually fired (not merely configured —
/// except delay/jitter/churn, which fire by construction when non-zero).
enum class ChaosClass : std::uint8_t {
  kDelay = 1,      ///< non-zero TDelay injected
  kJitter = 2,     ///< non-zero link jitter injected
  kLoss = 3,       ///< at least one frame dropped by loss
  kDuplicate = 4,  ///< at least one frame duplicated
  kReorder = 5,    ///< at least one frame reorder-delayed
  kChurn = 6,      ///< the churn workload ran
};
inline constexpr unsigned kChaosClasses = 6;

// ---- FeatureId constructors ----

constexpr FeatureId make_feature(FeatureClass cls, std::uint32_t payload) {
  return static_cast<std::uint32_t>(cls) << 24 | (payload & 0xFFFFFF);
}
constexpr FeatureId fsm_edge(Proto p, unsigned from, unsigned to) {
  return make_feature(FeatureClass::kFsmEdge,
                      static_cast<std::uint32_t>(p) << 16 | from << 8 | to);
}
constexpr FeatureId packet_pair(Proto p, unsigned rcv, unsigned snd) {
  return make_feature(FeatureClass::kPacketPair,
                      static_cast<std::uint32_t>(p) << 16 | rcv << 8 | snd);
}
constexpr FeatureId path_marker(Proto p, unsigned marker) {
  return make_feature(FeatureClass::kPathMarker,
                      static_cast<std::uint32_t>(p) << 16 | marker);
}
constexpr FeatureId path_marker(OspfMarker m) {
  return path_marker(Proto::kOspf, static_cast<unsigned>(m));
}
constexpr FeatureId path_marker(BgpMarker m) {
  return path_marker(Proto::kBgp, static_cast<unsigned>(m));
}
constexpr FeatureId path_marker(RipMarker m) {
  return path_marker(Proto::kRip, static_cast<unsigned>(m));
}
constexpr FeatureId lsa_lifecycle(LsaEvent event) {
  return make_feature(FeatureClass::kLsaLifecycle,
                      static_cast<std::uint32_t>(event));
}
constexpr FeatureId chaos(ChaosClass cls) {
  return make_feature(FeatureClass::kChaos, static_cast<std::uint32_t>(cls));
}

constexpr FeatureClass feature_class(FeatureId id) {
  return static_cast<FeatureClass>(id >> 24);
}

/// Number of FSM states / packet kinds the universe declares for `p`.
unsigned fsm_state_count(Proto p);
unsigned packet_kind_count(Proto p);

/// True when `id` lies inside the declared universe — a well-formed class
/// with in-range protocol, states, kinds and event ids. Every feature a
/// scenario records must be declared (hook_guard_test enforces it).
bool declared(FeatureId id);

/// Stable human-readable name, e.g. "fsm.ospf.ExStart>Exchange",
/// "pair.bgp.Update>Notification", "path.ospf.retransmission",
/// "lsa.refresh", "chaos.loss". Empty for undeclared ids.
std::string feature_name(FeatureId id);

/// Declared universe sizes (for saturation reporting). FSM edges count
/// from != to only — set_*_state early-returns on self-transitions.
std::uint64_t universe_size(FeatureClass cls);
std::uint64_t universe_size();  ///< total over all classes

/// Canonical per-scenario feature set: sorted unique FeatureIds.
/// Deterministic in the scenario, cached alongside the metrics delta and
/// replayed on cache hits.
class CoverageVector {
 public:
  /// Collects a feature (duplicates welcome; finalize() dedups).
  void add(FeatureId id) { ids_.push_back(id); }

  /// Sorts and dedups — the canonical form every consumer (codec, merge,
  /// equality) expects. Idempotent.
  void finalize();

  void reserve(std::size_t n) { ids_.reserve(n); }
  const std::vector<FeatureId>& ids() const { return ids_; }
  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  friend bool operator==(const CoverageVector&,
                         const CoverageVector&) = default;

 private:
  std::vector<FeatureId> ids_;
};

}  // namespace nidkit::cov
