// RIPv2 routing engine (RFC 2453 subset) with pluggable behaviour
// variants.
//
// RIP is the toolkit's second protocol under test: the causal-mining
// pipeline is protocol-agnostic, and running it over two RIP variants
// (classic vs eager) demonstrates that, exactly as the paper's motivation
// argues, discretionary behaviours — triggered-update suppression, split
// horizon flavour, responses to requests — surface as packet causal
// relationship discrepancies.
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "netsim/network.hpp"
#include "packet/rip_packet.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace nidkit::rip {

using namespace std::chrono_literals;

/// RIPv2 multicast group (224.0.0.9).
inline constexpr Ipv4Addr kRipMulticast{224, 0, 0, 9};

/// Discretionary behaviours of a RIP implementation.
struct RipProfile {
  std::string name = "generic";
  SimDuration update_interval = 30s;
  /// Uniform jitter applied to the periodic update timer (RFC suggests
  /// ±15%; implementations differ).
  SimDuration update_jitter = 5s;
  SimDuration route_timeout = 180s;
  SimDuration gc_interval = 120s;
  /// Poisoned reverse (advertise metric 16 back toward the next hop)
  /// instead of plain split horizon (omit the route entirely).
  bool poisoned_reverse = false;
  /// Emit triggered updates on route change.
  bool triggered_updates = true;
  /// Suppression delay before a triggered update goes out (§3.10.1 allows
  /// 1-5 s; eager implementations send almost immediately).
  SimDuration triggered_delay = 2s;
  /// Broadcast a whole-table Request at startup (§3.9.1).
  bool request_on_start = true;
  /// Answer a Request with a unicast Response to the asker (vs multicast).
  bool respond_unicast = true;
  /// Wire version for transmitted packets (1 or 2). Version 1 carries no
  /// subnet masks — receivers must infer classful masks (§3.4).
  std::uint8_t send_version = 2;
  /// Accept version-1 packets (the §4.6 compatibility switch). When off, a
  /// strict v2 router silently ignores v1 neighbors — the classic
  /// mixed-version interop failure.
  bool accept_v1 = false;
};

/// Calls `f(knob)` on every field of `p`, in declaration order; like
/// ospf::visit_knobs, a field missing from the binding fails to compile.
template <typename P, typename F>
  requires std::same_as<std::remove_const_t<P>, RipProfile>
void visit_knobs(P& p, F&& f) {
  auto& [name, update_interval, update_jitter, route_timeout, gc_interval,
         poisoned_reverse, triggered_updates, triggered_delay,
         request_on_start, respond_unicast, send_version, accept_v1] = p;
  [&](auto&... knob) { (f(knob), ...); }(
      name, update_interval, update_jitter, route_timeout, gc_interval,
      poisoned_reverse, triggered_updates, triggered_delay, request_on_start,
      respond_unicast, send_version, accept_v1);
}

/// Conservative, RFC-suggested-timers variant.
RipProfile rip_classic_profile();

/// Aggressive variant: near-immediate triggered updates, poisoned reverse.
RipProfile rip_eager_profile();

/// Legacy variant: speaks RIPv1 on the wire (no masks) and accepts both
/// versions, inferring classful masks from v1 entries.
RipProfile rip_v1_profile();

struct RipRoute {
  Ipv4Addr prefix;
  Ipv4Addr mask;
  std::uint32_t metric = kInfinityMetric;
  Ipv4Addr next_hop;                ///< 0 for directly connected
  netsim::IfaceIndex iface = 0;
  SimTime expires{0};               ///< route timeout deadline
  bool directly_connected = false;
  bool changed = false;             ///< pending triggered update

  friend bool operator==(const RipRoute&, const RipRoute&) = default;
};

class RipRouter {
 public:
  RipRouter(netsim::Network& net, netsim::NodeId node, RipProfile profile,
            std::uint64_t seed);

  RipRouter(const RipRouter&) = delete;
  RipRouter& operator=(const RipRouter&) = delete;

  /// Installs connected routes, optionally broadcasts the startup Request,
  /// and arms the periodic update timer.
  void start();

  const RipProfile& profile() const { return profile_; }
  std::vector<RipRoute> routes() const;

  /// Injects an additional prefix this router originates (static
  /// redistribution), triggering an update.
  void originate(Ipv4Addr prefix, Ipv4Addr mask, std::uint32_t metric = 1);

  struct Stats {
    std::uint64_t tx_requests = 0;
    std::uint64_t tx_responses = 0;
    std::uint64_t rx_requests = 0;
    std::uint64_t rx_responses = 0;
    std::uint64_t routes_learned = 0;
    std::uint64_t routes_expired = 0;
    std::uint64_t triggered = 0;
    std::uint64_t version_rejected = 0;  ///< v1 packets dropped by a strict v2 router
  };
  const Stats& stats() const { return stats_; }

 private:
  struct PrefixKey {
    std::uint32_t prefix;
    std::uint32_t mask;
    friend auto operator<=>(const PrefixKey&, const PrefixKey&) = default;
  };

  void on_frame(netsim::IfaceIndex iface, const netsim::Frame& frame);
  void handle_request(netsim::IfaceIndex iface, const RipPacket& pkt,
                      Ipv4Addr src);
  void handle_response(netsim::IfaceIndex iface, const RipPacket& pkt,
                       Ipv4Addr src);
  void periodic_update();
  void send_full_table(netsim::IfaceIndex iface, Ipv4Addr dst,
                       std::uint64_t cause);
  void schedule_triggered();
  void send_triggered();
  void route_changed(RipRoute& route);
  void expire_routes();
  /// Builds the response(s) for one interface, split into as many packets
  /// as the §3.6 25-entry cap requires.
  std::vector<RipPacket> build_responses(netsim::IfaceIndex iface,
                                         bool changed_only) const;
  void send_packet(netsim::IfaceIndex iface, const RipPacket& pkt,
                   Ipv4Addr dst, std::uint64_t cause);
  void arm_update_timer();

  netsim::Network& net_;
  netsim::NodeId node_;
  RipProfile profile_;
  Rng rng_;
  std::map<PrefixKey, RipRoute> table_;
  netsim::TimerHandle update_timer_;
  netsim::TimerHandle triggered_timer_;
  netsim::TimerHandle expiry_timer_;
  bool triggered_pending_ = false;
  std::uint64_t triggered_cause_ = 0;
  std::uint64_t current_cause_ = 0;
  Stats stats_;
};

}  // namespace nidkit::rip
