// BGP-4 speaker (RFC 4271 subset) with pluggable AS_PATH-handling
// behaviour.
//
// This module exists to reproduce the paper's motivating example (§1): the
// 2009 global slowdown, where routes carrying an extremely long AS_PATH
// made one vendor's routers reset their sessions repeatedly while others
// carried the route without complaint. The two profiles model that split:
//
//   * bgp_robust_profile()  — accepts arbitrarily long (wire-valid) paths;
//   * bgp_fragile_profile() — treats paths longer than a limit as a
//     malformed-AS_PATH error: NOTIFICATION + session reset (and, because
//     the peer keeps re-advertising after re-establishment, a reset loop —
//     the incident's "repeated reboots").
//
// The causal miner then flags Rcv(UPDATE+longpath) → Snd(NOTIFICATION) as
// a fragile-only relationship: the paper's technique detecting the paper's
// own motivating bug.
//
// Sessions run over the simulator's reliable p2p links (TCP itself is not
// modeled; BGP assumes a reliable transport, so BGP scenarios run with
// zero frame loss).
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "netsim/network.hpp"
#include "packet/bgp_packet.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace nidkit::bgp {

using namespace std::chrono_literals;

/// IP protocol number used for BGP frames (TCP).
inline constexpr std::uint8_t kIpProtoTcp = 6;

struct BgpProfile {
  std::string name = "generic";
  SimDuration keepalive_interval = 30s;
  std::uint16_t hold_time = 90;  ///< seconds, advertised in OPEN
  SimDuration connect_retry = 20s;
  /// Minimum interval between UPDATE bursts to one peer (MRAI batching).
  SimDuration mrai = 200ms;
  /// AS_PATH acceptance limit: 0 = no limit (robust). A received UPDATE
  /// whose path exceeds the limit triggers NOTIFICATION (UPDATE error,
  /// malformed AS_PATH) and a session reset (fragile, incident-like).
  std::size_t as_path_accept_limit = 0;
};

/// Calls `f(knob)` on every field of `p`, in declaration order; like
/// ospf::visit_knobs, a field missing from the binding fails to compile.
template <typename P, typename F>
  requires std::same_as<std::remove_const_t<P>, BgpProfile>
void visit_knobs(P& p, F&& f) {
  auto& [name, keepalive_interval, hold_time, connect_retry, mrai,
         as_path_accept_limit] = p;
  [&](auto&... knob) { (f(knob), ...); }(name, keepalive_interval, hold_time,
                                          connect_retry, mrai,
                                          as_path_accept_limit);
}

BgpProfile bgp_robust_profile();
BgpProfile bgp_fragile_profile();

/// Session FSM states (RFC 4271 §8.2.2; Connect/Active are collapsed into
/// Idle since transport setup is immediate here).
enum class SessionState {
  kIdle = 0,
  kOpenSent = 1,
  kOpenConfirm = 2,
  kEstablished = 3,
};

std::string to_string(SessionState s);

struct BgpConfig {
  std::uint16_t as_number = 0;
  Ipv4Addr router_id;
  BgpProfile profile;
};

/// A route as learned from one peer.
struct AdjRibEntry {
  AsPath path;
  Ipv4Addr next_hop;
};

/// A selected (best) route.
struct BgpRoute {
  Prefix prefix;
  AsPath path;            ///< empty for locally originated prefixes
  Ipv4Addr via;           ///< next hop (0 for local)
  bool local = false;

  friend bool operator==(const BgpRoute&, const BgpRoute&) = default;
};

class BgpRouter {
 public:
  BgpRouter(netsim::Network& net, netsim::NodeId node, BgpConfig config,
            std::uint64_t seed);

  BgpRouter(const BgpRouter&) = delete;
  BgpRouter& operator=(const BgpRouter&) = delete;

  /// Opens a session on every interface (one eBGP peer per p2p link).
  void start();

  /// Originates `prefix` locally. `prepend` controls how many copies of
  /// the own AS the advertisement carries (traffic-engineering prepending;
  /// large values reproduce the 2009 long-path announcement).
  void originate(Prefix prefix, std::size_t prepend = 1);

  /// Withdraws a locally originated prefix.
  bool withdraw(Prefix prefix);

  const BgpConfig& config() const { return config_; }
  SessionState session_state(netsim::IfaceIndex iface) const;
  bool all_sessions_established() const;
  std::vector<BgpRoute> routes() const;

  struct Stats {
    std::uint64_t tx_open = 0, rx_open = 0;
    std::uint64_t tx_update = 0, rx_update = 0;
    std::uint64_t tx_keepalive = 0, rx_keepalive = 0;
    std::uint64_t tx_notification = 0, rx_notification = 0;
    std::uint64_t session_resets = 0;
    std::uint64_t loop_rejects = 0;
    std::uint64_t long_path_rejects = 0;
    std::uint64_t routes_selected = 0;
    /// Session FSM state changes (any `state` reassignment to a new value).
    std::uint64_t fsm_transitions = 0;
    /// Behavioral coverage mask (cov subsystem): bit from*8+to set for
    /// every session FSM edge taken.
    std::uint64_t fsm_edge_mask = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Peer {
    netsim::IfaceIndex iface = 0;
    Ipv4Addr address;  ///< far end of the p2p link
    SessionState state = SessionState::kIdle;
    std::uint16_t peer_as = 0;
    Ipv4Addr peer_id;
    std::map<Prefix, AdjRibEntry> adj_rib_in;
    std::set<Prefix> advertised;  ///< prefixes we announced (for withdraws)
    std::set<Prefix> pending;     ///< prefixes to (re)announce at next MRAI
    std::set<Prefix> pending_withdraw;
    netsim::TimerHandle keepalive_timer;
    netsim::TimerHandle hold_timer;
    netsim::TimerHandle retry_timer;
    netsim::TimerHandle mrai_timer;
    std::uint64_t mrai_cause = 0;
  };

  struct LocalRoute {
    std::size_t prepend = 1;
  };

  void on_frame(netsim::IfaceIndex iface, const netsim::Frame& frame);
  void open_session(Peer& peer);
  void handle_open(Peer& peer, const OpenMessage& open);
  void handle_keepalive(Peer& peer);
  void handle_update(Peer& peer, const UpdateMessage& update,
                     std::uint64_t frame_id);
  void handle_notification(Peer& peer, const NotificationMessage& notif);
  void session_established(Peer& peer);
  void reset_session(Peer& peer, bool send_cease);
  /// All session FSM transitions funnel through here so stats count them.
  void set_session_state(Peer& peer, SessionState to);
  void send_notification(Peer& peer, std::uint8_t code, std::uint8_t subcode,
                         std::uint64_t cause);
  void arm_keepalive(Peer& peer);
  void arm_hold(Peer& peer);
  void send_message(Peer& peer, MessageBody body, std::uint64_t cause);

  /// Re-runs best-path selection for `prefix`; queues advertisements and
  /// withdrawals on change.
  void decide(const Prefix& prefix, std::uint64_t cause);
  void schedule_advertisement(Peer& peer, std::uint64_t cause);
  void flush_advertisements(Peer& peer);
  /// The path this router advertises for `prefix` (own AS prepended), or
  /// nullopt if the prefix must not be advertised to `peer`.
  std::optional<AsPath> advertised_path(const Prefix& prefix,
                                        const Peer& peer) const;

  netsim::Network& net_;
  netsim::NodeId node_;
  BgpConfig config_;
  Rng rng_;
  std::vector<Peer> peers_;
  std::map<Prefix, LocalRoute> local_routes_;
  /// Best-path table: peer index (or kLocal) per prefix.
  static constexpr int kLocal = -1;
  std::map<Prefix, int> best_source_;
  std::uint64_t current_cause_ = 0;
  Stats stats_;
  bool started_ = false;
};

}  // namespace nidkit::bgp
