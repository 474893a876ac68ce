// Router configuration and implementation behaviour profiles.
//
// The RFC leaves many behaviours to the implementer's discretion: when to
// send an extra Hello, whether to acknowledge immediately or batch, when to
// issue Link State Requests, how to acknowledge an LSA it has a newer copy
// of. Real daemons answer these differently — that is precisely the source
// of the non-interoperabilities the paper detects. BehaviorProfile gathers
// every such discretionary choice into one documented struct; the engine
// consults it at each decision point. frr_profile() and bird_profile()
// return knob settings modeled on the two daemons the paper evaluates.
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>

#include "util/ip.hpp"
#include "util/time.hpp"

namespace nidkit::ospf {

using namespace std::chrono_literals;

/// Discretionary behaviours of an OSPF implementation.
struct BehaviorProfile {
  std::string name = "generic";

  // ---- Hello protocol ----
  /// Send a Hello immediately when a neighbor is first heard (speeds up
  /// bidirectional discovery; FRR does, BIRD waits for its timer).
  bool immediate_hello_on_discovery = true;
  /// Send a Hello immediately when two-way connectivity is established.
  bool immediate_hello_on_two_way = true;
  /// Uniform jitter applied to each hello timer arming (0 = none).
  SimDuration hello_jitter = 100ms;

  // ---- Acknowledgment strategy ----
  /// Delay before a batched (delayed) LSAck is flushed. 0 = acknowledge
  /// every installed LSA immediately with a direct ack.
  SimDuration delayed_ack_delay = 1s;
  /// When acknowledging, copy the header from our database copy (BIRD-like)
  /// rather than from the LSA instance received on the wire (FRR-like).
  /// With a newer copy in the database this produces LSAcks carrying a
  /// *greater* LS sequence number than the packet they acknowledge — the
  /// discrepancy the paper's Table 2 flags.
  bool ack_from_database = false;
  /// Send an immediate direct ack for duplicate LSAs received outside the
  /// retransmission flow (RFC table 19 "direct ack" row).
  bool direct_ack_duplicates = true;

  // ---- Database exchange ----
  /// Reject DBD packets advertising an MTU larger than our own (§10.6).
  /// The RFC mandates the check, and mismatched MTUs wedging adjacencies
  /// in ExStart is one of the most common real OSPF interop failures;
  /// setting this false models `ip ospf mtu-ignore`.
  bool check_mtu = true;
  /// Issue an LSR as soon as a DBD reveals missing LSAs (FRR) instead of
  /// batching all requests until the exchange finishes (BIRD).
  bool lsr_per_dbd = true;
  std::size_t lsr_max_entries = 60;
  std::size_t dbd_max_headers = 40;

  // ---- Flooding ----
  std::size_t lsu_max_lsas = 16;
  /// Delay between queuing an LSA for flooding and transmitting the LSU
  /// (batches back-to-back changes into one packet).
  SimDuration flood_pacing = 30ms;
  /// On receiving an LSA older than the database copy, respond with a
  /// direct LSU carrying the newer copy (RFC §13 step 8, FRR-like).
  bool respond_stale_with_newer = true;
  /// Alternative stale handling (BIRD-like): acknowledge the stale update
  /// with the *database copy's* header instead of sending the newer LSA.
  /// The stale sender observes an LSAck carrying a greater LS sequence
  /// number than the update it sent — the paper's Table 2 discrepancy.
  /// Takes precedence over respond_stale_with_newer when set.
  bool ack_stale_from_database = false;
  /// Minimum interval between accepting new instances of one LSA
  /// (MinLSArrival, §13 step 5a).
  SimDuration min_ls_arrival = 1s;
  /// Retransmission interval for un-acked LSAs, DBDs and LSRs.
  SimDuration rxmt_interval = 5s;

  // ---- Origination ----
  /// Re-originate self LSAs with an incremented sequence number at this
  /// period (LSRefreshTime is 30 min in the RFC; scenarios shorten it so
  /// greater-LS-SN behaviour appears within a short run).
  SimDuration lsa_refresh_interval = 30min;
  /// Minimum interval between originations of the same LSA (MinLSInterval).
  SimDuration min_ls_interval = 5s;
};

/// Calls `f(knob)` on every field of `p`, in declaration order. The
/// binding names each field, so a field added above fails to compile until
/// it is listed here. The result cache's key hashes this list and its test
/// perturbs each entry.
template <typename P, typename F>
  requires std::same_as<std::remove_const_t<P>, BehaviorProfile>
void visit_knobs(P& p, F&& f) {
  auto& [name, immediate_hello_on_discovery, immediate_hello_on_two_way,
         hello_jitter, delayed_ack_delay, ack_from_database,
         direct_ack_duplicates, check_mtu, lsr_per_dbd, lsr_max_entries,
         dbd_max_headers, lsu_max_lsas, flood_pacing,
         respond_stale_with_newer, ack_stale_from_database, min_ls_arrival,
         rxmt_interval, lsa_refresh_interval, min_ls_interval] = p;
  [&](auto&... knob) { (f(knob), ...); }(
      name, immediate_hello_on_discovery, immediate_hello_on_two_way,
      hello_jitter, delayed_ack_delay, ack_from_database,
      direct_ack_duplicates, check_mtu, lsr_per_dbd, lsr_max_entries,
      dbd_max_headers, lsu_max_lsas, flood_pacing, respond_stale_with_newer,
      ack_stale_from_database, min_ls_arrival, rxmt_interval,
      lsa_refresh_interval, min_ls_interval);
}

/// Knob settings modeled on FRRouting's ospfd.
BehaviorProfile frr_profile();

/// Knob settings modeled on BIRD's OSPF implementation.
BehaviorProfile bird_profile();

/// A deliberately RFC-literal profile (useful as a third comparator).
BehaviorProfile strict_profile();

/// Per-router configuration.
struct RouterConfig {
  RouterId router_id;
  AreaId area = kBackboneArea;
  SimDuration hello_interval = 10s;
  SimDuration dead_interval = 40s;
  std::uint8_t priority = 1;
  std::uint16_t mtu = 1500;
  /// Simple-password authentication (§D.4.2). Empty = null authentication
  /// (AuType 0). Non-empty = AuType 1 with the first 8 bytes as the key;
  /// received packets whose AuType or key differs are dropped — mismatched
  /// keys silently prevent adjacencies, another classic field failure.
  std::string auth_password;
  /// Cryptographic authentication (§D.4.3). Non-empty = AuType 2: every
  /// packet carries a non-decreasing sequence number and a trailing
  /// MD5(packet || key) digest; receivers verify the digest, the key id
  /// and replay order. Takes precedence over auth_password.
  std::string md5_key;
  std::uint8_t md5_key_id = 1;
  /// Output cost advertised for every interface unless overridden.
  std::uint16_t default_cost = 1;
  /// Per-interface cost overrides (key: netsim interface index).
  std::map<std::uint32_t, std::uint16_t> interface_costs;
  BehaviorProfile profile;

  std::uint16_t cost_of(std::uint32_t iface_index) const {
    auto it = interface_costs.find(iface_index);
    return it == interface_costs.end() ? default_cost : it->second;
  }
};

}  // namespace nidkit::ospf
