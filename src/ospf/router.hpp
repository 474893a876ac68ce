// The OSPFv2 protocol engine.
//
// One Router instance is the simulator's stand-in for an ospfd/bird daemon:
// it speaks the real wire format over the virtual network, runs the RFC
// 2328 state machines (interface §9, neighbor §10, flooding §13, DR
// election §9.4, SPF §16), and consults its BehaviorProfile at every
// discretionary decision point. Two Routers with different profiles are
// the paper's "different implementations of the same protocol".
//
// Implementation files:
//   router.cpp    — lifecycle, hello protocol, DR election, dispatch
//   exchange.cpp  — database description / request handling (§10.6-10.8)
//   flooding.cpp  — LSU/LSAck handling, retransmission (§13)
//   origination.cpp — self LSA origination and refresh (§12.4)
//   spf.cpp       — shortest-path-first route computation (§16)
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "netsim/network.hpp"
#include "ospf/config.hpp"
#include "ospf/lsdb.hpp"
#include "ospf/spf.hpp"
#include "packet/ospf_packet.hpp"
#include "util/rng.hpp"

namespace nidkit::ospf {

/// Neighbor FSM states (§10.1). Attempt is NBMA-only and not modeled.
enum class NeighborState {
  kDown = 0,
  kInit = 1,
  kTwoWay = 2,
  kExStart = 3,
  kExchange = 4,
  kLoading = 5,
  kFull = 6,
};

std::string to_string(NeighborState s);

/// Interface FSM states (§9.1). Loopback is not modeled.
enum class InterfaceState {
  kDown = 0,
  kPointToPoint = 1,
  kWaiting = 2,
  kDrOther = 3,
  kBackup = 4,
  kDr = 5,
};

std::string to_string(InterfaceState s);

/// An entry in a neighbor's link-state retransmission list: the instance
/// we flooded and are awaiting an ack for.
struct RetransmitEntry {
  LsaHeader sent_instance;
  SimTime queued_at{0};
};

/// Per-neighbor protocol state (§10).
struct Neighbor {
  RouterId id;
  Ipv4Addr address;  ///< neighbor's interface address (hello source)
  std::uint8_t priority = 1;
  NeighborState state = NeighborState::kDown;
  Ipv4Addr dr;   ///< DR as claimed in the neighbor's hellos
  Ipv4Addr bdr;  ///< BDR as claimed in the neighbor's hellos

  // Database exchange (§10.8)
  bool we_are_master = false;
  std::uint32_t dd_sequence = 0;
  bool last_rx_dbd_valid = false;
  std::uint8_t last_rx_dbd_flags = 0;
  std::uint32_t last_rx_dbd_seq = 0;
  DbdBody last_tx_dbd;  ///< retransmitted by master on timeout / slave on dup
  bool exchange_more_to_send = false;
  std::vector<LsaHeader> db_summary;  ///< headers still to advertise in DBDs

  /// LSAs we must request (link-state request list, §10.9).
  std::map<LsaKey, LsaHeader> ls_requests;
  /// Requests currently on the wire awaiting an LSU.
  std::vector<LsRequestEntry> outstanding_requests;

  /// Link-state retransmission list (§10.9).
  std::map<LsaKey, RetransmitEntry> retransmit;

  netsim::TimerHandle inactivity_timer;
  netsim::TimerHandle dbd_rxmt_timer;
  netsim::TimerHandle lsr_rxmt_timer;
  netsim::TimerHandle lsu_rxmt_timer;
};

/// Per-interface protocol state (§9).
struct OspfInterface {
  netsim::IfaceIndex index = 0;
  bool is_lan = false;
  InterfaceState state = InterfaceState::kDown;
  Ipv4Addr address;
  Ipv4Addr mask;
  Ipv4Addr dr;
  Ipv4Addr bdr;
  std::map<RouterId, Neighbor> neighbors;

  netsim::TimerHandle hello_timer;
  netsim::TimerHandle wait_timer;

  /// Delayed-ack queue: headers to acknowledge + the frame id of the LSU
  /// that triggered each (provenance for the eventual LSAck).
  std::vector<std::pair<LsaHeader, std::uint64_t>> pending_acks;
  netsim::TimerHandle ack_timer;

  /// Flood queue: LSAs queued for the next paced LSU out this interface.
  std::vector<std::pair<LsaKey, std::uint64_t>> flood_queue;
  netsim::TimerHandle flood_timer;
};

class Router {
 public:
  /// Binds the engine to `node` of `net`. Call start() to bring the
  /// protocol up. The Router registers itself as the node's receive
  /// handler; one Router per node.
  Router(netsim::Network& net, netsim::NodeId node, RouterConfig config,
         std::uint64_t seed);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Brings all interfaces up: InterfaceUp events, first hellos, router-LSA
  /// origination.
  void start();

  /// Simulates a daemon crash: all timers stop, incoming frames are
  /// ignored, nothing further is transmitted. Neighbors discover the death
  /// through their RouterDeadInterval. A stopped router cannot be
  /// restarted.
  void stop();

  // ---- Introspection (used by tests, the harness and the state prober) --
  const RouterConfig& config() const { return config_; }
  RouterId id() const { return config_.router_id; }
  const Lsdb& lsdb() const { return lsdb_; }
  const std::vector<OspfInterface>& interfaces() const { return ifaces_; }

  /// FSM state toward `neighbor`, over all interfaces (kDown if unknown).
  NeighborState neighbor_state(RouterId neighbor) const;

  /// Highest neighbor FSM state on the router, encoded as int (the trace
  /// state-prober's label). -1 when the router has no neighbors yet.
  int max_neighbor_state() const;

  /// True when the router has `expected` fully adjacent neighbors.
  bool full_adjacencies(std::size_t expected) const;

  /// SPF result over the current LSDB, memoized by LSDB content version
  /// and age-validity horizon: repeated probes between LSDB changes return
  /// the cached table without recomputing. The reference is valid until
  /// the next routes() call after an LSDB change.
  const std::vector<Route>& routes() const {
    return route_cache_.get(lsdb_, config_.router_id, now());
  }

  /// Number of actual SPF kernel runs behind routes() (cache misses).
  std::uint64_t spf_runs() const { return route_cache_.recomputes(); }

  /// Originates an AS-external LSA (the router acts as an ASBR). Used by
  /// workloads to create LSDB churn.
  void originate_external(Ipv4Addr prefix, Ipv4Addr mask,
                          std::uint32_t metric);

  /// Withdraws a previously originated external LSA by premature aging
  /// (§14.1): the instance is flooded at MaxAge and every database drops
  /// it once acknowledged. Returns false if this router never originated
  /// an external LSA for `prefix`.
  bool withdraw_external(Ipv4Addr prefix);

  /// Re-originates all self LSAs immediately with bumped sequence numbers
  /// (simulates a triggered topology change).
  void bump_self_lsas();

  struct Stats {
    std::uint64_t tx_by_type[kNumPacketTypes + 1] = {};
    std::uint64_t rx_by_type[kNumPacketTypes + 1] = {};
    std::uint64_t lsa_installs = 0;
    std::uint64_t lsa_refreshes = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t duplicates_received = 0;
    std::uint64_t stale_received = 0;
    std::uint64_t decode_failures = 0;
    std::uint64_t auth_failures = 0;
    /// Neighbor FSM state changes (any `state` reassignment to a new value).
    std::uint64_t fsm_transitions = 0;
    /// Behavioral coverage masks (cov subsystem): bit from*8+to set for
    /// every neighbor FSM edge taken; bit = InterfaceState value for every
    /// DR-election role this router's interfaces settled into.
    std::uint64_t fsm_edge_mask = 0;
    std::uint64_t dr_role_mask = 0;
    /// LSA lifecycle events: fresh self-originations and MaxAge removals
    /// (refreshes already have their own counter above).
    std::uint64_t self_originations = 0;
    std::uint64_t maxage_flushes = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend struct RouterTestPeer;  // white-box test access

  // -- router.cpp: lifecycle, hello, election, dispatch
  void on_frame(netsim::IfaceIndex iface, const netsim::Frame& frame);
  void interface_up(OspfInterface& oi);
  void send_hello(OspfInterface& oi, std::uint64_t cause);
  void arm_hello_timer(OspfInterface& oi);
  void handle_hello(OspfInterface& oi, const OspfPacket& pkt,
                    const HelloBody& hello, Ipv4Addr src);
  void neighbor_inactivity(OspfInterface& oi, RouterId nbr);
  void run_dr_election(OspfInterface& oi);
  void check_adjacencies(OspfInterface& oi);
  bool should_be_adjacent(const OspfInterface& oi, const Neighbor& n) const;
  void start_adjacency(OspfInterface& oi, Neighbor& n);
  void destroy_neighbor(OspfInterface& oi, Neighbor& n);
  /// All neighbor FSM transitions funnel through here so stats count them.
  void set_neighbor_state(Neighbor& n, NeighborState to);
  void send_packet(OspfInterface& oi, PacketBody body, Ipv4Addr dst,
                   std::uint64_t cause);

  // -- exchange.cpp: §10.6-10.8
  void handle_dbd(OspfInterface& oi, Neighbor& n, const DbdBody& dbd);
  void handle_lsr(OspfInterface& oi, Neighbor& n, const LsRequestBody& lsr);
  void send_dbd(OspfInterface& oi, Neighbor& n, bool retransmit);
  void process_dbd_headers(OspfInterface& oi, Neighbor& n, const DbdBody& dbd);
  void exchange_done(OspfInterface& oi, Neighbor& n);
  void send_ls_requests(OspfInterface& oi, Neighbor& n);
  void seq_number_mismatch(OspfInterface& oi, Neighbor& n);
  void arm_dbd_rxmt(OspfInterface& oi, Neighbor& n);
  void loading_check(OspfInterface& oi, Neighbor& n);
  void neighbor_full(OspfInterface& oi, Neighbor& n);

  // -- flooding.cpp: §13
  void handle_lsu(OspfInterface& oi, Neighbor& n, const LsUpdateBody& lsu,
                  std::uint64_t frame_id);
  void handle_lsack(OspfInterface& oi, Neighbor& n, const LsAckBody& ack);
  /// Floods the current database copy of `key` (§13.3). `except` is the
  /// interface the LSA arrived on (nullptr for self-originations);
  /// `from` is the neighbor it arrived from — that neighbor already has
  /// the LSA and is never put on a retransmission list (step 1c).
  void flood(const LsaKey& key, const OspfInterface* except,
             std::uint64_t cause, RouterId from = RouterId{});
  void queue_flood(OspfInterface& oi, const LsaKey& key, std::uint64_t cause);
  void flush_flood_queue(OspfInterface& oi);
  void queue_delayed_ack(OspfInterface& oi, const LsaHeader& header,
                         std::uint64_t frame_id);
  void send_direct_ack(OspfInterface& oi, const Neighbor& n,
                       std::vector<LsaHeader> headers, std::uint64_t frame_id);
  void flush_delayed_acks(OspfInterface& oi);
  LsaHeader ack_header_for(const Lsa& received) const;
  void arm_lsu_rxmt(OspfInterface& oi, Neighbor& n);
  void lsu_retransmit(OspfInterface& oi, Neighbor& n);

  // -- origination.cpp: §12.4
  void originate_router_lsa();
  void originate_network_lsa(OspfInterface& oi);
  void schedule_refresh(const LsaKey& key);
  void refresh_lsa(const LsaKey& key);
  void self_originate(Lsa lsa, std::uint64_t cause);
  std::int32_t next_seq_for(const LsaKey& key) const;
  /// Removes a MaxAge LSA from the database once no neighbor's
  /// retransmission list still carries it (§14).
  void schedule_maxage_cleanup(const LsaKey& key);
  /// MinLSInterval rate limiting: returns false (and schedules `retry`)
  /// when `key` was originated too recently.
  bool origination_allowed(const LsaKey& key, std::function<void()> retry);

  OspfInterface* iface_by_index(netsim::IfaceIndex index);
  bool is_dr_or_bdr(const OspfInterface& oi) const;
  SimTime now() const { return net_.sim().now(); }

  netsim::Network& net_;
  netsim::NodeId node_;
  RouterConfig config_;
  Rng rng_;
  Lsdb lsdb_;
  std::vector<OspfInterface> ifaces_;
  std::map<LsaKey, netsim::TimerHandle> refresh_timers_;
  std::map<LsaKey, SimTime> last_origination_;
  std::map<LsaKey, netsim::TimerHandle> pending_origination_;
  bool is_asbr_ = false;
  std::uint32_t dd_seq_counter_;
  /// Frame id of the packet currently being processed (provenance source).
  std::uint64_t current_cause_ = 0;
  std::uint32_t external_counter_ = 0;
  /// Cryptographic-auth sequence number for our own transmissions (§D.4.3)
  /// and the highest sequence accepted per sender (anti-replay).
  std::uint32_t crypto_seq_ = 0;
  std::map<RouterId, std::uint32_t> crypto_seq_seen_;
  /// Encode buffer reused by every send: each frame's payload cell is
  /// copied from it, so encoding a send allocates only that cell.
  ByteWriter tx_buf_;
  /// Memoized SPF output (routes() is const; the cache is bookkeeping).
  mutable RouteCache route_cache_;
  Stats stats_;
  bool started_ = false;
};

}  // namespace nidkit::ospf
