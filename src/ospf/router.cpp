#include "ospf/router.hpp"

#include <algorithm>
#include <cassert>

namespace nidkit::ospf {

std::string to_string(NeighborState s) {
  switch (s) {
    case NeighborState::kDown: return "Down";
    case NeighborState::kInit: return "Init";
    case NeighborState::kTwoWay: return "2-Way";
    case NeighborState::kExStart: return "ExStart";
    case NeighborState::kExchange: return "Exchange";
    case NeighborState::kLoading: return "Loading";
    case NeighborState::kFull: return "Full";
  }
  return "?";
}

std::string to_string(InterfaceState s) {
  switch (s) {
    case InterfaceState::kDown: return "Down";
    case InterfaceState::kPointToPoint: return "P2P";
    case InterfaceState::kWaiting: return "Waiting";
    case InterfaceState::kDrOther: return "DROther";
    case InterfaceState::kBackup: return "Backup";
    case InterfaceState::kDr: return "DR";
  }
  return "?";
}

namespace {
Ipv4Addr mask_from_prefix(std::uint8_t prefix_len) {
  if (prefix_len == 0) return Ipv4Addr{0};
  return Ipv4Addr{~std::uint32_t{0} << (32 - prefix_len)};
}
}  // namespace

Router::Router(netsim::Network& net, netsim::NodeId node, RouterConfig config,
               std::uint64_t seed)
    : net_(net), node_(node), config_(std::move(config)), rng_(seed) {
  // Unique-enough starting DD sequence, derived from the router id so runs
  // are deterministic.
  dd_seq_counter_ = 0x1000 + (config_.router_id.value() & 0xfff);
  net_.set_receive_handler(node_, [this](netsim::IfaceIndex idx,
                                         const netsim::Frame& f) {
    on_frame(idx, f);
  });
}

void Router::start() {
  assert(!started_);
  started_ = true;
  const auto n_ifaces = net_.iface_count(node_);
  ifaces_.reserve(n_ifaces);
  for (netsim::IfaceIndex i = 0; i < n_ifaces; ++i) {
    const auto& ni = net_.iface(node_, i);
    OspfInterface oi;
    oi.index = i;
    oi.is_lan = net_.segment_is_lan(ni.segment);
    oi.address = ni.address;
    oi.mask = mask_from_prefix(ni.prefix_len);
    ifaces_.push_back(std::move(oi));
  }
  for (auto& oi : ifaces_) interface_up(oi);
  originate_router_lsa();
}

void Router::stop() {
  started_ = false;
  for (auto& oi : ifaces_) {
    oi.state = InterfaceState::kDown;
    oi.hello_timer.cancel();
    oi.wait_timer.cancel();
    oi.ack_timer.cancel();
    oi.flood_timer.cancel();
    for (auto& [id, n] : oi.neighbors) {
      n.inactivity_timer.cancel();
      n.dbd_rxmt_timer.cancel();
      n.lsr_rxmt_timer.cancel();
      n.lsu_rxmt_timer.cancel();
    }
    oi.neighbors.clear();
  }
  for (auto& [key, timer] : refresh_timers_) timer.cancel();
  for (auto& [key, timer] : pending_origination_) timer.cancel();
}

void Router::interface_up(OspfInterface& oi) {
  if (oi.is_lan) {
    // Broadcast interface: wait for WaitTimer (RouterDeadInterval) before
    // electing a DR, so existing DRs are discovered first.
    oi.state = InterfaceState::kWaiting;
    oi.wait_timer = net_.sim().schedule(config_.dead_interval, [this, &oi] {
      if (oi.state == InterfaceState::kWaiting) run_dr_election(oi);
    });
  } else {
    oi.state = InterfaceState::kPointToPoint;
  }
  send_hello(oi, /*cause=*/0);
}

void Router::arm_hello_timer(OspfInterface& oi) {
  oi.hello_timer.cancel();
  SimDuration when = config_.hello_interval;
  const auto& jitter = config_.profile.hello_jitter;
  // Symmetric jitter around the nominal interval, as daemons apply to
  // avoid synchronized hellos.
  if (jitter.count() > 0)
    when += rng_.jitter(SimDuration{0}, jitter) - jitter / 2;
  if (when < SimDuration{1000}) when = SimDuration{1000};
  oi.hello_timer = net_.sim().schedule(when, [this, &oi] {
    send_hello(oi, /*cause=*/0);
  });
}

void Router::send_hello(OspfInterface& oi, std::uint64_t cause) {
  HelloBody hello;
  hello.network_mask = oi.mask;
  hello.hello_interval = static_cast<std::uint16_t>(
      std::chrono::duration_cast<std::chrono::seconds>(config_.hello_interval)
          .count());
  hello.dead_interval = static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::seconds>(config_.dead_interval)
          .count());
  hello.router_priority = config_.priority;
  hello.designated_router = oi.dr;
  hello.backup_designated_router = oi.bdr;
  for (const auto& [id, nbr] : oi.neighbors)
    if (nbr.state >= NeighborState::kInit) hello.neighbors.push_back(id);
  send_packet(oi, std::move(hello), kAllSpfRouters, cause);
  arm_hello_timer(oi);
}

void Router::send_packet(OspfInterface& oi, PacketBody body, Ipv4Addr dst,
                         std::uint64_t cause) {
  OspfPacket pkt = make_packet(config_.router_id, config_.area, std::move(body));
  netsim::Frame frame;
  tx_buf_.clear();
  if (!config_.md5_key.empty()) {
    pkt.header.au_type = 2;
    pkt.header.md5_key_id = config_.md5_key_id;
    pkt.header.md5_seq = ++crypto_seq_;
    encode_md5(pkt,
               {reinterpret_cast<const std::uint8_t*>(config_.md5_key.data()),
                config_.md5_key.size()},
               tx_buf_);
  } else {
    if (!config_.auth_password.empty()) {
      pkt.header.au_type = 1;
      const auto n = std::min<std::size_t>(8, config_.auth_password.size());
      std::copy_n(config_.auth_password.begin(), n, pkt.header.auth.begin());
    }
    encode(pkt, tx_buf_);
  }
  frame.payload = util::SharedBytes(tx_buf_.view());
  frame.dst = dst;
  frame.protocol = kIpProtoOspf;
  frame.caused_by = cause;
  ++stats_.tx_by_type[static_cast<int>(pkt.header.type)];
  net_.send(node_, oi.index, std::move(frame));
}

OspfInterface* Router::iface_by_index(netsim::IfaceIndex index) {
  for (auto& oi : ifaces_)
    if (oi.index == index) return &oi;
  return nullptr;
}

bool Router::is_dr_or_bdr(const OspfInterface& oi) const {
  return oi.state == InterfaceState::kDr ||
         oi.state == InterfaceState::kBackup;
}

void Router::on_frame(netsim::IfaceIndex iface, const netsim::Frame& frame) {
  if (!started_) return;  // crashed daemons receive nothing
  if (frame.protocol != kIpProtoOspf) return;
  OspfInterface* oi = iface_by_index(iface);
  if (oi == nullptr || oi->state == InterfaceState::kDown) return;

  // Multicast scoping: AllDRouters is only consumed by the DR and BDR.
  // (The capture tap has already recorded the frame — tcpdump sees frames
  // the daemon's socket filter discards, and so does the miner.)
  if (frame.dst == kAllDRouters && !is_dr_or_bdr(*oi)) return;

  auto decoded = decode(frame.payload);
  if (!decoded.ok()) {
    ++stats_.decode_failures;
    return;
  }
  const OspfPacket& pkt = decoded.value();
  if (!(pkt.header.area_id == config_.area)) return;
  if (pkt.header.router_id == config_.router_id) return;  // own multicast

  // Authentication (§8.2 step 2 / §D.4): AuType and key must match ours.
  if (!config_.md5_key.empty()) {
    if (pkt.header.au_type != 2 ||
        pkt.header.md5_key_id != config_.md5_key_id ||
        !verify_md5(frame.payload,
                    {reinterpret_cast<const std::uint8_t*>(
                         config_.md5_key.data()),
                     config_.md5_key.size()})) {
      ++stats_.auth_failures;
      return;
    }
    // Anti-replay (§D.4.3): the per-sender sequence must not decrease.
    auto [it, inserted] =
        crypto_seq_seen_.try_emplace(pkt.header.router_id, 0);
    if (!inserted && pkt.header.md5_seq < it->second) {
      ++stats_.auth_failures;
      return;
    }
    it->second = pkt.header.md5_seq;
  } else {
    std::array<std::uint8_t, 8> expected{};
    std::uint16_t expected_type = 0;
    if (!config_.auth_password.empty()) {
      expected_type = 1;
      const auto n = std::min<std::size_t>(8, config_.auth_password.size());
      std::copy_n(config_.auth_password.begin(), n, expected.begin());
    }
    if (pkt.header.au_type != expected_type || pkt.header.auth != expected) {
      ++stats_.auth_failures;
      return;
    }
  }

  ++stats_.rx_by_type[static_cast<int>(pkt.header.type)];
  current_cause_ = frame.id;

  if (const auto* hello = std::get_if<HelloBody>(&pkt.body)) {
    handle_hello(*oi, pkt, *hello, frame.src);
  } else {
    // All other packet types require an established neighbor (§8.2).
    auto it = oi->neighbors.find(pkt.header.router_id);
    if (it != oi->neighbors.end() &&
        it->second.state >= NeighborState::kInit) {
      Neighbor& n = it->second;
      if (const auto* dbd = std::get_if<DbdBody>(&pkt.body)) {
        handle_dbd(*oi, n, *dbd);
      } else if (const auto* lsr = std::get_if<LsRequestBody>(&pkt.body)) {
        handle_lsr(*oi, n, *lsr);
      } else if (const auto* lsu = std::get_if<LsUpdateBody>(&pkt.body)) {
        handle_lsu(*oi, n, *lsu, frame.id);
      } else if (const auto* ack = std::get_if<LsAckBody>(&pkt.body)) {
        handle_lsack(*oi, n, *ack);
      }
    }
  }
  current_cause_ = 0;
}

void Router::handle_hello(OspfInterface& oi, const OspfPacket& pkt,
                          const HelloBody& hello, Ipv4Addr src) {
  // §10.5: interval parameters must match or the hello is dropped.
  const auto our_hello = std::chrono::duration_cast<std::chrono::seconds>(
                             config_.hello_interval)
                             .count();
  const auto our_dead =
      std::chrono::duration_cast<std::chrono::seconds>(config_.dead_interval)
          .count();
  if (hello.hello_interval != our_hello || hello.dead_interval != our_dead)
    return;
  if (oi.is_lan && !(hello.network_mask == oi.mask)) return;

  const RouterId nbr_id = pkt.header.router_id;
  bool is_new = false;
  auto it = oi.neighbors.find(nbr_id);
  if (it == oi.neighbors.end()) {
    Neighbor n;
    n.id = nbr_id;
    n.address = src;
    it = oi.neighbors.emplace(nbr_id, std::move(n)).first;
    is_new = true;
  }
  Neighbor& n = it->second;
  n.address = src;

  const std::uint8_t old_priority = n.priority;
  const Ipv4Addr old_dr = n.dr;
  const Ipv4Addr old_bdr = n.bdr;
  n.priority = hello.router_priority;
  n.dr = hello.designated_router;
  n.bdr = hello.backup_designated_router;

  // HelloReceived: (re)start the inactivity timer.
  n.inactivity_timer.cancel();
  n.inactivity_timer = net_.sim().schedule(
      config_.dead_interval,
      [this, &oi, nbr_id] { neighbor_inactivity(oi, nbr_id); });
  if (n.state < NeighborState::kInit)
    set_neighbor_state(n, NeighborState::kInit);

  if (is_new && config_.profile.immediate_hello_on_discovery) {
    // Discretionary: answer a newly discovered neighbor right away so it
    // learns about us without waiting a full hello interval (FRR-like).
    send_hello(oi, current_cause_);
  }

  const bool sees_us =
      std::find(hello.neighbors.begin(), hello.neighbors.end(),
                config_.router_id) != hello.neighbors.end();

  bool state_changed_two_way = false;
  if (sees_us) {
    if (n.state == NeighborState::kInit) {
      set_neighbor_state(n, NeighborState::kTwoWay);
      state_changed_two_way = true;
      if (config_.profile.immediate_hello_on_two_way)
        send_hello(oi, current_cause_);
      if (should_be_adjacent(oi, n)) start_adjacency(oi, n);
    }
  } else {
    // 1-WayReceived: the neighbor no longer lists us.
    if (n.state >= NeighborState::kTwoWay) {
      destroy_neighbor(oi, n);
      set_neighbor_state(n, NeighborState::kInit);
    }
  }

  if (oi.is_lan) {
    // NeighborChange events (§9.2): priority change, DR/BDR claims change,
    // or bidirectionality established/lost.
    const bool change =
        state_changed_two_way || old_priority != n.priority ||
        !(old_dr == n.dr) || !(old_bdr == n.bdr);
    if (oi.state == InterfaceState::kWaiting) {
      // BackupSeen: a neighbor claims to be BDR, or claims DR with no BDR.
      const bool backup_seen =
          (n.bdr == n.address && n.state >= NeighborState::kTwoWay) ||
          (n.dr == n.address && n.bdr.is_zero());
      if (backup_seen) {
        oi.wait_timer.cancel();
        run_dr_election(oi);
      }
    } else if (oi.state >= InterfaceState::kDrOther && change) {
      run_dr_election(oi);
    }
  }
}

void Router::neighbor_inactivity(OspfInterface& oi, RouterId nbr) {
  auto it = oi.neighbors.find(nbr);
  if (it == oi.neighbors.end()) return;
  destroy_neighbor(oi, it->second);
  oi.neighbors.erase(it);
  if (oi.is_lan && oi.state >= InterfaceState::kDrOther) run_dr_election(oi);
  originate_router_lsa();
}

void Router::destroy_neighbor(OspfInterface& oi, Neighbor& n) {
  // The inactivity timer is deliberately left armed: a neighbor demoted by
  // a 1-Way event must still expire if its hellos stop entirely.
  const bool was_full = n.state == NeighborState::kFull;
  n.dbd_rxmt_timer.cancel();
  n.lsr_rxmt_timer.cancel();
  n.lsu_rxmt_timer.cancel();
  n.db_summary.clear();
  n.ls_requests.clear();
  n.outstanding_requests.clear();
  n.retransmit.clear();
  n.last_rx_dbd_valid = false;
  n.exchange_more_to_send = false;
  // Demote BEFORE re-originating: the flooding below must not put the
  // dying adjacency back on a retransmission list (its timer closure would
  // dangle once the caller erases the neighbor).
  set_neighbor_state(n, NeighborState::kDown);
  if (was_full) {
    originate_router_lsa();
    if (oi.is_lan && oi.state == InterfaceState::kDr)
      originate_network_lsa(oi);
  }
}

bool Router::should_be_adjacent(const OspfInterface& oi,
                                const Neighbor& n) const {
  if (!oi.is_lan) return true;  // always adjacent on point-to-point links
  // §10.4: adjacencies form with the DR and BDR only.
  if (is_dr_or_bdr(oi)) return true;
  return n.address == oi.dr || n.address == oi.bdr;
}

void Router::set_neighbor_state(Neighbor& n, NeighborState to) {
  if (n.state == to) return;
  stats_.fsm_edge_mask |= 1ull << (static_cast<unsigned>(n.state) * 8 +
                                   static_cast<unsigned>(to));
  n.state = to;
  ++stats_.fsm_transitions;
}

void Router::start_adjacency(OspfInterface& oi, Neighbor& n) {
  if (n.state != NeighborState::kTwoWay) return;
  set_neighbor_state(n, NeighborState::kExStart);
  n.we_are_master = true;  // provisional; negotiation settles it
  n.dd_sequence = ++dd_seq_counter_;
  send_dbd(oi, n, /*retransmit=*/false);
}

void Router::check_adjacencies(OspfInterface& oi) {
  // AdjOK? (§10.3): promote 2-Way neighbors that should now be adjacent,
  // demote adjacencies that should no longer exist.
  for (auto& [id, n] : oi.neighbors) {
    if (n.state == NeighborState::kTwoWay && should_be_adjacent(oi, n)) {
      start_adjacency(oi, n);
    } else if (n.state > NeighborState::kTwoWay &&
               !should_be_adjacent(oi, n)) {
      destroy_neighbor(oi, n);
      set_neighbor_state(n, NeighborState::kTwoWay);
    }
  }
}

void Router::run_dr_election(OspfInterface& oi) {
  // §9.4, simplified to the common case (priorities > 0, no preemption
  // subtleties): consider self plus all bidirectional neighbors.
  struct Candidate {
    Ipv4Addr addr;
    RouterId id;
    std::uint8_t priority;
    Ipv4Addr claims_dr;
    Ipv4Addr claims_bdr;
  };
  std::vector<Candidate> cands;
  cands.push_back(Candidate{oi.address, config_.router_id, config_.priority,
                            oi.dr, oi.bdr});
  for (const auto& [id, n] : oi.neighbors) {
    if (n.state >= NeighborState::kTwoWay && n.priority > 0)
      cands.push_back(Candidate{n.address, id, n.priority, n.dr, n.bdr});
  }

  auto better = [](const Candidate& a, const Candidate& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.id > b.id;
  };

  auto elect = [&](bool bdr_round, Ipv4Addr current_bdr) {
    const Candidate* best = nullptr;
    // First pass: routers declaring themselves for the role.
    for (const auto& c : cands) {
      const bool declares = bdr_round ? (c.claims_bdr == c.addr &&
                                         !(c.claims_dr == c.addr))
                                      : (c.claims_dr == c.addr);
      if (!declares) continue;
      if (best == nullptr || better(c, *best)) best = &c;
    }
    if (best != nullptr) return best->addr;
    if (!bdr_round) return current_bdr;  // DR defaults to the elected BDR
    // BDR second pass: anyone not declaring self DR.
    for (const auto& c : cands) {
      if (c.claims_dr == c.addr) continue;
      if (best == nullptr || better(c, *best)) best = &c;
    }
    return best != nullptr ? best->addr : Ipv4Addr{};
  };

  const Ipv4Addr old_dr = oi.dr;
  const Ipv4Addr old_bdr = oi.bdr;

  Ipv4Addr bdr = elect(/*bdr_round=*/true, {});
  Ipv4Addr dr = elect(/*bdr_round=*/false, bdr);
  if (dr == bdr && !dr.is_zero()) bdr = Ipv4Addr{};

  // §9.4 step 4: if our own role changed, repeat the election once with
  // our new claims in place.
  const bool we_were = oi.address == old_dr || oi.address == old_bdr;
  const bool we_are = oi.address == dr || oi.address == bdr;
  if (we_were != we_are) {
    cands[0].claims_dr = dr;
    cands[0].claims_bdr = bdr;
    bdr = elect(/*bdr_round=*/true, {});
    dr = elect(/*bdr_round=*/false, bdr);
    if (dr == bdr && !dr.is_zero()) bdr = Ipv4Addr{};
  }

  oi.dr = dr;
  oi.bdr = bdr;
  if (oi.address == dr) {
    oi.state = InterfaceState::kDr;
  } else if (oi.address == bdr) {
    oi.state = InterfaceState::kBackup;
  } else {
    oi.state = InterfaceState::kDrOther;
  }
  stats_.dr_role_mask |= 1ull << static_cast<unsigned>(oi.state);

  if (!(old_dr == dr) || !(old_bdr == bdr)) {
    check_adjacencies(oi);
    originate_router_lsa();
    if (oi.state == InterfaceState::kDr) {
      originate_network_lsa(oi);
    } else if (oi.address == old_dr) {
      // We lost DR: our network-LSA for this segment must be flushed.
      // Simplified: it ages out naturally (MaxAge flushing is not modeled
      // as a triggered flood here).
    }
  }
}

NeighborState Router::neighbor_state(RouterId neighbor) const {
  auto best = NeighborState::kDown;
  for (const auto& oi : ifaces_) {
    auto it = oi.neighbors.find(neighbor);
    if (it != oi.neighbors.end()) best = std::max(best, it->second.state);
  }
  return best;
}

int Router::max_neighbor_state() const {
  int best = -1;
  for (const auto& oi : ifaces_)
    for (const auto& [id, n] : oi.neighbors)
      best = std::max(best, static_cast<int>(n.state));
  return best;
}

bool Router::full_adjacencies(std::size_t expected) const {
  std::size_t full = 0;
  for (const auto& oi : ifaces_)
    for (const auto& [id, n] : oi.neighbors)
      if (n.state == NeighborState::kFull) ++full;
  return full >= expected;
}

}  // namespace nidkit::ospf
