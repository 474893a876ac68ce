#include "bgp/bgp_router.hpp"

#include <algorithm>

namespace nidkit::bgp {

BgpProfile bgp_robust_profile() {
  BgpProfile p;
  p.name = "bgp-robust";
  p.as_path_accept_limit = 0;  // any wire-valid path is carried
  return p;
}

BgpProfile bgp_fragile_profile() {
  BgpProfile p;
  p.name = "bgp-fragile";
  // Paths beyond this are treated as malformed: NOTIFICATION + reset.
  // (The 2009 incident: an implementation limit well below what the wire
  // format allows.)
  p.as_path_accept_limit = 100;
  return p;
}

std::string to_string(SessionState s) {
  switch (s) {
    case SessionState::kIdle: return "Idle";
    case SessionState::kOpenSent: return "OpenSent";
    case SessionState::kOpenConfirm: return "OpenConfirm";
    case SessionState::kEstablished: return "Established";
  }
  return "?";
}

BgpRouter::BgpRouter(netsim::Network& net, netsim::NodeId node,
                     BgpConfig config, std::uint64_t seed)
    : net_(net), node_(node), config_(std::move(config)), rng_(seed) {
  net_.set_receive_handler(
      node_, [this](netsim::IfaceIndex idx, const netsim::Frame& f) {
        on_frame(idx, f);
      });
}

void BgpRouter::start() {
  started_ = true;
  const auto n = net_.iface_count(node_);
  peers_.reserve(n);
  for (netsim::IfaceIndex i = 0; i < n; ++i) {
    Peer peer;
    peer.iface = i;
    const auto& ifc = net_.iface(node_, i);
    for (const auto& att : net_.attachments(ifc.segment))
      if (att.node != node_) peer.address = att.address;
    peers_.push_back(std::move(peer));
  }
  for (auto& peer : peers_) open_session(peer);
}

void BgpRouter::open_session(Peer& peer) {
  OpenMessage open;
  open.my_as = config_.as_number;
  open.hold_time = config_.profile.hold_time;
  open.bgp_identifier = config_.router_id;
  set_session_state(peer, SessionState::kOpenSent);
  send_message(peer, open, current_cause_);
  // Retry if the OPEN exchange stalls.
  peer.retry_timer.cancel();
  peer.retry_timer =
      net_.sim().schedule(config_.profile.connect_retry, [this, &peer] {
        if (peer.state != SessionState::kEstablished) open_session(peer);
      });
}

void BgpRouter::send_message(Peer& peer, MessageBody body,
                             std::uint64_t cause) {
  BgpMessage msg;
  msg.body = std::move(body);
  switch (msg.type()) {
    case MessageType::kOpen: ++stats_.tx_open; break;
    case MessageType::kUpdate: ++stats_.tx_update; break;
    case MessageType::kNotification: ++stats_.tx_notification; break;
    case MessageType::kKeepalive: ++stats_.tx_keepalive; break;
  }
  netsim::Frame frame;
  frame.dst = peer.address;
  frame.protocol = kIpProtoTcp;
  frame.payload = encode(msg);
  frame.caused_by = cause;
  net_.send(node_, peer.iface, std::move(frame));
}

void BgpRouter::on_frame(netsim::IfaceIndex iface,
                         const netsim::Frame& frame) {
  if (!started_ || frame.protocol != kIpProtoTcp) return;
  Peer* peer = nullptr;
  for (auto& p : peers_)
    if (p.iface == iface) peer = &p;
  if (peer == nullptr || !(frame.src == peer->address)) return;

  auto decoded = decode(frame.payload);
  if (!decoded.ok()) return;
  current_cause_ = frame.id;
  const BgpMessage& msg = decoded.value();
  if (const auto* open = std::get_if<OpenMessage>(&msg.body)) {
    ++stats_.rx_open;
    handle_open(*peer, *open);
  } else if (const auto* update = std::get_if<UpdateMessage>(&msg.body)) {
    ++stats_.rx_update;
    handle_update(*peer, *update, frame.id);
  } else if (const auto* notif =
                 std::get_if<NotificationMessage>(&msg.body)) {
    ++stats_.rx_notification;
    handle_notification(*peer, *notif);
  } else {
    ++stats_.rx_keepalive;
    handle_keepalive(*peer);
  }
  current_cause_ = 0;
}

void BgpRouter::handle_open(Peer& peer, const OpenMessage& open) {
  // FSM error (§8.2.2): an OPEN on an *established* session means the peer
  // restarted behind our back. Tear down and let the retry logic rebuild —
  // otherwise the session wedges half-open.
  if (peer.state == SessionState::kEstablished) {
    send_notification(peer, kErrorCease, 0, current_cause_);
    reset_session(peer, /*send_cease=*/false);
    return;
  }
  // A duplicate OPEN in OpenConfirm is a harmless collision echo (our
  // resent OPEN crossed theirs): confirm again and stay.
  if (peer.state == SessionState::kOpenConfirm) {
    send_message(peer, KeepaliveMessage{}, current_cause_);
    return;
  }
  peer.peer_as = open.my_as;
  peer.peer_id = open.bgp_identifier;
  if (peer.state == SessionState::kIdle) {
    // Passive side: answer with our own OPEN first.
    open_session(peer);
  } else {
    // OpenSent: the peer may have been down when our OPEN went out (there
    // is no TCP to tell us); resend it so both sides can confirm.
    OpenMessage mine;
    mine.my_as = config_.as_number;
    mine.hold_time = config_.profile.hold_time;
    mine.bgp_identifier = config_.router_id;
    send_message(peer, mine, current_cause_);
  }
  send_message(peer, KeepaliveMessage{}, current_cause_);
  if (peer.state == SessionState::kOpenSent)
    set_session_state(peer, SessionState::kOpenConfirm);
  arm_hold(peer);
  arm_keepalive(peer);
}

void BgpRouter::handle_keepalive(Peer& peer) {
  // FSM error (§8.2.2): a KEEPALIVE before the OPEN exchange finished.
  if (peer.state == SessionState::kOpenSent) {
    send_notification(peer, kErrorCease, 0, current_cause_);
    reset_session(peer, /*send_cease=*/false);
    return;
  }
  if (peer.state == SessionState::kIdle) return;
  arm_hold(peer);
  if (peer.state == SessionState::kOpenConfirm) session_established(peer);
}

void BgpRouter::set_session_state(Peer& peer, SessionState to) {
  if (peer.state == to) return;
  stats_.fsm_edge_mask |= 1ull << (static_cast<unsigned>(peer.state) * 8 +
                                   static_cast<unsigned>(to));
  peer.state = to;
  ++stats_.fsm_transitions;
}

void BgpRouter::session_established(Peer& peer) {
  set_session_state(peer, SessionState::kEstablished);
  peer.retry_timer.cancel();
  // Initial table push: everything in loc-RIB.
  for (const auto& [prefix, source] : best_source_)
    peer.pending.insert(prefix);
  for (const auto& [prefix, lr] : local_routes_) peer.pending.insert(prefix);
  if (!peer.pending.empty()) schedule_advertisement(peer, current_cause_);
}

void BgpRouter::arm_keepalive(Peer& peer) {
  peer.keepalive_timer.cancel();
  peer.keepalive_timer =
      net_.sim().schedule(config_.profile.keepalive_interval, [this, &peer] {
        if (peer.state >= SessionState::kOpenConfirm) {
          send_message(peer, KeepaliveMessage{}, /*cause=*/0);
          arm_keepalive(peer);
        }
      });
}

void BgpRouter::arm_hold(Peer& peer) {
  peer.hold_timer.cancel();
  peer.hold_timer = net_.sim().schedule(
      std::chrono::seconds(config_.profile.hold_time), [this, &peer] {
        if (peer.state < SessionState::kOpenConfirm) return;
        send_notification(peer, kErrorHoldTimerExpired, 0, /*cause=*/0);
        reset_session(peer, /*send_cease=*/false);
      });
}

void BgpRouter::send_notification(Peer& peer, std::uint8_t code,
                                  std::uint8_t subcode, std::uint64_t cause) {
  NotificationMessage notif;
  notif.error_code = code;
  notif.error_subcode = subcode;
  send_message(peer, std::move(notif), cause);
}

void BgpRouter::reset_session(Peer& peer, bool send_cease) {
  if (send_cease && peer.state >= SessionState::kOpenConfirm)
    send_notification(peer, kErrorCease, 0, current_cause_);
  ++stats_.session_resets;
  set_session_state(peer, SessionState::kIdle);
  peer.keepalive_timer.cancel();
  peer.hold_timer.cancel();
  peer.mrai_timer.cancel();
  peer.pending.clear();
  peer.pending_withdraw.clear();
  peer.advertised.clear();

  // Routes learned from this peer are invalidated.
  std::vector<Prefix> lost;
  for (const auto& [prefix, entry] : peer.adj_rib_in) lost.push_back(prefix);
  peer.adj_rib_in.clear();
  for (const auto& prefix : lost) decide(prefix, current_cause_);

  // Try again after the retry interval (sessions flap rather than die —
  // the incident's reset loop).
  peer.retry_timer.cancel();
  peer.retry_timer =
      net_.sim().schedule(config_.profile.connect_retry, [this, &peer] {
        if (peer.state == SessionState::kIdle) open_session(peer);
      });
}

void BgpRouter::handle_notification(Peer& peer, const NotificationMessage&) {
  reset_session(peer, /*send_cease=*/false);
}

void BgpRouter::handle_update(Peer& peer, const UpdateMessage& update,
                              std::uint64_t frame_id) {
  if (peer.state != SessionState::kEstablished) return;
  arm_hold(peer);

  // --- The discretionary behaviour under test: AS_PATH length limits.
  const auto limit = config_.profile.as_path_accept_limit;
  if (limit != 0 && update.as_path.size() > limit) {
    ++stats_.long_path_rejects;
    send_notification(peer, kErrorUpdateMessage, kSubcodeMalformedAsPath,
                      frame_id);
    reset_session(peer, /*send_cease=*/false);
    return;
  }

  for (const auto& prefix : update.withdrawn) {
    if (peer.adj_rib_in.erase(prefix) > 0) decide(prefix, frame_id);
  }
  if (update.nlri.empty()) return;

  // Loop prevention: our own AS in the path means the route came back.
  if (std::find(update.as_path.begin(), update.as_path.end(),
                config_.as_number) != update.as_path.end()) {
    ++stats_.loop_rejects;
    return;
  }
  for (const auto& prefix : update.nlri) {
    peer.adj_rib_in[prefix] = AdjRibEntry{update.as_path, update.next_hop};
    decide(prefix, frame_id);
  }
}

void BgpRouter::decide(const Prefix& prefix, std::uint64_t cause) {
  // Best path: local origination wins; otherwise shortest AS_PATH, tie
  // broken by lowest peer id.
  int best = kLocal - 1;  // "no route"
  const AsPath* best_path = nullptr;
  if (local_routes_.count(prefix)) {
    best = kLocal;
  } else {
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      auto it = peers_[i].adj_rib_in.find(prefix);
      if (it == peers_[i].adj_rib_in.end()) continue;
      if (best < kLocal || best_path == nullptr ||
          it->second.path.size() < best_path->size() ||
          (it->second.path.size() == best_path->size() &&
           peers_[i].peer_id < peers_[static_cast<std::size_t>(best)]
                                   .peer_id)) {
        best = static_cast<int>(i);
        best_path = &it->second.path;
      }
    }
  }

  const bool have = best >= kLocal;
  // Note: even when the best *source* is unchanged the path may have
  // changed (the peer re-announced), so the change is always propagated;
  // MRAI batching absorbs the chatter.
  if (have) {
    best_source_[prefix] = best;
    ++stats_.routes_selected;
  } else {
    best_source_.erase(prefix);
  }

  // Propagate the change to every peer (the new best, or a withdrawal).
  for (auto& peer : peers_) {
    if (peer.state != SessionState::kEstablished) continue;
    if (have) {
      peer.pending.insert(prefix);
      peer.pending_withdraw.erase(prefix);
    } else if (peer.advertised.count(prefix)) {
      peer.pending_withdraw.insert(prefix);
      peer.pending.erase(prefix);
    }
    schedule_advertisement(peer, cause);
  }
}

std::optional<AsPath> BgpRouter::advertised_path(const Prefix& prefix,
                                                 const Peer& peer) const {
  auto local = local_routes_.find(prefix);
  if (local != local_routes_.end()) {
    return AsPath(local->second.prepend, config_.as_number);
  }
  auto source = best_source_.find(prefix);
  if (source == best_source_.end() || source->second < 0)
    return std::nullopt;
  const auto& src_peer = peers_[static_cast<std::size_t>(source->second)];
  if (&src_peer == &peer) return std::nullopt;  // never back to the source
  auto it = src_peer.adj_rib_in.find(prefix);
  if (it == src_peer.adj_rib_in.end()) return std::nullopt;
  AsPath path;
  path.reserve(it->second.path.size() + 1);
  path.push_back(config_.as_number);
  path.insert(path.end(), it->second.path.begin(), it->second.path.end());
  return path;
}

void BgpRouter::schedule_advertisement(Peer& peer, std::uint64_t cause) {
  if (peer.mrai_cause == 0) peer.mrai_cause = cause;
  if (peer.mrai_timer.valid()) {
    // A flush is already scheduled; the new prefixes ride along.
  }
  peer.mrai_timer.cancel();
  peer.mrai_timer = net_.sim().schedule(config_.profile.mrai, [this, &peer] {
    flush_advertisements(peer);
  });
}

void BgpRouter::flush_advertisements(Peer& peer) {
  if (peer.state != SessionState::kEstablished) return;
  const std::uint64_t cause = peer.mrai_cause;
  peer.mrai_cause = 0;
  peer.mrai_timer = netsim::TimerHandle{};

  // Withdrawals first, as one UPDATE.
  if (!peer.pending_withdraw.empty()) {
    UpdateMessage update;
    for (const auto& prefix : peer.pending_withdraw) {
      update.withdrawn.push_back(prefix);
      peer.advertised.erase(prefix);
    }
    peer.pending_withdraw.clear();
    send_message(peer, std::move(update), cause);
  }

  // Announcements grouped by identical path.
  std::map<AsPath, std::vector<Prefix>> groups;
  for (const auto& prefix : peer.pending) {
    const auto path = advertised_path(prefix, peer);
    if (!path) continue;
    groups[*path].push_back(prefix);
  }
  peer.pending.clear();
  const Ipv4Addr own_addr = net_.iface(node_, peer.iface).address;
  for (auto& [path, prefixes] : groups) {
    UpdateMessage update;
    update.as_path = path;
    update.next_hop = own_addr;
    update.nlri = std::move(prefixes);
    for (const auto& prefix : update.nlri) peer.advertised.insert(prefix);
    send_message(peer, std::move(update), cause);
  }
}

void BgpRouter::originate(Prefix prefix, std::size_t prepend) {
  local_routes_[prefix] = LocalRoute{std::max<std::size_t>(1, prepend)};
  decide(prefix, current_cause_);
}

bool BgpRouter::withdraw(Prefix prefix) {
  if (local_routes_.erase(prefix) == 0) return false;
  decide(prefix, current_cause_);
  return true;
}

SessionState BgpRouter::session_state(netsim::IfaceIndex iface) const {
  for (const auto& p : peers_)
    if (p.iface == iface) return p.state;
  return SessionState::kIdle;
}

bool BgpRouter::all_sessions_established() const {
  for (const auto& p : peers_)
    if (p.state != SessionState::kEstablished) return false;
  return !peers_.empty();
}

std::vector<BgpRoute> BgpRouter::routes() const {
  std::vector<BgpRoute> out;
  for (const auto& [prefix, source] : best_source_) {
    BgpRoute r;
    r.prefix = prefix;
    if (source == kLocal) {
      r.local = true;
    } else {
      const auto& peer = peers_[static_cast<std::size_t>(source)];
      auto it = peer.adj_rib_in.find(prefix);
      if (it == peer.adj_rib_in.end()) continue;
      r.path = it->second.path;
      r.via = it->second.next_hop;
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace nidkit::bgp
