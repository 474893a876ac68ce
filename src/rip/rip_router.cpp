#include "rip/rip_router.hpp"

#include <algorithm>

namespace nidkit::rip {

RipProfile rip_classic_profile() {
  RipProfile p;
  p.name = "rip-classic";
  p.update_interval = 30s;
  p.update_jitter = 5s;
  p.poisoned_reverse = false;
  p.triggered_updates = true;
  p.triggered_delay = 2s;  // §3.10.1's 1-5 s suppression
  p.respond_unicast = true;
  return p;
}

RipProfile rip_eager_profile() {
  RipProfile p;
  p.name = "rip-eager";
  p.update_interval = 30s;
  p.update_jitter = 1s;
  p.poisoned_reverse = true;
  p.triggered_updates = true;
  p.triggered_delay = 50ms;  // near-immediate propagation
  p.respond_unicast = true;
  return p;
}

RipProfile rip_v1_profile() {
  RipProfile p;
  p.name = "rip-v1";
  p.send_version = 1;
  p.accept_v1 = true;
  p.poisoned_reverse = false;
  p.triggered_delay = 2s;
  return p;
}

namespace {
Ipv4Addr mask_from_prefix(std::uint8_t prefix_len) {
  if (prefix_len == 0) return Ipv4Addr{0};
  return Ipv4Addr{~std::uint32_t{0} << (32 - prefix_len)};
}

/// Classful mask inference for RIPv1 entries (§3.4 / RFC 1058): class A
/// /8, class B /16, class C /24.
Ipv4Addr classful_mask(Ipv4Addr prefix) {
  const std::uint8_t first = static_cast<std::uint8_t>(prefix.value() >> 24);
  if (first < 128) return Ipv4Addr{255, 0, 0, 0};
  if (first < 192) return Ipv4Addr{255, 255, 0, 0};
  return Ipv4Addr{255, 255, 255, 0};
}
}  // namespace

RipRouter::RipRouter(netsim::Network& net, netsim::NodeId node,
                     RipProfile profile, std::uint64_t seed)
    : net_(net), node_(node), profile_(std::move(profile)), rng_(seed) {
  net_.set_receive_handler(
      node_, [this](netsim::IfaceIndex idx, const netsim::Frame& f) {
        on_frame(idx, f);
      });
}

void RipRouter::start() {
  const auto n_ifaces = net_.iface_count(node_);
  for (netsim::IfaceIndex i = 0; i < n_ifaces; ++i) {
    const auto& ni = net_.iface(node_, i);
    const Ipv4Addr mask = mask_from_prefix(ni.prefix_len);
    RipRoute r;
    r.prefix = Ipv4Addr{ni.address.value() & mask.value()};
    r.mask = mask;
    r.metric = 1;
    r.iface = i;
    r.directly_connected = true;
    table_[PrefixKey{r.prefix.value(), r.mask.value()}] = r;
  }
  if (profile_.request_on_start) {
    const RipPacket req = make_full_table_request();
    for (netsim::IfaceIndex i = 0; i < n_ifaces; ++i)
      send_packet(i, req, kRipMulticast, /*cause=*/0);
  }
  arm_update_timer();
  expiry_timer_ = net_.sim().schedule(1s, [this] { expire_routes(); });
}

void RipRouter::arm_update_timer() {
  SimDuration when = profile_.update_interval;
  if (profile_.update_jitter.count() > 0)
    when += rng_.jitter(SimDuration{0}, profile_.update_jitter) -
            profile_.update_jitter / 2;
  update_timer_ = net_.sim().schedule(when, [this] { periodic_update(); });
}

void RipRouter::periodic_update() {
  for (netsim::IfaceIndex i = 0; i < net_.iface_count(node_); ++i)
    send_full_table(i, kRipMulticast, /*cause=*/0);
  // Periodic updates subsume any pending triggered update (§3.10.1).
  triggered_pending_ = false;
  triggered_timer_.cancel();
  for (auto& [key, r] : table_) r.changed = false;
  arm_update_timer();
}

std::vector<RipPacket> RipRouter::build_responses(netsim::IfaceIndex iface,
                                                  bool changed_only) const {
  std::vector<RipPacket> out;
  RipPacket pkt;
  pkt.command = Command::kResponse;
  for (const auto& [key, r] : table_) {
    if (changed_only && !r.changed) continue;
    std::uint32_t metric = r.metric;
    if (!r.directly_connected && r.iface == iface) {
      // Split horizon: never advertise a route back out the interface it
      // was learned on — with poisoned reverse it goes out as unreachable.
      if (!profile_.poisoned_reverse) continue;
      metric = kInfinityMetric;
    }
    RipEntry e;
    e.prefix = r.prefix;
    e.mask = r.mask;
    e.metric = metric;
    pkt.entries.push_back(e);
    if (pkt.entries.size() == 25) {  // §3.6 message cap: start a new packet
      out.push_back(std::move(pkt));
      pkt = RipPacket{};
      pkt.command = Command::kResponse;
    }
  }
  if (!pkt.entries.empty()) out.push_back(std::move(pkt));
  return out;
}

void RipRouter::send_full_table(netsim::IfaceIndex iface, Ipv4Addr dst,
                                std::uint64_t cause) {
  for (const auto& pkt : build_responses(iface, /*changed_only=*/false))
    send_packet(iface, pkt, dst, cause);
}

void RipRouter::send_packet(netsim::IfaceIndex iface, const RipPacket& pkt,
                            Ipv4Addr dst, std::uint64_t cause) {
  netsim::Frame frame;
  frame.dst = dst;
  frame.protocol = 17;  // UDP (port 520 implied; headers not modeled)
  RipPacket versioned = pkt;
  versioned.version = profile_.send_version;
  frame.payload = encode(versioned);
  frame.caused_by = cause;
  if (pkt.command == Command::kRequest)
    ++stats_.tx_requests;
  else
    ++stats_.tx_responses;
  net_.send(node_, iface, std::move(frame));
}

void RipRouter::on_frame(netsim::IfaceIndex iface,
                         const netsim::Frame& frame) {
  if (frame.protocol != 17) return;
  auto decoded = decode(frame.payload);
  if (!decoded.ok()) return;
  current_cause_ = frame.id;
  RipPacket& pkt = decoded.value();
  if (pkt.version == 1) {
    if (!profile_.accept_v1) {
      // §4.6 compatibility switch set to RIP-2-only: v1 neighbors are
      // silently invisible.
      ++stats_.version_rejected;
      current_cause_ = 0;
      return;
    }
    // v1 entries carry no masks: infer classful ones.
    for (auto& e : pkt.entries)
      if (e.mask.is_zero() && e.afi == kAfInet) e.mask = classful_mask(e.prefix);
  }
  if (pkt.command == Command::kRequest) {
    ++stats_.rx_requests;
    handle_request(iface, pkt, frame.src);
  } else {
    ++stats_.rx_responses;
    handle_response(iface, pkt, frame.src);
  }
  current_cause_ = 0;
}

void RipRouter::handle_request(netsim::IfaceIndex iface, const RipPacket& pkt,
                               Ipv4Addr src) {
  const Ipv4Addr dst = profile_.respond_unicast ? src : kRipMulticast;
  if (pkt.is_full_table_request()) {
    send_full_table(iface, dst, current_cause_);
    return;
  }
  // Specific-route request (§3.9.1): answer exactly what was asked,
  // metric 16 for unknown prefixes, no split horizon applied.
  RipPacket reply;
  reply.command = Command::kResponse;
  for (const auto& e : pkt.entries) {
    RipEntry out = e;
    auto it = table_.find(PrefixKey{e.prefix.value(), e.mask.value()});
    out.metric = it == table_.end() ? kInfinityMetric : it->second.metric;
    reply.entries.push_back(out);
  }
  if (!reply.entries.empty()) send_packet(iface, reply, dst, current_cause_);
}

void RipRouter::handle_response(netsim::IfaceIndex iface,
                                const RipPacket& pkt, Ipv4Addr src) {
  bool any_change = false;
  for (const auto& e : pkt.entries) {
    if (e.afi != kAfInet) continue;
    const std::uint32_t metric =
        std::min<std::uint32_t>(e.metric + 1, kInfinityMetric);
    const PrefixKey key{e.prefix.value(), e.mask.value()};
    auto it = table_.find(key);

    if (it == table_.end()) {
      if (metric >= kInfinityMetric) continue;  // don't learn unreachables
      RipRoute r;
      r.prefix = e.prefix;
      r.mask = e.mask;
      r.metric = metric;
      r.next_hop = src;
      r.iface = iface;
      r.expires = net_.sim().now() + profile_.route_timeout;
      r.changed = true;
      table_[key] = r;
      ++stats_.routes_learned;
      any_change = true;
      continue;
    }

    RipRoute& r = it->second;
    if (r.directly_connected) continue;
    const bool from_next_hop = r.next_hop == src && r.iface == iface;
    if (from_next_hop) {
      r.expires = net_.sim().now() + profile_.route_timeout;
      if (metric != r.metric) {
        r.metric = metric;
        route_changed(r);
        any_change = true;
      }
    } else if (metric < r.metric) {
      r.metric = metric;
      r.next_hop = src;
      r.iface = iface;
      r.expires = net_.sim().now() + profile_.route_timeout;
      route_changed(r);
      any_change = true;
    }
  }
  if (any_change && profile_.triggered_updates) {
    triggered_cause_ = current_cause_;
    schedule_triggered();
  }
}

void RipRouter::route_changed(RipRoute& route) { route.changed = true; }

void RipRouter::schedule_triggered() {
  if (triggered_pending_) return;
  triggered_pending_ = true;
  triggered_timer_ = net_.sim().schedule(profile_.triggered_delay,
                                         [this] { send_triggered(); });
}

void RipRouter::send_triggered() {
  if (!triggered_pending_) return;
  triggered_pending_ = false;
  ++stats_.triggered;
  for (netsim::IfaceIndex i = 0; i < net_.iface_count(node_); ++i) {
    for (const auto& pkt : build_responses(i, /*changed_only=*/true))
      send_packet(i, pkt, kRipMulticast, triggered_cause_);
  }
  for (auto& [key, r] : table_) r.changed = false;
  triggered_cause_ = 0;
}

void RipRouter::expire_routes() {
  const SimTime now = net_.sim().now();
  bool any_change = false;
  for (auto it = table_.begin(); it != table_.end();) {
    RipRoute& r = it->second;
    if (!r.directly_connected && r.metric < kInfinityMetric &&
        now >= r.expires) {
      // Timeout: mark unreachable and advertise the loss (§3.8).
      r.metric = kInfinityMetric;
      r.changed = true;
      r.expires = now + profile_.gc_interval;
      ++stats_.routes_expired;
      any_change = true;
      ++it;
    } else if (!r.directly_connected && r.metric >= kInfinityMetric &&
               now >= r.expires) {
      it = table_.erase(it);  // garbage collection
    } else {
      ++it;
    }
  }
  if (any_change && profile_.triggered_updates) schedule_triggered();
  expiry_timer_ = net_.sim().schedule(1s, [this] { expire_routes(); });
}

std::vector<RipRoute> RipRouter::routes() const {
  std::vector<RipRoute> out;
  out.reserve(table_.size());
  for (const auto& [key, r] : table_) out.push_back(r);
  return out;
}

void RipRouter::originate(Ipv4Addr prefix, Ipv4Addr mask,
                          std::uint32_t metric) {
  RipRoute r;
  r.prefix = prefix;
  r.mask = mask;
  r.metric = metric;
  r.directly_connected = true;
  r.changed = true;
  // An originated prefix belongs to no interface: advertise it everywhere
  // (use an out-of-range iface index so split horizon never suppresses it).
  r.iface = static_cast<netsim::IfaceIndex>(~0u);
  table_[PrefixKey{prefix.value(), mask.value()}] = r;
  if (profile_.triggered_updates) {
    triggered_cause_ = current_cause_;
    schedule_triggered();
  }
}

}  // namespace nidkit::rip
