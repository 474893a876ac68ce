// Self-LSA origination and refresh (§12.4).
//
// Router-LSAs describe our own links; network-LSAs are originated when we
// are a LAN's designated router; external LSAs are injected by workloads
// via originate_external(). Refresh re-originates with an incremented
// sequence number — in scenarios the refresh interval is shortened so that
// greater-LS-SN packet relationships (the paper's Table 2) appear within a
// short run.
#include "ospf/router.hpp"

namespace nidkit::ospf {

std::int32_t Router::next_seq_for(const LsaKey& key) const {
  const auto* entry = lsdb_.find(key);
  if (entry == nullptr) return kInitialSequenceNumber;
  // Sequence wrap (§12.1.6) cannot occur in bounded scenario runs.
  return entry->lsa.header.seq + 1;
}

bool Router::origination_allowed(const LsaKey& key,
                                 std::function<void()> retry) {
  auto last = last_origination_.find(key);
  if (last == last_origination_.end()) return true;
  const SimTime allowed_at = last->second + config_.profile.min_ls_interval;
  if (now() >= allowed_at) return true;
  // MinLSInterval: coalesce bursts of origination triggers into a single
  // deferred re-origination.
  auto pending = pending_origination_.find(key);
  if (pending == pending_origination_.end() || !pending->second.valid()) {
    pending_origination_[key] = net_.sim().schedule_at(
        allowed_at, [this, key, retry = std::move(retry)] {
          pending_origination_.erase(key);
          retry();
        });
  }
  return false;
}

void Router::self_originate(Lsa lsa, std::uint64_t cause) {
  const LsaKey key = key_of(lsa.header);
  lsa.header.age = 0;
  lsa.header.seq = next_seq_for(key);
  lsa.finalize();

  // The superseded instance must vanish from every retransmission list.
  for (auto& oi : ifaces_)
    for (auto& [id, nb] : oi.neighbors) nb.retransmit.erase(key);

  lsdb_.install(lsa, now());
  last_origination_[key] = now();
  ++stats_.lsa_installs;
  ++stats_.self_originations;
  flood(key, /*except=*/nullptr, cause);
  schedule_refresh(key);
}

void Router::schedule_refresh(const LsaKey& key) {
  const SimDuration interval = config_.profile.lsa_refresh_interval;
  if (interval.count() <= 0) return;
  refresh_timers_[key].cancel();
  refresh_timers_[key] =
      net_.sim().schedule(interval, [this, key] { refresh_lsa(key); });
}

void Router::refresh_lsa(const LsaKey& key) {
  const auto* entry = lsdb_.find(key);
  if (entry == nullptr) return;
  ++stats_.lsa_refreshes;
  // Re-originate the current content with a bumped sequence number. For
  // router/network LSAs the content is rebuilt from live interface state
  // so refreshes also pick up topology changes.
  if (key.type == LsaType::kRouter &&
      key.advertising_router == config_.router_id) {
    originate_router_lsa();
    return;
  }
  if (key.type == LsaType::kNetwork) {
    for (auto& oi : ifaces_) {
      if (oi.address == key.link_state_id &&
          oi.state == InterfaceState::kDr) {
        originate_network_lsa(oi);
        return;
      }
    }
  }
  Lsa copy = entry->lsa;
  self_originate(std::move(copy), /*cause=*/0);
}

void Router::originate_router_lsa() {
  const LsaKey key{LsaType::kRouter, Ipv4Addr{config_.router_id.value()},
                   config_.router_id};
  if (!origination_allowed(key, [this] { originate_router_lsa(); })) return;

  RouterLsaBody body;
  if (is_asbr_) body.flags |= 0x02;  // E: AS boundary router

  for (const auto& oi : ifaces_) {
    if (oi.state == InterfaceState::kDown) continue;
    const Ipv4Addr subnet{oi.address.value() & oi.mask.value()};
    const std::uint16_t cost = config_.cost_of(oi.index);

    if (!oi.is_lan) {
      bool have_full = false;
      for (const auto& [id, n] : oi.neighbors) {
        if (n.state == NeighborState::kFull) {
          body.links.push_back(RouterLink{Ipv4Addr{id.value()}, oi.address,
                                          RouterLinkType::kPointToPoint,
                                          cost});
          have_full = true;
        }
      }
      // The subnet itself is always reachable as a stub (§12.4.1.1).
      body.links.push_back(
          RouterLink{subnet, oi.mask, RouterLinkType::kStub, cost});
      (void)have_full;
    } else {
      // LAN: a transit link if the segment has a functioning DR we are
      // synchronized with, otherwise a stub for the subnet.
      bool transit = false;
      if (!oi.dr.is_zero()) {
        if (oi.state == InterfaceState::kDr) {
          for (const auto& [id, n] : oi.neighbors)
            if (n.state == NeighborState::kFull) transit = true;
        } else {
          for (const auto& [id, n] : oi.neighbors)
            if (n.address == oi.dr && n.state == NeighborState::kFull)
              transit = true;
        }
      }
      if (transit) {
        body.links.push_back(
            RouterLink{oi.dr, oi.address, RouterLinkType::kTransit, cost});
      } else {
        body.links.push_back(
            RouterLink{subnet, oi.mask, RouterLinkType::kStub, cost});
      }
    }
  }

  Lsa lsa;
  lsa.header.type = LsaType::kRouter;
  lsa.header.link_state_id = Ipv4Addr{config_.router_id.value()};
  lsa.header.advertising_router = config_.router_id;
  lsa.body = std::move(body);
  self_originate(std::move(lsa), current_cause_);
}

void Router::originate_network_lsa(OspfInterface& oi) {
  if (oi.state != InterfaceState::kDr) return;
  NetworkLsaBody body;
  body.network_mask = oi.mask;
  body.attached_routers.push_back(config_.router_id);
  bool any_full = false;
  for (const auto& [id, n] : oi.neighbors) {
    if (n.state == NeighborState::kFull) {
      body.attached_routers.push_back(id);
      any_full = true;
    }
  }
  if (!any_full) return;  // a network-LSA needs at least two routers

  const LsaKey key{LsaType::kNetwork, oi.address, config_.router_id};
  if (!origination_allowed(key, [this, &oi] { originate_network_lsa(oi); }))
    return;

  Lsa lsa;
  lsa.header.type = LsaType::kNetwork;
  lsa.header.link_state_id = oi.address;
  lsa.header.advertising_router = config_.router_id;
  lsa.body = std::move(body);
  self_originate(std::move(lsa), current_cause_);
}

void Router::originate_external(Ipv4Addr prefix, Ipv4Addr mask,
                                std::uint32_t metric) {
  const bool first_external = !is_asbr_;
  is_asbr_ = true;
  ExternalLsaBody body;
  body.network_mask = mask;
  body.metric = metric;
  body.type2 = true;

  Lsa lsa;
  lsa.header.type = LsaType::kExternal;
  lsa.header.link_state_id = prefix;
  lsa.header.advertising_router = config_.router_id;
  lsa.body = std::move(body);
  self_originate(std::move(lsa), current_cause_);
  ++external_counter_;
  // Becoming an ASBR changes the router-LSA's E flag.
  if (first_external && started_) originate_router_lsa();
}

bool Router::withdraw_external(Ipv4Addr prefix) {
  const LsaKey key{LsaType::kExternal, prefix, config_.router_id};
  const auto* entry = lsdb_.find(key);
  if (entry == nullptr) return false;

  // Premature aging (§14.1): flood the *current* instance at MaxAge. The
  // checksum is unchanged — the Fletcher checksum excludes the age field —
  // so receivers recognize the instance and §13.1 ranks MaxAge as newer.
  Lsa flush = entry->lsa;
  flush.header.age = kMaxAgeSeconds;
  auto it = refresh_timers_.find(key);
  if (it != refresh_timers_.end()) {
    it->second.cancel();
    refresh_timers_.erase(it);
  }
  for (auto& oi : ifaces_)
    for (auto& [id, nb] : oi.neighbors) nb.retransmit.erase(key);
  lsdb_.install(std::move(flush), now());
  flood(key, /*except=*/nullptr, current_cause_);
  schedule_maxage_cleanup(key);
  return true;
}

void Router::schedule_maxage_cleanup(const LsaKey& key) {
  // Poll at the retransmission cadence: once every neighbor has
  // acknowledged the MaxAge instance (it is off all retransmission lists),
  // the LSA leaves the database.
  net_.sim().schedule(config_.profile.rxmt_interval, [this, key] {
    const auto* entry = lsdb_.find(key);
    if (entry == nullptr) return;
    if (lsdb_.age_at(*entry, now()) < kMaxAgeSeconds) return;  // resurrected
    for (const auto& oi : ifaces_)
      for (const auto& [id, nb] : oi.neighbors)
        if (nb.retransmit.count(key)) {
          schedule_maxage_cleanup(key);  // still awaiting acks; try again
          return;
        }
    lsdb_.remove(key);
    ++stats_.maxage_flushes;
  });
}

void Router::bump_self_lsas() {
  std::vector<LsaKey> mine;
  lsdb_.for_each([&](const LsaKey& key, const Lsdb::Entry& entry) {
    (void)entry;
    if (key.advertising_router == config_.router_id) mine.push_back(key);
  });
  for (const auto& key : mine) refresh_lsa(key);
}

}  // namespace nidkit::ospf
