// SPF equivalence oracle; see spf_reference.hpp.
#include "spf_reference.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

namespace nidkit::ospf {

namespace {

/// SPF vertex: a router (type=Router LSA) or a transit network
/// (type=Network LSA, keyed by the DR's interface address).
struct Vertex {
  bool is_network = false;
  Ipv4Addr id;  ///< router id, or DR interface address for networks

  friend auto operator<=>(const Vertex&, const Vertex&) = default;
};

using RefHopSet = std::set<RouterId>;

}  // namespace

std::vector<Route> compute_routes_reference(const Lsdb& lsdb, RouterId self_id,
                                            SimTime now) {
  // Collect the current router/network LSAs.
  std::map<Ipv4Addr, const RouterLsaBody*> routers;
  std::map<Ipv4Addr, const NetworkLsaBody*> networks;  // by DR address
  std::map<Ipv4Addr, const ExternalLsaBody*> externals;
  std::map<Ipv4Addr, RouterId> external_origin;
  lsdb.for_each([&](const LsaKey& key, const Lsdb::Entry& entry) {
    if (lsdb.age_at(entry, now) >= kMaxAgeSeconds) return;
    switch (key.type) {
      case LsaType::kRouter:
        routers[key.link_state_id] =
            std::get_if<RouterLsaBody>(&entry.lsa.body);
        break;
      case LsaType::kNetwork:
        networks[key.link_state_id] =
            std::get_if<NetworkLsaBody>(&entry.lsa.body);
        break;
      case LsaType::kExternal:
        externals[key.link_state_id] =
            std::get_if<ExternalLsaBody>(&entry.lsa.body);
        external_origin[key.link_state_id] = key.advertising_router;
        break;
      default:
        break;
    }
  });

  const Vertex self{false, Ipv4Addr{self_id.value()}};
  if (routers.find(self.id) == routers.end()) return {};

  // Dijkstra over the bidirectionally-verified LSA graph, accumulating
  // the set of equal-cost first hops per vertex.
  std::map<Vertex, std::uint32_t> dist;
  std::map<Vertex, RefHopSet> first_hops;
  using QEntry = std::pair<std::uint32_t, Vertex>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
  dist[self] = 0;
  pq.push({0, self});
  std::set<Vertex> done;

  // Does `router`'s LSA link back to vertex `v`?
  auto links_back = [&](Ipv4Addr router, const Vertex& v) {
    auto it = routers.find(router);
    if (it == routers.end() || it->second == nullptr) return false;
    for (const auto& l : it->second->links) {
      if (v.is_network && l.type == RouterLinkType::kTransit &&
          l.link_id == v.id)
        return true;
      if (!v.is_network && l.type == RouterLinkType::kPointToPoint &&
          l.link_id == v.id)
        return true;
    }
    return false;
  };

  // First hops toward a vertex reached from `from` via router `to_router`:
  // inherited from `from`, except that self's direct successors are their
  // own first hop.
  auto hops_via = [&](const Vertex& from, RouterId to_router) -> RefHopSet {
    if (from == self) return RefHopSet{to_router};
    auto it = first_hops.find(from);
    return it == first_hops.end() ? RefHopSet{to_router} : it->second;
  };

  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (done.count(v)) continue;
    done.insert(v);

    auto relax = [&](const Vertex& to, std::uint32_t cost,
                     const RefHopSet& hops) {
      auto it = dist.find(to);
      if (it == dist.end() || d + cost < it->second) {
        dist[to] = d + cost;
        first_hops[to] = hops;
        pq.push({d + cost, to});
      } else if (d + cost == it->second) {
        // Equal-cost path: merge the next-hop sets (ECMP).
        first_hops[to].insert(hops.begin(), hops.end());
      }
    };

    if (!v.is_network) {
      auto rit = routers.find(v.id);
      if (rit == routers.end() || rit->second == nullptr) continue;
      for (const auto& l : rit->second->links) {
        if (l.type == RouterLinkType::kPointToPoint) {
          const Vertex to{false, l.link_id};
          // Bidirectional check: the neighbor must link back to us.
          if (!links_back(l.link_id, v)) continue;
          relax(to, l.metric, hops_via(v, RouterId{l.link_id.value()}));
        } else if (l.type == RouterLinkType::kTransit) {
          const Vertex to{true, l.link_id};
          auto nit = networks.find(l.link_id);
          if (nit == networks.end() || nit->second == nullptr) continue;
          relax(to, l.metric,
                v == self ? RefHopSet{} : first_hops[v]);
        }
      }
    } else {
      auto nit = networks.find(v.id);
      if (nit == networks.end() || nit->second == nullptr) continue;
      for (const auto& attached : nit->second->attached_routers) {
        const Vertex to{false, Ipv4Addr{attached.value()}};
        if (!links_back(Ipv4Addr{attached.value()}, v)) continue;
        // Network-to-router edges cost 0 (§16.1). Crossing the LAN from
        // self makes the attached router the first hop.
        auto it = first_hops.find(v);
        const RefHopSet hops = (it == first_hops.end() || it->second.empty())
                                   ? RefHopSet{attached}
                                   : it->second;
        relax(to, 0, hops);
      }
    }
  }

  // Routes: transit networks, stub prefixes, and externals via their ASBR.
  std::map<std::pair<std::uint32_t, std::uint32_t>, Route> best;
  auto offer = [&](Route r) {
    const auto key = std::make_pair(r.prefix.value(), r.mask.value());
    auto it = best.find(key);
    if (it == best.end() || r.cost < it->second.cost) {
      best[key] = std::move(r);
    } else if (r.cost == it->second.cost) {
      // Same destination at the same cost via a different part of the
      // graph: merge next hops.
      auto& hops = it->second.next_hops;
      for (const auto& h : r.next_hops)
        if (std::find(hops.begin(), hops.end(), h) == hops.end())
          hops.push_back(h);
      std::sort(hops.begin(), hops.end());
      it->second.via = hops.empty() ? RouterId{} : hops.front();
    }
  };

  auto route_for = [&](const Vertex& v, Ipv4Addr prefix, Ipv4Addr mask,
                       std::uint32_t cost) {
    Route r;
    r.prefix = prefix;
    r.mask = mask;
    r.cost = cost;
    if (!(v == self)) {
      const auto& hops = first_hops[v];
      r.next_hops.assign(hops.begin(), hops.end());
      r.via = r.next_hops.empty() ? RouterId{} : r.next_hops.front();
    }
    return r;
  };

  for (const auto& [v, d] : dist) {
    if (v.is_network) {
      auto nit = networks.find(v.id);
      if (nit == networks.end() || nit->second == nullptr) continue;
      const auto mask = nit->second->network_mask;
      offer(route_for(v, Ipv4Addr{v.id.value() & mask.value()}, mask, d));
    } else {
      auto rit = routers.find(v.id);
      if (rit == routers.end() || rit->second == nullptr) continue;
      for (const auto& l : rit->second->links) {
        if (l.type != RouterLinkType::kStub) continue;
        offer(route_for(v, l.link_id, l.link_data, d + l.metric));
      }
    }
  }
  for (const auto& [prefix, ext] : externals) {
    if (ext == nullptr) continue;
    const Vertex asbr{false, Ipv4Addr{external_origin[prefix].value()}};
    auto it = dist.find(asbr);
    if (it == dist.end()) continue;
    offer(route_for(asbr, prefix, ext->network_mask,
                    it->second + ext->metric));
  }

  std::vector<Route> out;
  out.reserve(best.size());
  for (auto& [key, r] : best) out.push_back(std::move(r));
  return out;
}

}  // namespace nidkit::ospf
