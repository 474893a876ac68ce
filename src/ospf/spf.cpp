// Shortest-path-first route computation (§16), single area, with
// equal-cost multipath.
//
// The routing table is not needed for causal mining, but it is what the
// protocol exists to produce — tests assert on it to prove that both
// behaviour profiles converge to identical routes (the implementations are
// interoperable at the *routing* level even where their packet-level
// behaviours differ).
//
// compute_routes is the flat kernel (see spf.hpp). Vertices are dense
// indices assigned in (is_network, id) order, which is exactly the Vertex
// ordering of the original std::map/std::set version (now the test oracle
// in tests/ospf/spf_reference.cpp), so the binary heap pops equal-cost
// candidates in the same sequence and ECMP hop propagation matches bit for
// bit.
#include "ospf/spf.hpp"

#include <algorithm>

namespace nidkit::ospf {

namespace {

using HopSet = SpfScratch::HopSet;

/// Inserts `x` into the sorted-unique set `h` (no-op when present).
void insert_sorted(HopSet& h, RouterId x) {
  RouterId* pos = std::lower_bound(h.begin(), h.end(), x);
  if (pos != h.end() && *pos == x) return;
  const std::size_t at = static_cast<std::size_t>(pos - h.begin());
  h.push_back(x);  // may reallocate; recompute the insertion point
  std::rotate(h.begin() + at, h.end() - 1, h.end());
}

/// Replaces `h` with the `n` sorted-unique elements at `src`.
void assign_hops(HopSet& h, const RouterId* src, std::size_t n) {
  h.clear();
  h.reserve(n);
  for (std::size_t i = 0; i < n; ++i) h.push_back(src[i]);
}

/// Does the router LSA `body` link back to the vertex (`is_network`, `id`)?
bool links_back(const RouterLsaBody* body, bool is_network, Ipv4Addr id) {
  if (body == nullptr) return false;
  for (const auto& l : body->links) {
    if (is_network && l.type == RouterLinkType::kTransit && l.link_id == id)
      return true;
    if (!is_network && l.type == RouterLinkType::kPointToPoint &&
        l.link_id == id)
      return true;
  }
  return false;
}

}  // namespace

void compute_routes(const Lsdb& lsdb, RouterId self, SimTime now,
                    SpfScratch& s, std::vector<Route>& out,
                    SimTime* valid_until) {
  out.clear();
  s.routers.clear();
  s.networks.clear();
  s.externals.clear();
  s.offers.clear();
  s.heap.clear();

  // ---- Collection: deduplicate the typed index into flat slot arrays.
  //
  // The index is in LsaKey order, so entries sharing a link-state id are
  // adjacent and ordered by advertising router; the last *live* one wins —
  // the same outcome as the reference's map-overwrite with MaxAge entries
  // skipped. A wrong-variant body stores nullptr and acts as absent
  // downstream, again matching the reference.
  //
  // The validity horizon is the earliest instant any live LSA crosses
  // MaxAge: age_at() truncates to whole seconds, so entry `e` flips exactly
  // at installed_at + seconds(kMaxAgeSeconds - header.age).
  SimTime horizon = SimTime::max();
  const auto live = [&](const Lsdb::Entry& e) {
    if (lsdb.age_at(e, now) >= kMaxAgeSeconds) return false;
    const SimTime flip =
        e.installed_at +
        std::chrono::seconds(kMaxAgeSeconds - e.lsa.header.age);
    horizon = std::min(horizon, flip);
    return true;
  };

  const Lsdb::TypedIndex& idx = lsdb.typed_index();
  for (const auto& [id, entry] : idx.routers) {
    if (!live(*entry)) continue;
    const auto* body = std::get_if<RouterLsaBody>(&entry->lsa.body);
    if (!s.routers.empty() && s.routers.back().id == id)
      s.routers.back().body = body;
    else
      s.routers.push_back({id, body});
  }
  for (const auto& [id, entry] : idx.networks) {
    if (!live(*entry)) continue;
    const auto* body = std::get_if<NetworkLsaBody>(&entry->lsa.body);
    if (!s.networks.empty() && s.networks.back().id == id)
      s.networks.back().body = body;
    else
      s.networks.push_back({id, body});
  }
  for (const auto& ref : idx.externals) {
    if (!live(*ref.entry)) continue;
    const auto* body = std::get_if<ExternalLsaBody>(&ref.entry->lsa.body);
    if (!s.externals.empty() && s.externals.back().prefix == ref.prefix) {
      s.externals.back().origin = ref.origin;
      s.externals.back().body = body;
    } else {
      s.externals.push_back({ref.prefix, ref.origin, body});
    }
  }
  if (valid_until != nullptr) *valid_until = horizon;

  // Id → vertex index lookups over the sorted slot arrays.
  const std::uint32_t R = static_cast<std::uint32_t>(s.routers.size());
  const std::uint32_t V = R + static_cast<std::uint32_t>(s.networks.size());
  const auto router_index = [&](Ipv4Addr id) -> std::int64_t {
    auto it = std::lower_bound(
        s.routers.begin(), s.routers.end(), id,
        [](const SpfScratch::RouterSlot& a, Ipv4Addr b) { return a.id < b; });
    if (it == s.routers.end() || it->id != id) return -1;
    return it - s.routers.begin();
  };
  const auto network_index = [&](Ipv4Addr id) -> std::int64_t {
    auto it = std::lower_bound(
        s.networks.begin(), s.networks.end(), id,
        [](const SpfScratch::NetworkSlot& a, Ipv4Addr b) { return a.id < b; });
    if (it == s.networks.end() || it->id != id) return -1;
    return it - s.networks.begin();
  };

  const std::int64_t self_slot = router_index(Ipv4Addr{self.value()});
  if (self_slot < 0) return;
  const std::uint32_t self_idx = static_cast<std::uint32_t>(self_slot);

  // ---- Dijkstra over dense vertex indices.
  s.dist.assign(V, 0);
  s.reached.assign(V, 0);
  s.done.assign(V, 0);
  if (s.hops.size() < V) s.hops.resize(V);
  for (std::uint32_t i = 0; i < V; ++i) s.hops[i].clear();

  const auto relax = [&](std::uint32_t to, std::uint32_t nd,
                         const RouterId* hp, std::size_t hn) {
    if (!s.reached[to] || nd < s.dist[to]) {
      s.reached[to] = 1;
      s.dist[to] = nd;
      assign_hops(s.hops[to], hp, hn);
      s.heap.push_back((std::uint64_t{nd} << 32) | to);
      std::push_heap(s.heap.begin(), s.heap.end(),
                     std::greater<std::uint64_t>{});
    } else if (nd == s.dist[to]) {
      // Equal-cost path: merge the next-hop sets (ECMP).
      for (std::size_t i = 0; i < hn; ++i) insert_sorted(s.hops[to], hp[i]);
    }
  };

  s.reached[self_idx] = 1;
  s.dist[self_idx] = 0;
  s.heap.push_back(self_idx);

  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<std::uint64_t>{});
    const std::uint64_t word = s.heap.back();
    s.heap.pop_back();
    const std::uint32_t v = static_cast<std::uint32_t>(word & 0xffffffffu);
    const std::uint32_t d = static_cast<std::uint32_t>(word >> 32);
    if (s.done[v]) continue;
    s.done[v] = 1;

    if (v < R) {
      const RouterLsaBody* body = s.routers[v].body;
      if (body == nullptr) continue;
      const Ipv4Addr vid = s.routers[v].id;
      for (const auto& l : body->links) {
        if (l.type == RouterLinkType::kPointToPoint) {
          const std::int64_t to = router_index(l.link_id);
          // Bidirectional check: the neighbor must link back to us.
          if (to < 0 || !links_back(s.routers[to].body, false, vid)) continue;
          // Self's direct successors are their own first hop; everything
          // beyond inherits our first hops.
          const RouterId hop{l.link_id.value()};
          const HopSet& inherited = s.hops[v];
          if (v == self_idx)
            relax(static_cast<std::uint32_t>(to), d + l.metric, &hop, 1);
          else
            relax(static_cast<std::uint32_t>(to), d + l.metric,
                  inherited.data(), inherited.size());
        } else if (l.type == RouterLinkType::kTransit) {
          const std::int64_t to = network_index(l.link_id);
          if (to < 0 || s.networks[to].body == nullptr) continue;
          const HopSet& inherited = s.hops[v];
          relax(R + static_cast<std::uint32_t>(to), d + l.metric,
                v == self_idx ? nullptr : inherited.data(),
                v == self_idx ? 0 : inherited.size());
        }
      }
    } else {
      const SpfScratch::NetworkSlot& net = s.networks[v - R];
      if (net.body == nullptr) continue;
      for (const auto& attached : net.body->attached_routers) {
        const std::int64_t to = router_index(Ipv4Addr{attached.value()});
        if (to < 0 || !links_back(s.routers[to].body, true, net.id)) continue;
        // Network-to-router edges cost 0 (§16.1). Crossing the LAN from
        // self makes the attached router the first hop.
        const HopSet& inherited = s.hops[v];
        if (inherited.empty())
          relax(static_cast<std::uint32_t>(to), d, &attached, 1);
        else
          relax(static_cast<std::uint32_t>(to), d, inherited.data(),
                inherited.size());
      }
    }
  }

  // ---- Route assembly: transit networks, stub prefixes, and externals
  // via their ASBR. Offers are gathered flat, sorted by (prefix, mask,
  // cost), and merged per group — min cost wins, equal-cost offers union
  // their next hops. The union is order-independent, so this matches the
  // reference's incremental map merge exactly.
  const auto offer = [&](Ipv4Addr prefix, Ipv4Addr mask, std::uint32_t cost,
                         std::uint32_t vertex) {
    s.offers.push_back({prefix.value(), mask.value(), cost, vertex});
  };

  for (std::uint32_t v = 0; v < V; ++v) {
    if (!s.reached[v]) continue;
    if (v < R) {
      const RouterLsaBody* body = s.routers[v].body;
      if (body == nullptr) continue;
      for (const auto& l : body->links) {
        if (l.type != RouterLinkType::kStub) continue;
        offer(l.link_id, l.link_data, s.dist[v] + l.metric, v);
      }
    } else {
      const SpfScratch::NetworkSlot& net = s.networks[v - R];
      if (net.body == nullptr) continue;
      const auto mask = net.body->network_mask;
      offer(Ipv4Addr{net.id.value() & mask.value()}, mask, s.dist[v], v);
    }
  }
  for (const auto& ext : s.externals) {
    if (ext.body == nullptr) continue;
    const std::int64_t asbr = router_index(Ipv4Addr{ext.origin.value()});
    if (asbr < 0 || !s.reached[asbr]) continue;
    offer(ext.prefix, ext.body->network_mask,
          s.dist[asbr] + ext.body->metric, static_cast<std::uint32_t>(asbr));
  }

  std::sort(s.offers.begin(), s.offers.end(),
            [](const SpfScratch::Offer& a, const SpfScratch::Offer& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              if (a.mask != b.mask) return a.mask < b.mask;
              return a.cost < b.cost;
            });

  HopSet merged;
  for (std::size_t i = 0; i < s.offers.size();) {
    const SpfScratch::Offer& first = s.offers[i];
    merged.clear();
    std::size_t j = i;
    for (; j < s.offers.size() && s.offers[j].prefix == first.prefix &&
           s.offers[j].mask == first.mask;
         ++j) {
      if (s.offers[j].cost != first.cost) continue;  // sorted: only ties merge
      const std::uint32_t v = s.offers[j].vertex;
      if (v == self_idx) continue;  // self's own prefixes have no next hop
      for (const RouterId& h : s.hops[v]) insert_sorted(merged, h);
    }
    Route r;
    r.prefix = Ipv4Addr{first.prefix};
    r.mask = Ipv4Addr{first.mask};
    r.cost = first.cost;
    r.next_hops.assign(merged.begin(), merged.end());
    r.via = r.next_hops.empty() ? RouterId{} : r.next_hops.front();
    out.push_back(std::move(r));
    i = j;
  }
}

}  // namespace nidkit::ospf
