// SPF equivalence property suite: the flat kernel (and the memoizing
// RouteCache on top of it) must produce routes identical to the retained
// naive reference implementation on randomized topologies, after every
// LSDB mutation, and across MaxAge expiry horizons — and on three fixed
// shapes sized like the larger audits (a dense mesh, a long ring, and a
// two-tier ISP with a LAN and externals).
//
// The generator deliberately produces the awkward cases the kernel's
// dedup/collection phase must honor: one-sided links (bidirectional check),
// LANs with routers missing their transit back-link, duplicate link-state
// ids from different advertising routers (last-live-wins), wrong-variant
// bodies stored under a key (act as absent), near-MaxAge instances that
// expire mid-run, and equal-cost path meshes (ECMP hop-set merges).
#include <gtest/gtest.h>

#include <vector>

#include "ospf/lsdb.hpp"
#include "ospf/spf.hpp"
#include "spf_reference.hpp"
#include "util/rng.hpp"

using namespace nidkit;
using namespace nidkit::ospf;
using namespace std::chrono_literals;

namespace {

RouterId rid(std::uint32_t i) {
  const auto b = static_cast<std::uint8_t>(i + 1);
  return RouterId{b, b, b, b};
}

Lsa router_lsa(RouterId id, std::vector<RouterLink> links,
               std::uint16_t age = 0, std::int32_t seq_bump = 0) {
  Lsa lsa;
  lsa.header.type = LsaType::kRouter;
  lsa.header.link_state_id = Ipv4Addr{id.value()};
  lsa.header.advertising_router = id;
  lsa.header.age = age;
  lsa.header.seq = kInitialSequenceNumber + seq_bump;
  lsa.body = RouterLsaBody{0, std::move(links)};
  return lsa;
}

Lsa network_lsa(Ipv4Addr dr_addr, RouterId dr, Ipv4Addr mask,
                std::vector<RouterId> attached, std::uint16_t age = 0) {
  Lsa lsa;
  lsa.header.type = LsaType::kNetwork;
  lsa.header.link_state_id = dr_addr;
  lsa.header.advertising_router = dr;
  lsa.header.age = age;
  lsa.body = NetworkLsaBody{mask, std::move(attached)};
  return lsa;
}

Lsa external_lsa(Ipv4Addr prefix, RouterId asbr, std::uint32_t metric,
                 std::uint16_t age = 0) {
  Lsa lsa;
  lsa.header.type = LsaType::kExternal;
  lsa.header.link_state_id = prefix;
  lsa.header.advertising_router = asbr;
  lsa.header.age = age;
  ExternalLsaBody body;
  body.network_mask = Ipv4Addr{255, 255, 255, 0};
  body.type2 = true;
  body.metric = metric;
  lsa.body = body;
  return lsa;
}

/// Every router's flat-kernel table must equal the reference's.
void expect_equivalent(const Lsdb& db, std::size_t n_routers, SimTime now,
                       SpfScratch& scratch, const char* label) {
  std::vector<Route> flat;
  for (std::size_t i = 0; i < n_routers; ++i) {
    SimTime valid_until{};
    compute_routes(db, rid(i), now, scratch, flat, &valid_until);
    const auto ref = compute_routes_reference(db, rid(i), now);
    ASSERT_EQ(flat, ref) << label << ": router " << i << " at t="
                         << now.count() << "us";
    EXPECT_GT(valid_until, now) << label;
  }
}

/// Builds a randomized LSDB over `n` routers: p2p mesh with asymmetric
/// metrics and occasional one-sided advertisement, an optional LAN (with
/// an occasionally missing back-link), stub prefixes, and externals with
/// duplicate prefixes across ASBRs.
struct RandomTopology {
  std::size_t n;
  std::vector<std::vector<RouterLink>> links;  // per-router

  RandomTopology(Rng& rng, std::size_t n_routers) : n(n_routers), links(n) {
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = a + 1; b < n; ++b) {
        if (!rng.chance(0.45)) continue;
        const auto metric =
            static_cast<std::uint16_t>(1 + rng.uniform(8));
        const bool symmetric_metric = rng.chance(0.6);
        const auto back = symmetric_metric
                              ? metric
                              : static_cast<std::uint16_t>(1 + rng.uniform(8));
        links[a].push_back({Ipv4Addr{rid(b).value()}, Ipv4Addr{},
                            RouterLinkType::kPointToPoint, metric});
        // ~1 in 8 links is advertised from one side only: the
        // bidirectional check must keep it out of the tree.
        if (!rng.chance(0.125))
          links[b].push_back({Ipv4Addr{rid(a).value()}, Ipv4Addr{},
                              RouterLinkType::kPointToPoint, back});
      }
    // Stub prefix per router: 192.168.<i>.0/24.
    for (std::size_t i = 0; i < n; ++i)
      links[i].push_back(
          {Ipv4Addr{192, 168, static_cast<std::uint8_t>(i), 0},
           Ipv4Addr{255, 255, 255, 0}, RouterLinkType::kStub,
           static_cast<std::uint16_t>(1 + rng.uniform(4))});
  }

  void install_routers(Lsdb& db, SimTime now) const {
    for (std::size_t i = 0; i < n; ++i)
      db.install(router_lsa(rid(i), links[i]), now);
  }
};

/// A p2p link both ends advertise, at one metric.
void add_p2p(std::vector<std::vector<RouterLink>>& links, std::size_t a,
             std::size_t b, std::uint16_t metric) {
  links[a].push_back({Ipv4Addr{rid(b).value()}, Ipv4Addr{},
                      RouterLinkType::kPointToPoint, metric});
  links[b].push_back({Ipv4Addr{rid(a).value()}, Ipv4Addr{},
                      RouterLinkType::kPointToPoint, metric});
}

/// Installs every router's LSA, each with a host stub route 10.1.0.<i>/32.
void install_with_stubs(Lsdb& db, std::vector<std::vector<RouterLink>> links) {
  for (std::size_t i = 0; i < links.size(); ++i) {
    links[i].push_back({Ipv4Addr{10, 1, 0, static_cast<std::uint8_t>(i)},
                        Ipv4Addr{255, 255, 255, 255}, RouterLinkType::kStub,
                        1});
    db.install(router_lsa(rid(i), links[i]), 0s);
  }
}

}  // namespace

TEST(SpfProperty, FlatKernelMatchesReferenceOnRandomTopologiesWithChurn) {
  SpfScratch scratch;  // shared across cases: reuse must not leak state
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL);
    const std::size_t n = 2 + rng.uniform(7);
    RandomTopology topo(rng, n);

    Lsdb db;
    SimTime now = 0s;
    topo.install_routers(db, now);

    // Optional LAN over a prefix of the routers, with a DR network LSA.
    if (n >= 3 && rng.chance(0.7)) {
      const std::size_t members = 3 + rng.uniform(n - 2);
      const Ipv4Addr dr_addr{10, 0, 99, 1};
      const Ipv4Addr mask{255, 255, 255, 0};
      std::vector<RouterId> attached;
      std::vector<std::vector<RouterLink>> with_lan = topo.links;
      for (std::size_t i = 0; i < members && i < n; ++i) {
        attached.push_back(rid(i));
        // ~1 in 6 members forgets its transit link: the network-to-router
        // bidirectional check must exclude it.
        if (rng.chance(1.0 / 6))
          continue;
        with_lan[i].push_back({dr_addr, Ipv4Addr{10, 0, 99,
                               static_cast<std::uint8_t>(i + 1)},
                               RouterLinkType::kTransit,
                               static_cast<std::uint16_t>(1 + rng.uniform(3))});
      }
      for (std::size_t i = 0; i < n; ++i)
        db.install(router_lsa(rid(i), with_lan[i], 0, 1), now);
      db.install(network_lsa(dr_addr, rid(0), mask, attached), now);
    }

    // Externals: some duplicated across two ASBRs (dedup by prefix).
    const std::size_t n_ext = rng.uniform(4);
    for (std::size_t e = 0; e < n_ext; ++e) {
      const Ipv4Addr prefix{172, 16, static_cast<std::uint8_t>(e), 0};
      db.install(external_lsa(prefix, rid(rng.uniform(n)),
                              1 + static_cast<std::uint32_t>(rng.uniform(20))),
                 now);
      if (rng.chance(0.5))
        db.install(external_lsa(prefix, rid(rng.uniform(n)),
                                1 + static_cast<std::uint32_t>(rng.uniform(20))),
                   now);
    }

    // A wrong-variant body stored under a router key: acts as absent.
    if (rng.chance(0.3)) {
      Lsa bad = router_lsa(rid(rng.uniform(n)), {}, 0, 7);
      bad.body = NetworkLsaBody{Ipv4Addr{255, 255, 255, 0}, {rid(0)}};
      db.install(bad, now);
    }

    // Duplicate link-state id from a *different* advertising router, at
    // MaxAge: per-id dedup must keep the live instance regardless of key
    // order.
    if (rng.chance(0.4)) {
      const std::size_t victim = rng.uniform(n);
      Lsa dup = router_lsa(rid(victim), {}, kMaxAgeSeconds, 3);
      dup.header.advertising_router = rid((victim + 1) % n);
      db.install(dup, now);
    }

    ASSERT_NO_FATAL_FAILURE(
        expect_equivalent(db, n, now, scratch, "initial"));

    // Churn: after every mutation both implementations must still agree.
    for (int step = 0; step < 12; ++step) {
      now += std::chrono::seconds(1 + rng.uniform(30));
      const auto kind = rng.uniform(5);
      const std::size_t who = rng.uniform(n);
      if (kind == 0) {
        // Re-originate a router LSA with a perturbed metric.
        auto links = topo.links[who];
        if (!links.empty())
          links[rng.uniform(links.size())].metric =
              static_cast<std::uint16_t>(1 + rng.uniform(12));
        db.install(router_lsa(rid(who), links, 0, 10 + step), now);
      } else if (kind == 1) {
        // Premature aging: an instance installed at MaxAge disappears
        // from SPF immediately (but stays in the database).
        db.install(router_lsa(rid(who), topo.links[who], kMaxAgeSeconds,
                              10 + step),
                   now);
      } else if (kind == 2) {
        // Near-expiry instance: flips to MaxAge 2 seconds from now.
        db.install(router_lsa(rid(who), topo.links[who],
                              kMaxAgeSeconds - 2, 10 + step),
                   now);
      } else if (kind == 3) {
        db.install(
            external_lsa(Ipv4Addr{172, 17, static_cast<std::uint8_t>(step), 0},
                         rid(who), 5),
            now);
      } else {
        db.remove(LsaKey{LsaType::kExternal,
                         Ipv4Addr{172, 16, 0, 0}, rid(who)});
      }
      ASSERT_NO_FATAL_FAILURE(
          expect_equivalent(db, n, now, scratch, "after churn"));
      // And again after time passes (near-expiry instances cross MaxAge
      // with no version bump).
      now += 5s;
      ASSERT_NO_FATAL_FAILURE(
          expect_equivalent(db, n, now, scratch, "after aging"));
    }
  }
}

TEST(SpfProperty, FlatKernelMatchesReferenceOnBenchShapes) {
  SpfScratch scratch;
  const SimTime now = 30s;

  // A dense, ECMP-heavy full mesh.
  {
    std::vector<std::vector<RouterLink>> links(24);
    for (std::size_t a = 0; a < 24; ++a)
      for (std::size_t b = a + 1; b < 24; ++b) add_p2p(links, a, b, 10);
    Lsdb db;
    install_with_stubs(db, std::move(links));
    ASSERT_NO_FATAL_FAILURE(expect_equivalent(db, 24, now, scratch, "mesh-24"));
  }

  // A sparse ring with long paths and uneven metrics.
  {
    std::vector<std::vector<RouterLink>> links(48);
    for (std::size_t i = 0; i < 48; ++i)
      add_p2p(links, i, (i + 1) % 48, 1 + static_cast<std::uint16_t>(i % 3));
    Lsdb db;
    install_with_stubs(db, std::move(links));
    ASSERT_NO_FATAL_FAILURE(expect_equivalent(db, 48, now, scratch, "ring-48"));
  }

  // A two-tier ISP: an 8-router core mesh, 3 edge routers per core router,
  // a LAN joining the first three cores, and 8 externals at the last core.
  {
    constexpr std::size_t kCore = 8;
    constexpr std::size_t kEdge = 3;
    constexpr std::size_t kRouters = kCore + kCore * kEdge;
    std::vector<std::vector<RouterLink>> links(kRouters);
    for (std::size_t a = 0; a < kCore; ++a)
      for (std::size_t b = a + 1; b < kCore; ++b) add_p2p(links, a, b, 5);
    for (std::size_t c = 0; c < kCore; ++c)
      for (std::size_t e = 0; e < kEdge; ++e)
        add_p2p(links, c, kCore + c * kEdge + e, 20);
    const Ipv4Addr dr_addr{10, 200, 0, 1};
    std::vector<RouterId> attached;
    for (std::size_t c = 0; c < 3; ++c) {
      attached.push_back(rid(c));
      const auto host = static_cast<std::uint8_t>(c + 1);
      links[c].push_back({dr_addr, Ipv4Addr{10, 200, 0, host},
                          RouterLinkType::kTransit, 1});
    }
    Lsdb db;
    install_with_stubs(db, std::move(links));
    db.install(network_lsa(dr_addr, rid(0), Ipv4Addr{255, 255, 255, 0},
                           attached),
               0s);
    for (std::uint8_t e = 0; e < 8; ++e)
      db.install(external_lsa(Ipv4Addr{203, 0, e, 0}, rid(kCore - 1),
                              10u + e),
                 0s);
    ASSERT_NO_FATAL_FAILURE(
        expect_equivalent(db, kRouters, now, scratch, "isp-32"));
  }
}

TEST(SpfProperty, RouteCacheMatchesReferenceAcrossProbesAndExpiry) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
    const std::size_t n = 3 + rng.uniform(5);
    RandomTopology topo(rng, n);

    Lsdb db;
    SimTime now = 0s;
    topo.install_routers(db, now);
    // One instance that expires mid-probe-sequence.
    db.install(external_lsa(Ipv4Addr{172, 20, 0, 0}, rid(0), 3,
                            kMaxAgeSeconds - 30),
               now);

    RouteCache cache;
    const RouterId self = rid(rng.uniform(n));
    std::uint64_t last_recomputes = 0;
    for (int probe = 0; probe < 40; ++probe) {
      // Mostly idle probes; occasional churn.
      if (rng.chance(0.15)) {
        auto links = topo.links[0];
        links[0].metric = static_cast<std::uint16_t>(1 + rng.uniform(12));
        db.install(router_lsa(rid(0), links, 0, 100 + probe), now);
      }
      const auto& cached = cache.get(db, self, now);
      EXPECT_EQ(cached, compute_routes_reference(db, self, now))
          << "probe " << probe << " seed " << seed;
      last_recomputes = cache.recomputes();
      // An immediate re-probe at the same instant must be a pure hit.
      cache.get(db, self, now);
      EXPECT_EQ(cache.recomputes(), last_recomputes);
      now += std::chrono::seconds(2 + rng.uniform(4));
    }
    // The expiring external crossed MaxAge during the sequence; the cache
    // must have recomputed at least twice (initial + horizon).
    EXPECT_GE(cache.recomputes(), 2u);
  }
}

TEST(SpfProperty, MemoizedProbesAreVersionComparesBetweenChanges) {
  Rng rng(77);
  RandomTopology topo(rng, 6);
  Lsdb db;
  topo.install_routers(db, 0s);

  RouteCache cache;
  SimTime now = 0s;
  (void)cache.get(db, rid(0), now);
  EXPECT_EQ(cache.recomputes(), 1u);
  for (int i = 0; i < 100; ++i) {
    now += 1s;
    (void)cache.get(db, rid(0), now);
  }
  // Fresh LSAs (age 0) are hours from MaxAge: zero recomputes in 100 s.
  EXPECT_EQ(cache.recomputes(), 1u);

  // Any install invalidates, even a no-op content overwrite.
  db.install(router_lsa(rid(1), topo.links[1]), now);
  (void)cache.get(db, rid(0), now);
  EXPECT_EQ(cache.recomputes(), 2u);
}
