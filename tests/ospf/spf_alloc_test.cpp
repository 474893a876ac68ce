// Allocation-budget test for the SPF probe paths.
//
// A memoized probe between LSDB changes is a version compare and must not
// touch the heap; a recompute on a warm SpfScratch keeps all of its working
// storage in the scratch, so its only allocations are the output routes'
// next-hop vectors. This binary links nidkit_alloc_count, so both budgets
// are exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ospf/lsdb.hpp"
#include "ospf/spf.hpp"
#include "util/alloc_count.hpp"

namespace nidkit::ospf {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kRouters = 12;

RouterId rid(std::size_t i) {
  const auto b = static_cast<std::uint8_t>(i + 1);
  return RouterId{b, b, b, b};
}

/// A 12-router full mesh (metric 10), each router with a /24 stub.
Lsdb mesh_lsdb() {
  Lsdb db;
  for (std::size_t a = 0; a < kRouters; ++a) {
    Lsa lsa;
    lsa.header.type = LsaType::kRouter;
    lsa.header.link_state_id = Ipv4Addr{rid(a).value()};
    lsa.header.advertising_router = rid(a);
    RouterLsaBody body;
    for (std::size_t b = 0; b < kRouters; ++b)
      if (a != b)
        body.links.push_back({Ipv4Addr{rid(b).value()}, Ipv4Addr{},
                              RouterLinkType::kPointToPoint, 10});
    body.links.push_back({Ipv4Addr{10, 1, static_cast<std::uint8_t>(a), 0},
                          Ipv4Addr{255, 255, 255, 0}, RouterLinkType::kStub,
                          1});
    lsa.body = std::move(body);
    db.install(lsa, SimTime{0});
  }
  return db;
}

TEST(AllocBudget, MemoizedRouteProbeIsAllocationFree) {
  const Lsdb db = mesh_lsdb();
  RouteCache cache;
  SimTime now = 1s;
  (void)cache.get(db, rid(0), now);  // warm: one real SPF run

  std::uint64_t routes = 0;
  const auto before = util::allocation_count();
  for (int i = 0; i < 100'000; ++i) {
    now += SimTime{1};  // 1 us per probe keeps the whole run inside MaxAge
    routes += cache.get(db, rid(0), now).size();
  }
  EXPECT_EQ(util::allocation_count() - before, 0u)
      << "a memoized probe allocated";
  EXPECT_EQ(cache.recomputes(), 1u);
  // One stub route per router: the probes returned the correct table.
  EXPECT_EQ(routes, 100'000u * kRouters);
}

TEST(AllocBudget, WarmFlatSpfAllocatesOnlyItsRoutes) {
  const Lsdb db = mesh_lsdb();
  SpfScratch scratch;
  std::vector<Route> out;
  compute_routes(db, rid(0), 1s, scratch, out);  // warm the scratch

  std::uint64_t with_hops = 0;
  for (const Route& r : out) with_hops += r.next_hops.empty() ? 0 : 1;
  ASSERT_EQ(out.size(), kRouters);
  ASSERT_EQ(with_hops, kRouters - 1);  // every stub but self's own

  const auto before = util::allocation_count();
  for (int i = 0; i < 1'000; ++i) compute_routes(db, rid(0), 1s, scratch, out);
  // The scratch is allocation-free once warm; each recompute allocates
  // only the output's next-hop vectors.
  EXPECT_EQ(util::allocation_count() - before, 1'000u * with_hops);
}

}  // namespace
}  // namespace nidkit::ospf
