// SPF (§16) route-computation tests: the protocol's end product. Both
// behaviour profiles must compute identical reachability — packet-level
// divergence notwithstanding, the implementations are interoperable at the
// routing level.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "ospf_test_util.hpp"

namespace nidkit::ospf {
namespace {

using namespace std::chrono_literals;
using testutil::Rig;

std::map<std::uint32_t, Route> routes_by_prefix(Router& r) {
  std::map<std::uint32_t, Route> out;
  for (const auto& route : r.routes()) out[route.prefix.value()] = route;
  return out;
}

TEST(Spf, TwoRouterLinkYieldsOneSubnet) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  const auto routes = rig.r(0).routes();
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].mask, (Ipv4Addr{255, 255, 255, 252}));
  EXPECT_EQ(routes[0].cost, 1u);
}

TEST(Spf, LineTopologyCostsGrowWithDistance) {
  Rig rig;
  testutil::init_line(rig, 4, frr_profile());
  rig.start_all();
  rig.run_for(120s);
  auto routes = rig.r(0).routes();
  ASSERT_EQ(routes.size(), 3u);  // three /30 subnets
  std::vector<std::uint32_t> costs;
  for (const auto& r : routes) costs.push_back(r.cost);
  std::sort(costs.begin(), costs.end());
  EXPECT_EQ(costs, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(Spf, NextHopIsFirstRouterOnPath) {
  Rig rig;
  testutil::init_line(rig, 3, frr_profile());
  rig.start_all();
  rig.run_for(90s);
  // r0's route to the far subnet (r1-r2) goes via r1.
  for (const auto& route : rig.r(0).routes()) {
    if (route.cost == 2) {
      EXPECT_EQ(route.via, rig.id(1));
    }
    if (route.cost == 1) {
      EXPECT_TRUE(route.via.is_zero());  // directly attached
    }
  }
}

TEST(Spf, AllRoutersReachAllSubnets) {
  Rig rig;
  testutil::init_line(rig, 5, frr_profile());
  rig.start_all();
  rig.run_for(150s);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(rig.r(i).routes().size(), 4u) << "router " << i;
}

TEST(Spf, ProfilesComputeIdenticalReachability) {
  for (const auto& profile : {frr_profile(), bird_profile()}) {
    Rig rig;
    testutil::init_line(rig, 4, profile);
    rig.start_all();
    rig.run_for(120s);
    const auto ref = routes_by_prefix(rig.r(0));
    // Opposite end sees the same prefixes (costs differ by vantage).
    const auto far = routes_by_prefix(rig.r(3));
    EXPECT_EQ(ref.size(), far.size()) << profile.name;
    for (const auto& [prefix, route] : ref)
      EXPECT_TRUE(far.count(prefix)) << profile.name;
  }
}

TEST(Spf, ExternalRouteCostsIncludeAsbrDistance) {
  Rig rig;
  testutil::init_line(rig, 3, frr_profile());
  rig.start_all();
  rig.run_for(90s);
  rig.r(2).originate_external(Ipv4Addr{198, 51, 100, 0},
                              Ipv4Addr{255, 255, 255, 0}, 10);
  rig.run_for(30s);
  const auto at_r0 = routes_by_prefix(rig.r(0));
  const auto it = at_r0.find(Ipv4Addr{198, 51, 100, 0}.value());
  ASSERT_NE(it, at_r0.end());
  EXPECT_EQ(it->second.cost, 2u + 10u);  // 2 hops to the ASBR + metric
  EXPECT_EQ(it->second.via, rig.id(1));
}

TEST(Spf, LanTransitNetworkRouted) {
  Rig rig;
  testutil::init_lan(rig, 3, frr_profile());
  rig.start_all();
  rig.run_for(150s);
  const auto routes = rig.r(0).routes();
  ASSERT_FALSE(routes.empty());
  bool found_lan = false;
  for (const auto& r : routes) {
    if (r.mask == (Ipv4Addr{255, 255, 255, 0})) {
      found_lan = true;
      EXPECT_EQ(r.cost, 1u);
    }
  }
  EXPECT_TRUE(found_lan);
}

TEST(Spf, RoutesVanishWhenTopologyPartitions) {
  Rig rig;
  testutil::init_line(rig, 3, frr_profile());
  rig.start_all();
  rig.run_for(90s);
  ASSERT_EQ(rig.r(0).routes().size(), 2u);
  rig.net.fault(1).down = true;  // r1-r2 link
  rig.run_for(90s);
  // The far /30 is no longer reachable from r0: only the local subnet
  // (and r1's stub view of the dead link, which r1 withdraws) remain.
  const auto routes = rig.r(0).routes();
  for (const auto& r : routes) EXPECT_LE(r.cost, 2u);
  EXPECT_LT(routes.size(), 3u);
}

TEST(Spf, EmptyBeforeStart) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  EXPECT_TRUE(rig.r(0).routes().empty());
}

}  // namespace
}  // namespace nidkit::ospf
