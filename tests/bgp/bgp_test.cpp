// BGP engine tests: session FSM, route propagation, path selection, loop
// prevention, withdrawal — and the 2009-incident behaviour split.
#include <gtest/gtest.h>

#include <memory>

#include "bgp/bgp_router.hpp"

namespace nidkit::bgp {
namespace {

using namespace std::chrono_literals;

struct BgpRig {
  BgpRig() = default;
  BgpRig(const BgpRig&) = delete;
  BgpRig& operator=(const BgpRig&) = delete;

  netsim::Simulator sim;
  netsim::Network net{sim, 9};
  std::vector<netsim::NodeId> nodes;
  std::vector<std::unique_ptr<BgpRouter>> routers;

  void init_line(std::size_t n, const BgpProfile& profile,
                 SimDuration delay = 50ms) {
    for (std::size_t i = 0; i < n; ++i)
      nodes.push_back(net.add_node("as" + std::to_string(65001 + i)));
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto seg = net.add_p2p(nodes[i], nodes[i + 1]);
      net.fault(seg).delay = delay;
      net.fault(seg).fifo = true;
    }
    for (std::size_t i = 0; i < n; ++i) {
      BgpConfig cfg;
      cfg.as_number = static_cast<std::uint16_t>(65001 + i);
      const auto b = static_cast<std::uint8_t>(i + 1);
      cfg.router_id = RouterId{b, b, b, b};
      cfg.profile = profile;
      routers.push_back(
          std::make_unique<BgpRouter>(net, nodes[i], cfg, 70 + i));
    }
  }

  void start_all() {
    for (auto& r : routers) r->start();
  }
  void run_for(SimDuration d) { sim.run_until(sim.now() + d); }
  BgpRouter& r(std::size_t i) { return *routers.at(i); }
};

Prefix test_prefix(std::uint8_t third = 10) {
  return Prefix{Ipv4Addr{172, 16, third, 0}, 24};
}

TEST(Bgp, SessionsEstablish) {
  BgpRig rig;
  rig.init_line(2, bgp_robust_profile());
  rig.start_all();
  rig.run_for(10s);
  EXPECT_EQ(rig.r(0).session_state(0), SessionState::kEstablished);
  EXPECT_EQ(rig.r(1).session_state(0), SessionState::kEstablished);
}

TEST(Bgp, RoutePropagatesAlongLine) {
  BgpRig rig;
  rig.init_line(4, bgp_robust_profile());
  rig.start_all();
  rig.run_for(10s);
  rig.r(0).originate(test_prefix());
  rig.run_for(10s);
  const auto routes = rig.r(3).routes();
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].prefix, test_prefix());
  // Path accumulated one AS per hop: 65003, 65002, 65001.
  EXPECT_EQ(routes[0].path, (AsPath{65003, 65002, 65001}));
}

TEST(Bgp, LocallyOriginatedBeatsLearned) {
  BgpRig rig;
  rig.init_line(2, bgp_robust_profile());
  rig.start_all();
  rig.run_for(10s);
  rig.r(0).originate(test_prefix());
  rig.r(1).originate(test_prefix());
  rig.run_for(10s);
  for (int i = 0; i < 2; ++i) {
    const auto routes = rig.r(i).routes();
    ASSERT_EQ(routes.size(), 1u);
    EXPECT_TRUE(routes[0].local) << "router " << i;
  }
}

TEST(Bgp, ShortestPathWinsInRing) {
  // Square ring of 4: as3 reaches as1's prefix via as2 OR as4 (2 hops
  // each); as2 reaches it directly (1 hop).
  BgpRig rig;
  rig.init_line(4, bgp_robust_profile());
  const auto seg = rig.net.add_p2p(rig.nodes[3], rig.nodes[0]);
  rig.net.fault(seg).delay = 50ms;
  rig.net.fault(seg).fifo = true;
  rig.start_all();
  rig.run_for(10s);
  rig.r(0).originate(test_prefix());
  rig.run_for(20s);
  const auto at_r3 = rig.r(3).routes();
  ASSERT_EQ(at_r3.size(), 1u);
  EXPECT_EQ(at_r3[0].path.size(), 1u);  // direct: {65001}
  const auto at_r2 = rig.r(2).routes();
  ASSERT_EQ(at_r2.size(), 1u);
  EXPECT_EQ(at_r2[0].path.size(), 2u);  // via 65002 or 65004
}

TEST(Bgp, TriangleConvergesDespiteCycle) {
  BgpRig rig;
  rig.init_line(3, bgp_robust_profile());
  const auto seg = rig.net.add_p2p(rig.nodes[2], rig.nodes[0]);  // triangle
  rig.net.fault(seg).delay = 50ms;
  rig.net.fault(seg).fifo = true;
  rig.start_all();
  rig.run_for(10s);
  rig.r(0).originate(test_prefix());
  rig.run_for(30s);
  // Despite the cycle, every router holds exactly one best route.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(rig.r(i).routes().size(), 1u) << "router " << i;
}

TEST(Bgp, LoopPreventionRejectsOwnAs) {
  // Source-peer split horizon suppresses most natural loops, so exercise
  // the AS_PATH check directly: hand the router an UPDATE whose path
  // already contains its own AS.
  BgpRig rig;
  rig.init_line(2, bgp_robust_profile());
  rig.start_all();
  rig.run_for(10s);
  ASSERT_EQ(rig.r(1).session_state(0), SessionState::kEstablished);

  UpdateMessage update;
  update.as_path = {65001, 65002, 64999};  // 65002 is r1's own AS
  update.next_hop = rig.net.iface(rig.nodes[0], 0).address;
  update.nlri = {test_prefix()};
  BgpMessage msg;
  msg.body = update;
  netsim::Frame frame;
  frame.dst = rig.net.iface(rig.nodes[1], 0).address;
  frame.protocol = kIpProtoTcp;
  frame.payload = encode(msg);
  rig.net.send(rig.nodes[0], 0, std::move(frame));
  rig.run_for(5s);

  EXPECT_EQ(rig.r(1).stats().loop_rejects, 1u);
  EXPECT_TRUE(rig.r(1).routes().empty());
}

TEST(Bgp, WithdrawRemovesRouteEverywhere) {
  BgpRig rig;
  rig.init_line(3, bgp_robust_profile());
  rig.start_all();
  rig.run_for(10s);
  rig.r(0).originate(test_prefix());
  rig.run_for(10s);
  ASSERT_EQ(rig.r(2).routes().size(), 1u);
  EXPECT_TRUE(rig.r(0).withdraw(test_prefix()));
  rig.run_for(10s);
  EXPECT_TRUE(rig.r(2).routes().empty());
  EXPECT_FALSE(rig.r(0).withdraw(test_prefix()));  // already gone
}

TEST(Bgp, HoldTimerDetectsSilentPeer) {
  BgpRig rig;
  rig.init_line(2, bgp_robust_profile());
  rig.start_all();
  rig.run_for(10s);
  rig.net.fault(0).down = true;
  rig.run_for(95s);  // hold time 90 s
  EXPECT_NE(rig.r(0).session_state(0), SessionState::kEstablished);
  EXPECT_GT(rig.r(0).stats().session_resets, 0u);
}

TEST(Bgp, SessionRecoversAfterLinkRestored) {
  BgpRig rig;
  rig.init_line(2, bgp_robust_profile());
  rig.start_all();
  rig.run_for(10s);
  rig.r(0).originate(test_prefix());
  rig.run_for(5s);
  rig.net.fault(0).down = true;
  rig.run_for(120s);
  rig.net.fault(0).down = false;
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).session_state(0), SessionState::kEstablished);
  ASSERT_EQ(rig.r(1).routes().size(), 1u);  // route re-learned
}

TEST(Bgp, RouteLostWhenSessionDies) {
  BgpRig rig;
  rig.init_line(2, bgp_robust_profile());
  rig.start_all();
  rig.run_for(10s);
  rig.r(0).originate(test_prefix());
  rig.run_for(5s);
  ASSERT_EQ(rig.r(1).routes().size(), 1u);
  rig.net.fault(0).down = true;
  rig.run_for(100s);
  EXPECT_TRUE(rig.r(1).routes().empty());
}

// ---- The 2009 incident ----

TEST(Bgp, RobustNetworkCarriesLongPath) {
  BgpRig rig;
  rig.init_line(3, bgp_robust_profile());
  rig.start_all();
  rig.run_for(10s);
  rig.r(0).originate(test_prefix(), /*prepend=*/120);
  rig.run_for(20s);
  const auto routes = rig.r(2).routes();
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].path.size(), 121u);  // 120 prepends + as 65002
  std::uint64_t resets = 0;
  for (int i = 0; i < 3; ++i) resets += rig.r(i).stats().session_resets;
  EXPECT_EQ(resets, 0u);
}

TEST(Bgp, FragileNetworkResetLoopsOnLongPath) {
  BgpRig rig;
  rig.init_line(2, bgp_fragile_profile());
  rig.start_all();
  rig.run_for(10s);
  rig.r(0).originate(test_prefix(), /*prepend=*/120);
  rig.run_for(120s);
  // The receiver keeps rejecting the announcement: NOTIFICATION, reset,
  // re-establish, re-announce, reject again — the incident's reset loop.
  EXPECT_GE(rig.r(1).stats().long_path_rejects, 3u);
  EXPECT_GE(rig.r(1).stats().tx_notification, 3u);
  EXPECT_GE(rig.r(0).stats().session_resets +
                rig.r(1).stats().session_resets,
            6u);
  // The long-path route never sticks.
  EXPECT_TRUE(rig.r(1).routes().empty());
}

TEST(Bgp, FragileAcceptsPathsUnderTheLimit) {
  BgpRig rig;
  rig.init_line(2, bgp_fragile_profile());
  rig.start_all();
  rig.run_for(10s);
  rig.r(0).originate(test_prefix(), /*prepend=*/50);  // below the 100 limit
  rig.run_for(20s);
  ASSERT_EQ(rig.r(1).routes().size(), 1u);
  EXPECT_EQ(rig.r(1).stats().long_path_rejects, 0u);
}

TEST(Bgp, MixedNetworkOnlyFragileSideFlaps) {
  BgpRig rig;
  rig.init_line(3, bgp_robust_profile());
  rig.start_all();
  rig.run_for(10s);
  // Replace nothing — instead build a custom pair: robust r0/r1 already
  // running; verify a fragile third router wedged onto the line flaps
  // while the robust pair stays up.
  // (Mixed profiles per router require manual construction.)
  BgpRig mixed;
  mixed.nodes.push_back(mixed.net.add_node("a"));
  mixed.nodes.push_back(mixed.net.add_node("b"));
  mixed.nodes.push_back(mixed.net.add_node("c"));
  for (int i = 0; i < 2; ++i) {
    const auto seg = mixed.net.add_p2p(mixed.nodes[i], mixed.nodes[i + 1]);
    mixed.net.fault(seg).delay = 50ms;
    mixed.net.fault(seg).fifo = true;
  }
  auto make = [&](int i, const BgpProfile& p) {
    BgpConfig cfg;
    cfg.as_number = static_cast<std::uint16_t>(65001 + i);
    const auto b = static_cast<std::uint8_t>(i + 1);
    cfg.router_id = RouterId{b, b, b, b};
    cfg.profile = p;
    mixed.routers.push_back(
        std::make_unique<BgpRouter>(mixed.net, mixed.nodes[i], cfg, 80 + i));
  };
  make(0, bgp_robust_profile());
  make(1, bgp_robust_profile());
  make(2, bgp_fragile_profile());
  mixed.start_all();
  mixed.run_for(10s);
  mixed.r(0).originate(test_prefix(), /*prepend=*/120);
  mixed.run_for(120s);
  // The robust pair keeps its session; the fragile edge flaps.
  EXPECT_EQ(mixed.r(0).session_state(0), SessionState::kEstablished);
  EXPECT_GT(mixed.r(2).stats().long_path_rejects, 0u);
  EXPECT_GT(mixed.r(2).stats().session_resets, 0u);
  // The robust middle router carries the route; the fragile edge never
  // holds it.
  EXPECT_EQ(mixed.r(1).routes().size(), 1u);
  EXPECT_TRUE(mixed.r(2).routes().empty());
}

TEST(Bgp, StatsCountMessages) {
  BgpRig rig;
  rig.init_line(2, bgp_robust_profile());
  rig.start_all();
  rig.run_for(120s);
  const auto& s = rig.r(0).stats();
  EXPECT_GE(s.tx_open, 1u);
  EXPECT_GE(s.rx_open, 1u);
  EXPECT_GE(s.tx_keepalive, 3u);  // periodic keepalives flowing
  EXPECT_EQ(s.tx_notification, 0u);
}

}  // namespace
}  // namespace nidkit::bgp
