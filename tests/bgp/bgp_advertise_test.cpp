// BGP advertisement mechanics: MRAI batching, path grouping, withdrawal
// propagation, keepalive/hold interplay.
#include <gtest/gtest.h>

#include <memory>

#include "bgp/bgp_router.hpp"

namespace nidkit::bgp {
namespace {

using namespace std::chrono_literals;

struct Rig2 {
  Rig2() {
    nodes.push_back(net.add_node("a"));
    nodes.push_back(net.add_node("b"));
    const auto seg = net.add_p2p(nodes[0], nodes[1]);
    net.fault(seg).delay = 50ms;
    net.fault(seg).fifo = true;
    for (int i = 0; i < 2; ++i) {
      BgpConfig cfg;
      cfg.as_number = static_cast<std::uint16_t>(65001 + i);
      const auto b = static_cast<std::uint8_t>(i + 1);
      cfg.router_id = RouterId{b, b, b, b};
      cfg.profile = bgp_robust_profile();
      routers.push_back(
          std::make_unique<BgpRouter>(net, nodes[i], cfg, 40 + i));
    }
  }
  netsim::Simulator sim;
  netsim::Network net{sim, 4};
  std::vector<netsim::NodeId> nodes;
  std::vector<std::unique_ptr<BgpRouter>> routers;
  void run_for(SimDuration d) { sim.run_until(sim.now() + d); }
};

Prefix pfx(std::uint8_t third) {
  return Prefix{Ipv4Addr{172, 16, third, 0}, 24};
}

TEST(BgpAdvertise, MraiBatchesSamePathPrefixesIntoOneUpdate) {
  Rig2 rig;
  rig.routers[0]->start();
  rig.routers[1]->start();
  rig.run_for(10s);

  int updates = 0;
  int nlri_total = 0;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.node != rig.nodes[0] || ev.direction != netsim::Direction::kSend)
      return;
    auto d = decode(ev.frame->payload);
    if (!d.ok()) return;
    if (const auto* u = std::get_if<UpdateMessage>(&d.value().body)) {
      ++updates;
      nlri_total += static_cast<int>(u->nlri.size());
    }
  });
  // Three originations within one MRAI window, all sharing the same
  // (locally originated, single-AS) path: one UPDATE, three NLRI.
  for (std::uint8_t i = 0; i < 3; ++i) rig.routers[0]->originate(pfx(i));
  rig.run_for(5s);
  EXPECT_EQ(updates, 1);
  EXPECT_EQ(nlri_total, 3);
}

TEST(BgpAdvertise, DifferentPrependsSplitUpdates) {
  Rig2 rig;
  rig.routers[0]->start();
  rig.routers[1]->start();
  rig.run_for(10s);
  int updates = 0;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.node != rig.nodes[0] || ev.direction != netsim::Direction::kSend)
      return;
    auto d = decode(ev.frame->payload);
    if (d.ok() && std::holds_alternative<UpdateMessage>(d.value().body))
      ++updates;
  });
  rig.routers[0]->originate(pfx(1), 1);
  rig.routers[0]->originate(pfx(2), 5);  // different path length
  rig.run_for(5s);
  EXPECT_EQ(updates, 2) << "distinct AS_PATHs cannot share one UPDATE";
}

TEST(BgpAdvertise, WithdrawalCarriesNoAttributes) {
  Rig2 rig;
  rig.routers[0]->start();
  rig.routers[1]->start();
  rig.run_for(10s);
  rig.routers[0]->originate(pfx(7));
  rig.run_for(5s);
  bool saw_withdraw = false;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.node != rig.nodes[0] || ev.direction != netsim::Direction::kSend)
      return;
    auto d = decode(ev.frame->payload);
    if (!d.ok()) return;
    if (const auto* u = std::get_if<UpdateMessage>(&d.value().body)) {
      if (!u->withdrawn.empty()) {
        saw_withdraw = true;
        EXPECT_TRUE(u->nlri.empty());
        EXPECT_TRUE(u->as_path.empty());
        EXPECT_EQ(u->withdrawn[0], pfx(7));
      }
    }
  });
  rig.routers[0]->withdraw(pfx(7));
  rig.run_for(5s);
  EXPECT_TRUE(saw_withdraw);
  EXPECT_TRUE(rig.routers[1]->routes().empty());
}

TEST(BgpAdvertise, KeepalivesRefreshHoldTimer) {
  Rig2 rig;
  rig.routers[0]->start();
  rig.routers[1]->start();
  // Hold time is 90 s, keepalives every 30 s: the session must survive far
  // beyond one hold interval with no UPDATE traffic at all.
  rig.run_for(400s);
  EXPECT_EQ(rig.routers[0]->session_state(0), SessionState::kEstablished);
  EXPECT_EQ(rig.routers[0]->stats().session_resets, 0u);
}

TEST(BgpAdvertise, ReAdvertisesAfterSessionRecovery) {
  Rig2 rig;
  rig.routers[0]->start();
  rig.routers[1]->start();
  rig.run_for(10s);
  rig.routers[0]->originate(pfx(9));
  rig.run_for(5s);
  ASSERT_EQ(rig.routers[1]->routes().size(), 1u);

  rig.net.fault(0).down = true;
  rig.run_for(120s);  // hold expiry + resets
  EXPECT_TRUE(rig.routers[1]->routes().empty());
  rig.net.fault(0).down = false;
  rig.run_for(60s);
  ASSERT_EQ(rig.routers[1]->routes().size(), 1u);
  EXPECT_EQ(rig.routers[1]->routes()[0].prefix, pfx(9));
}

TEST(BgpAdvertise, BestPathSwitchesOnShorterAlternative) {
  // Triangle: r2 hears r0's prefix directly (1 AS) and via r1 (2 ASes);
  // when the direct session dies, r2 must fall back to the longer path.
  netsim::Simulator sim;
  netsim::Network net(sim, 5);
  std::vector<netsim::NodeId> n = {net.add_node("a"), net.add_node("b"),
                                   net.add_node("c")};
  const auto s01 = net.add_p2p(n[0], n[1]);
  const auto s12 = net.add_p2p(n[1], n[2]);
  const auto s02 = net.add_p2p(n[0], n[2]);
  for (const auto s : {s01, s12, s02}) {
    net.fault(s).delay = 50ms;
    net.fault(s).fifo = true;
  }
  std::vector<std::unique_ptr<BgpRouter>> routers;
  for (int i = 0; i < 3; ++i) {
    BgpConfig cfg;
    cfg.as_number = static_cast<std::uint16_t>(65001 + i);
    const auto b = static_cast<std::uint8_t>(i + 1);
    cfg.router_id = RouterId{b, b, b, b};
    cfg.profile = bgp_robust_profile();
    routers.push_back(std::make_unique<BgpRouter>(net, n[i], cfg, 60 + i));
  }
  for (auto& r : routers) r->start();
  sim.run_until(SimTime{10s});
  routers[0]->originate(pfx(5));
  sim.run_until(SimTime{20s});
  auto at_r2 = routers[2]->routes();
  ASSERT_EQ(at_r2.size(), 1u);
  EXPECT_EQ(at_r2[0].path.size(), 1u);  // direct via the r0-r2 link

  net.fault(s02).down = true;
  sim.run_until(SimTime{150s});  // hold expiry + reconvergence
  at_r2 = routers[2]->routes();
  ASSERT_EQ(at_r2.size(), 1u);
  EXPECT_EQ(at_r2[0].path, (AsPath{65002, 65001}));  // via r1 now
}

}  // namespace
}  // namespace nidkit::bgp
