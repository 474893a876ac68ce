// Additional RIP engine behaviour tests: update subsumption, better-path
// switching, next-hop refresh semantics, originated-prefix visibility.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>

#include "netsim/network.hpp"
#include "rip/rip_router.hpp"

namespace nidkit::rip {
namespace {

using namespace std::chrono_literals;

struct Rig {
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  netsim::Simulator sim;
  netsim::Network net{sim, 8};
  std::vector<netsim::NodeId> nodes;
  std::vector<std::unique_ptr<RipRouter>> routers;

  void add(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::string name = "r";
      name += std::to_string(i);
      nodes.push_back(net.add_node(std::move(name)));
    }
  }
  void link(std::size_t a, std::size_t b) {
    const auto seg = net.add_p2p(nodes[a], nodes[b]);
    net.fault(seg).delay = 20ms;
  }
  void make(const RipProfile& profile) {
    for (std::size_t i = 0; i < nodes.size(); ++i)
      routers.push_back(
          std::make_unique<RipRouter>(net, nodes[i], profile, 90 + i));
  }
  void start() {
    for (auto& r : routers) r->start();
  }
  void run_for(SimDuration d) { sim.run_until(sim.now() + d); }
};

std::map<std::uint32_t, RipRoute> table_of(RipRouter& r) {
  std::map<std::uint32_t, RipRoute> out;
  for (const auto& route : r.routes()) out[route.prefix.value()] = route;
  return out;
}

TEST(RipBehavior, PeriodicUpdateSubsumesPendingTriggered) {
  // A triggered update scheduled just before the periodic timer fires must
  // not produce a second (redundant) burst: the periodic full-table
  // response clears the changed flags.
  Rig rig;
  rig.add(2);
  rig.link(0, 1);
  auto profile = rip_classic_profile();
  profile.update_jitter = 0ms;  // deterministic periodic schedule
  profile.triggered_delay = 4s;
  rig.make(profile);
  rig.start();
  rig.run_for(27s);  // periodic fires at t=30

  int responses = 0;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.node != rig.nodes[0] || ev.direction != netsim::Direction::kSend)
      return;
    auto d = decode(ev.frame->payload);
    if (d.ok() && d.value().command == Command::kResponse) ++responses;
  });
  rig.routers[0]->originate(Ipv4Addr{203, 0, 113, 0},
                            Ipv4Addr{255, 255, 255, 0});
  rig.run_for(8s);  // periodic (t=30) lands inside the 4 s suppression
  EXPECT_EQ(responses, 1) << "periodic update must subsume the triggered one";
}

TEST(RipBehavior, SwitchesToBetterMetricFromDifferentNeighbor) {
  // Square: r0 learns r3's prefix via the long side first (if timing so
  // falls), but must end on the 2-hop metric either way.
  Rig rig;
  rig.add(4);
  rig.link(0, 1);
  rig.link(1, 3);
  rig.link(0, 2);
  rig.link(2, 3);
  rig.make(rip_eager_profile());
  rig.start();
  rig.run_for(90s);
  rig.routers[3]->originate(Ipv4Addr{198, 51, 100, 0},
                            Ipv4Addr{255, 255, 255, 0});
  rig.run_for(60s);
  const auto t0 = table_of(*rig.routers[0]);
  const auto it = t0.find(Ipv4Addr{198, 51, 100, 0}.value());
  ASSERT_NE(it, t0.end());
  EXPECT_EQ(it->second.metric, 3u);  // origin 1 + two hops
}

TEST(RipBehavior, WorseNewsFromCurrentNextHopIsBelieved) {
  // §3.9.2: a higher metric from the route's own next hop must replace the
  // entry (the path genuinely got worse); from another router it is
  // ignored.
  Rig rig;
  rig.add(3);
  rig.link(0, 1);  // r0-r1
  rig.link(1, 2);  // r1-r2
  rig.make(rip_classic_profile());
  rig.start();
  rig.run_for(60s);
  rig.routers[2]->originate(Ipv4Addr{198, 51, 101, 0},
                            Ipv4Addr{255, 255, 255, 0}, 1);
  rig.run_for(40s);
  auto t0 = table_of(*rig.routers[0]);
  const auto key = Ipv4Addr{198, 51, 101, 0}.value();
  ASSERT_TRUE(t0.count(key));
  const auto before = t0.at(key).metric;

  // The origin worsens its own metric; the news must propagate through
  // r1 (current next hop for r0) and be believed.
  rig.routers[2]->originate(Ipv4Addr{198, 51, 101, 0},
                            Ipv4Addr{255, 255, 255, 0}, 5);
  rig.run_for(60s);
  t0 = table_of(*rig.routers[0]);
  ASSERT_TRUE(t0.count(key));
  EXPECT_GT(t0.at(key).metric, before);
}

TEST(RipBehavior, OriginatedPrefixAdvertisedOnAllInterfaces) {
  Rig rig;
  rig.add(3);
  rig.link(1, 0);  // r1 in the middle
  rig.link(1, 2);
  rig.make(rip_eager_profile());
  rig.start();
  rig.run_for(40s);
  rig.routers[1]->originate(Ipv4Addr{203, 0, 114, 0},
                            Ipv4Addr{255, 255, 255, 0});
  rig.run_for(10s);
  for (const std::size_t i : {0u, 2u}) {
    const auto t = table_of(*rig.routers[i]);
    EXPECT_TRUE(t.count(Ipv4Addr{203, 0, 114, 0}.value()))
        << "router " << i;
  }
}

TEST(RipBehavior, LargeTablesSplitAcrossMessagesAndStillConverge) {
  // Originate 30 prefixes: every response on the wire must respect the
  // §3.6 25-entry cap (receivers reject larger messages at decode), which
  // forces multi-message full-table updates — and the peer must still
  // learn all 30 routes.
  Rig rig;
  rig.add(2);
  rig.link(0, 1);
  rig.make(rip_classic_profile());
  rig.start();
  rig.run_for(5s);
  for (std::uint8_t i = 0; i < 30; ++i)
    rig.routers[0]->originate(Ipv4Addr{10, 50, i, 0},
                              Ipv4Addr{255, 255, 255, 0});
  std::size_t max_entries = 0;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.direction != netsim::Direction::kSend) return;
    auto d = decode(ev.frame->payload);
    if (d.ok())
      max_entries = std::max(max_entries, d.value().entries.size());
  });
  rig.run_for(60s);
  EXPECT_LE(max_entries, 25u);
  EXPECT_GT(max_entries, 0u);

  const auto t1 = table_of(*rig.routers[1]);
  std::size_t learned = 0;
  for (std::uint8_t i = 0; i < 30; ++i)
    learned += t1.count(Ipv4Addr{10, 50, i, 0}.value());
  EXPECT_EQ(learned, 30u) << "routes past the 25-entry cap must not vanish";
}

// ---- RIPv1 compatibility (§4.6) ----

TEST(RipV1, V1NetworkConvergesWithClassfulMasks) {
  Rig rig;
  rig.add(3);
  rig.link(0, 1);
  rig.link(1, 2);
  rig.make(rip_v1_profile());
  rig.start();
  rig.run_for(90s);
  rig.routers[2]->originate(Ipv4Addr{203, 0, 113, 0},
                            Ipv4Addr{255, 255, 255, 0});
  rig.run_for(40s);
  const auto t0 = table_of(*rig.routers[0]);
  const auto it = t0.find(Ipv4Addr{203, 0, 113, 0}.value());
  ASSERT_NE(it, t0.end());
  // 203.x is class C: the inferred mask is /24 — here it happens to match
  // the true mask, which is exactly why classful inference "worked" for
  // classful deployments.
  EXPECT_EQ(it->second.mask, (Ipv4Addr{255, 255, 255, 0}));
}

TEST(RipV1, V1LosesSubnetMaskInformation) {
  // The v1 wire format cannot express /30: a v2 router's subnet route
  // arrives at a v1-relayed neighbor with a classful /8 mask instead.
  Rig rig;
  rig.add(2);
  rig.link(0, 1);
  rig.make(rip_v1_profile());
  rig.start();
  rig.run_for(40s);
  rig.routers[0]->originate(Ipv4Addr{10, 200, 0, 0},
                            Ipv4Addr{255, 255, 255, 252});  // a /30
  rig.run_for(30s);
  const auto t1 = table_of(*rig.routers[1]);
  const auto it = t1.find(Ipv4Addr{10, 200, 0, 0}.value());
  ASSERT_NE(it, t1.end());
  EXPECT_EQ(it->second.mask, (Ipv4Addr{255, 0, 0, 0}))
      << "class A inference destroys the /30 — the v1 interop hazard";
}

TEST(RipV1, StrictV2RouterIgnoresV1Neighbor) {
  Rig rig;
  rig.add(2);
  rig.link(0, 1);
  rig.routers.push_back(std::make_unique<RipRouter>(
      rig.net, rig.nodes[0], rip_v1_profile(), 90));
  rig.routers.push_back(std::make_unique<RipRouter>(
      rig.net, rig.nodes[1], rip_classic_profile(), 91));  // v2-only
  rig.start();
  rig.run_for(120s);
  rig.routers[0]->originate(Ipv4Addr{203, 0, 115, 0},
                            Ipv4Addr{255, 255, 255, 0});
  rig.routers[1]->originate(Ipv4Addr{203, 0, 116, 0},
                            Ipv4Addr{255, 255, 255, 0});
  rig.run_for(60s);
  // The strict v2 side drops every v1 packet: it never learns the route.
  const auto t1 = table_of(*rig.routers[1]);
  EXPECT_EQ(t1.count(Ipv4Addr{203, 0, 115, 0}.value()), 0u);
  EXPECT_GT(rig.routers[1]->stats().version_rejected, 0u);
  // The v1 side DOES learn the v2 side's routes (it accepts both
  // versions): the failure is asymmetric, which is what makes it nasty.
  const auto t0 = table_of(*rig.routers[0]);
  EXPECT_EQ(t0.count(Ipv4Addr{203, 0, 116, 0}.value()), 1u);
}

TEST(RipV1, WireCarriesNoMaskForV1) {
  Rig rig;
  rig.add(2);
  rig.link(0, 1);
  rig.make(rip_v1_profile());
  bool saw_v1_response = false;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.direction != netsim::Direction::kSend) return;
    // Inspect raw bytes: version at offset 1, first entry mask at 4+8..12.
    const auto& p = ev.frame->payload;
    if (p.size() >= 24 && p[0] == 2 && p[1] == 1) {
      saw_v1_response = true;
      EXPECT_EQ(p[12] | p[13] | p[14] | p[15], 0) << "v1 mask field must be 0";
    }
  });
  rig.start();
  rig.run_for(60s);
  EXPECT_TRUE(saw_v1_response);
}

}  // namespace
}  // namespace nidkit::rip
