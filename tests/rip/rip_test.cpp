// RIPv2 engine tests: convergence, split horizon variants, triggered
// updates, expiry.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>

#include "netsim/network.hpp"
#include "rip/rip_router.hpp"

namespace nidkit::rip {
namespace {

using namespace std::chrono_literals;

struct RipRig {
  RipRig() = default;
  RipRig(const RipRig&) = delete;
  RipRig& operator=(const RipRig&) = delete;

  netsim::Simulator sim;
  netsim::Network net{sim, 5};
  std::vector<netsim::NodeId> nodes;
  std::vector<std::unique_ptr<RipRouter>> routers;

  void init_line(std::size_t n, const RipProfile& profile,
                 SimDuration delay = 20ms) {
    for (std::size_t i = 0; i < n; ++i) {
      std::string name = "r";
      name += std::to_string(i);
      nodes.push_back(net.add_node(std::move(name)));
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto seg = net.add_p2p(nodes[i], nodes[i + 1]);
      net.fault(seg).delay = delay;
    }
    for (std::size_t i = 0; i < n; ++i)
      routers.push_back(
          std::make_unique<RipRouter>(net, nodes[i], profile, 50 + i));
  }

  void start_all() {
    for (auto& r : routers) r->start();
  }
  void run_for(SimDuration d) { sim.run_until(sim.now() + d); }
  RipRouter& r(std::size_t i) { return *routers.at(i); }
};

std::map<std::uint32_t, RipRoute> table_of(RipRouter& r) {
  std::map<std::uint32_t, RipRoute> out;
  for (const auto& route : r.routes()) out[route.prefix.value()] = route;
  return out;
}

TEST(Rip, ConnectedRoutesInstalledAtStart) {
  RipRig rig;
  rig.init_line(2, rip_classic_profile());
  rig.start_all();
  rig.run_for(1s);
  EXPECT_EQ(rig.r(0).routes().size(), 1u);
  EXPECT_TRUE(rig.r(0).routes()[0].directly_connected);
  EXPECT_EQ(rig.r(0).routes()[0].metric, 1u);
}

TEST(Rip, StartupRequestYieldsImmediateConvergenceOnTwoNodes) {
  RipRig rig;
  rig.init_line(2, rip_classic_profile());
  rig.start_all();
  rig.run_for(5s);  // well inside the first 30 s periodic cycle
  // Each router learned the other's subnet via the answered request.
  EXPECT_EQ(rig.r(0).routes().size(), 1u);  // single shared subnet: nothing new
  EXPECT_GT(rig.r(0).stats().rx_responses, 0u);
}

TEST(Rip, LineConvergesWithAdditiveMetrics) {
  RipRig rig;
  rig.init_line(4, rip_classic_profile());
  rig.start_all();
  rig.run_for(120s);
  const auto t0 = table_of(rig.r(0));
  ASSERT_EQ(t0.size(), 3u);  // three /30 subnets
  std::vector<std::uint32_t> metrics;
  for (const auto& [p, r] : t0) metrics.push_back(r.metric);
  std::sort(metrics.begin(), metrics.end());
  EXPECT_EQ(metrics, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(Rip, EagerVariantAlsoConverges) {
  RipRig rig;
  rig.init_line(4, rip_eager_profile());
  rig.start_all();
  rig.run_for(120s);
  EXPECT_EQ(table_of(rig.r(0)).size(), 3u);
  EXPECT_EQ(table_of(rig.r(3)).size(), 3u);
}

TEST(Rip, SplitHorizonSuppressesLearnedRouteEcho) {
  // r2 learns the far r0-r1 subnet through its only interface; classic
  // split horizon must keep that route out of r2's responses on that same
  // interface entirely.
  RipRig rig;
  rig.init_line(3, rip_classic_profile());
  rig.start_all();
  rig.run_for(1ms);
  const auto far_subnet = rig.r(0).routes()[0].prefix;  // r0-r1 /30
  int echoes = 0;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.node != rig.nodes[2]) return;
    if (ev.direction != netsim::Direction::kSend) return;
    auto decoded = decode(ev.frame->payload);
    if (!decoded.ok() || decoded.value().command != Command::kResponse)
      return;
    for (const auto& e : decoded.value().entries)
      if (e.prefix == far_subnet) ++echoes;
  });
  rig.run_for(150s);
  // Sanity: r2 did learn the route it is suppressing.
  ASSERT_TRUE(table_of(rig.r(2)).count(far_subnet.value()));
  EXPECT_EQ(echoes, 0);
}

TEST(Rip, PoisonedReverseAdvertisesInfinityBack) {
  RipRig rig;
  rig.init_line(3, rip_eager_profile());
  rig.start_all();
  rig.run_for(40s);
  // r1 learned r2's far subnet via iface 1; poisoned reverse must
  // advertise it back out iface 1 with metric 16.
  int poisoned = 0;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.direction != netsim::Direction::kSend) return;
    auto decoded = decode(ev.frame->payload);
    if (!decoded.ok() || decoded.value().command != Command::kResponse)
      return;
    for (const auto& e : decoded.value().entries)
      if (e.metric == kInfinityMetric) ++poisoned;
  });
  rig.run_for(60s);
  EXPECT_GT(poisoned, 0);
}

TEST(Rip, TriggeredUpdatePropagatesOriginatedPrefix) {
  RipRig rig;
  rig.init_line(3, rip_eager_profile());
  rig.start_all();
  rig.run_for(40s);
  rig.r(0).originate(Ipv4Addr{203, 0, 113, 0}, Ipv4Addr{255, 255, 255, 0});
  rig.run_for(5s);  // far less than the 30 s periodic interval
  const auto t2 = table_of(rig.r(2));
  const auto it = t2.find(Ipv4Addr{203, 0, 113, 0}.value());
  ASSERT_NE(it, t2.end());
  EXPECT_EQ(it->second.metric, 3u);
  EXPECT_GT(rig.r(0).stats().triggered, 0u);
}

TEST(Rip, ClassicTriggeredUpdatesAreSuppressed) {
  // The classic profile delays triggered updates by 2 s; the eager one by
  // 50 ms. Measure propagation latency of an originated prefix.
  auto measure = [](const RipProfile& profile) {
    RipRig rig;
    rig.init_line(2, profile);
    rig.start_all();
    rig.run_for(40s);
    const auto t0 = rig.sim.now();
    rig.r(0).originate(Ipv4Addr{198, 51, 100, 0}, Ipv4Addr{255, 255, 255, 0});
    while (rig.sim.now() < t0 + 29s) {
      rig.run_for(100ms);
      const auto t = table_of(rig.r(1));
      if (t.count(Ipv4Addr{198, 51, 100, 0}.value())) break;
    }
    return rig.sim.now() - t0;
  };
  const auto classic = measure(rip_classic_profile());
  const auto eager = measure(rip_eager_profile());
  EXPECT_GT(classic, eager);
  EXPECT_GE(classic, 2s);
  EXPECT_LT(eager, 1s);
}

TEST(Rip, LearnedRouteExpiresAcrossCutLink) {
  // 4-node line r0-r1-r2-r3; cutting r1-r2 severs r1's *learned* route to
  // the far r2-r3 subnet, which must time out (connected subnets, by
  // contrast, never expire).
  RipRig rig;
  rig.init_line(4, rip_classic_profile());
  rig.start_all();
  rig.run_for(1ms);  // before any learning: r3 holds only its connected /30
  const auto far_subnet = rig.r(3).routes()[0].prefix;  // r2-r3 /30
  rig.run_for(120s);
  ASSERT_TRUE(table_of(rig.r(1)).count(far_subnet.value()));
  rig.net.fault(1).down = true;  // the r1-r2 link
  rig.run_for(220s);  // beyond the 180 s route timeout
  const auto t1 = table_of(rig.r(1));
  const auto it = t1.find(far_subnet.value());
  const bool gone =
      it == t1.end() || it->second.metric >= kInfinityMetric;
  EXPECT_TRUE(gone);
  EXPECT_GT(rig.r(1).stats().routes_expired, 0u);
  // r0 hears the loss from r1 (unreachable advertisement or timeout).
  const auto t0 = table_of(rig.r(0));
  const auto it0 = t0.find(far_subnet.value());
  EXPECT_TRUE(it0 == t0.end() || it0->second.metric >= kInfinityMetric);
}

TEST(Rip, UnreachableRouteGarbageCollected) {
  RipRig rig;
  rig.init_line(4, rip_classic_profile());
  rig.start_all();
  rig.run_for(1ms);
  const auto far_subnet = rig.r(3).routes()[0].prefix;
  rig.run_for(120s);
  rig.net.fault(1).down = true;
  rig.run_for(400s);  // timeout (180) + gc (120) + slack
  const auto t1 = table_of(rig.r(1));
  EXPECT_EQ(t1.count(far_subnet.value()), 0u)
      << "expired routes must eventually be garbage-collected";
}

TEST(Rip, SpecificRequestAnsweredWithExactPrefixes) {
  RipRig rig;
  rig.init_line(2, rip_classic_profile());
  rig.start_all();
  rig.run_for(40s);

  // Hand-craft a specific request from node 0 for a known and an unknown
  // prefix; the reply must quote both, the unknown one at metric 16.
  RipPacket req;
  req.command = Command::kRequest;
  RipEntry known;
  known.prefix = rig.r(1).routes()[0].prefix;
  known.mask = Ipv4Addr{255, 255, 255, 252};
  RipEntry unknown;
  unknown.prefix = Ipv4Addr{9, 9, 9, 0};
  unknown.mask = Ipv4Addr{255, 255, 255, 0};
  req.entries = {known, unknown};

  std::vector<std::uint32_t> reply_metrics;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.node != rig.nodes[0] || ev.direction != netsim::Direction::kRecv)
      return;
    auto decoded = decode(ev.frame->payload);
    if (!decoded.ok() || decoded.value().command != Command::kResponse)
      return;
    if (decoded.value().entries.size() == 2)
      for (const auto& e : decoded.value().entries)
        reply_metrics.push_back(e.metric);
  });
  netsim::Frame frame;
  frame.dst = rig.net.iface(rig.nodes[1], 0).address;
  frame.protocol = 17;
  frame.payload = encode(req);
  rig.net.send(rig.nodes[0], 0, std::move(frame));
  rig.run_for(5s);
  ASSERT_EQ(reply_metrics.size(), 2u);
  EXPECT_LT(reply_metrics[0], kInfinityMetric);
  EXPECT_EQ(reply_metrics[1], kInfinityMetric);
}

TEST(Rip, PeriodicUpdatesKeepFlowing) {
  RipRig rig;
  rig.init_line(2, rip_classic_profile());
  rig.start_all();
  rig.run_for(200s);
  // ~6 periodic cycles on each of 2 routers; requests answered too.
  EXPECT_GE(rig.r(0).stats().tx_responses, 5u);
  EXPECT_GE(rig.r(0).stats().rx_responses, 5u);
}

}  // namespace
}  // namespace nidkit::rip
