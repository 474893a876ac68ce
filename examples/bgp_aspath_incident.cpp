// Walkthrough of the paper's motivating example: the February 2009 global
// slowdown. A small ISP announced a route with an extraordinarily long
// AS_PATH; routers of one implementation mishandled it and reset their
// sessions over and over, degrading traffic worldwide.
//
// This example stages the incident in three acts:
//   1. a healthy mixed network (robust + fragile routers) converges;
//   2. the long-path announcement is injected; the fragile edge begins a
//      NOTIFICATION/reset loop while robust routers carry the route;
//   3. the black-box miner — with no knowledge of BGP semantics beyond the
//      message format — flags the behavioural difference.
#include <cstdio>

#include "bgp/bgp_router.hpp"
#include "detect/report.hpp"
#include "harness/experiment.hpp"

using namespace nidkit;
using namespace std::chrono_literals;

int main() {
  std::printf("== Act 1: a mixed network converges ==\n");
  netsim::Simulator sim;
  netsim::Network net(sim, 2009);
  const auto a = net.add_node("supronet");   // originator (robust)
  const auto b = net.add_node("transit");    // robust transit
  const auto c = net.add_node("edge");       // fragile edge
  for (const auto seg : {net.add_p2p(a, b), net.add_p2p(b, c)}) {
    net.fault(seg).delay = 50ms;
    net.fault(seg).fifo = true;
  }
  auto mk = [&](netsim::NodeId node, std::uint16_t as, std::uint8_t id,
                const bgp::BgpProfile& profile) {
    bgp::BgpConfig cfg;
    cfg.as_number = as;
    cfg.router_id = RouterId{id, id, id, id};
    cfg.profile = profile;
    return std::make_unique<bgp::BgpRouter>(net, node, cfg, id);
  };
  auto r_origin = mk(a, 65001, 1, bgp::bgp_robust_profile());
  auto r_transit = mk(b, 65002, 2, bgp::bgp_robust_profile());
  auto r_edge = mk(c, 65003, 3, bgp::bgp_fragile_profile());
  r_origin->start();
  r_transit->start();
  r_edge->start();
  r_origin->originate(bgp::Prefix{Ipv4Addr{10, 1, 0, 0}, 16});
  sim.run_until(SimTime{30s});
  std::printf("  edge session: %s, edge routes: %zu, resets so far: %llu\n",
              to_string(r_edge->session_state(0)).c_str(),
              r_edge->routes().size(),
              static_cast<unsigned long long>(
                  r_edge->stats().session_resets));

  std::printf("\n== Act 2: the long AS_PATH announcement ==\n");
  r_origin->originate(bgp::Prefix{Ipv4Addr{10, 99, 0, 0}, 16},
                      /*prepend=*/252);  // the incident's path length
  sim.run_until(SimTime{240s});
  std::printf("  transit carries %zu routes (incl. the long-path one); "
              "edge carries %zu\n",
              r_transit->routes().size(), r_edge->routes().size());
  std::printf("  fragile edge: %llu long-path rejections, %llu session "
              "resets (the reset loop)\n",
              static_cast<unsigned long long>(
                  r_edge->stats().long_path_rejects),
              static_cast<unsigned long long>(
                  r_edge->stats().session_resets));
  std::printf("  robust transit: %llu resets\n",
              static_cast<unsigned long long>(
                  r_transit->stats().session_resets));

  std::printf("\n== Act 3: the technique detects it black-box ==\n");
  mining::MinerConfig mc;
  mc.tdelay = 900ms;
  mc.horizon = 5s;
  mining::CausalMiner miner(mc);
  const auto scheme = mining::bgp_message_scheme();
  std::map<std::string, mining::RelationSet> sets;
  for (const auto& profile :
       {bgp::bgp_robust_profile(), bgp::bgp_fragile_profile()}) {
    harness::Scenario s;
    s.protocol = harness::Protocol::kBgp;
    s.bgp_profile = profile;
    s.topology = {topo::Kind::kLinear, 3};
    s.duration = 300s;
    s.churn_times = {60s};
    const auto run = harness::run_scenario(s);
    sets.emplace(profile.name, miner.mine(run.log, scheme));
  }
  const auto flags =
      detect::compare_all({{"bgp-robust", &sets.at("bgp-robust")},
                           {"bgp-fragile", &sets.at("bgp-fragile")}});
  std::fputs(detect::render_discrepancies(flags).c_str(), stdout);
  std::printf("\nthe flag to act on: UPDATE+longpath -> NOTIFICATION, "
              "present only in bgp-fragile.\n");
  return 0;
}
