// Shared helpers for OSPF protocol-engine tests: a tiny rig that wires N
// routers into a simulator-backed network without pulling in the full
// experiment harness.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "ospf/router.hpp"

namespace nidkit::ospf::testutil {

using namespace std::chrono_literals;

struct Rig {
  Rig() = default;
  Rig(const Rig&) = delete;             // Network holds a Simulator&;
  Rig& operator=(const Rig&) = delete;  // the rig must never relocate

  netsim::Simulator sim;
  netsim::Network net{sim, 99};
  std::vector<netsim::NodeId> nodes;
  std::vector<std::unique_ptr<Router>> routers;

  /// Adds `n` nodes named r0..r{n-1}.
  void add_nodes(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::string name = "r";
      name += std::to_string(i);
      nodes.push_back(net.add_node(std::move(name)));
    }
  }

  /// Creates routers with ids 1.1.1.1, 2.2.2.2, ... sharing `profile`.
  void make_routers(const BehaviorProfile& profile) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      RouterConfig cfg;
      const auto b = static_cast<std::uint8_t>(i + 1);
      cfg.router_id = RouterId{b, b, b, b};
      cfg.profile = profile;
      routers.push_back(
          std::make_unique<Router>(net, nodes[i], cfg, 1000 + i));
    }
  }

  void start_all() {
    for (auto& r : routers) r->start();
  }

  void run_for(SimDuration d) { sim.run_until(sim.now() + d); }

  Router& r(std::size_t i) { return *routers.at(i); }
  RouterId id(std::size_t i) {
    const auto b = static_cast<std::uint8_t>(i + 1);
    return RouterId{b, b, b, b};
  }
};

/// Wires `rig` as two routers on a point-to-point link.
inline void init_two(Rig& rig, const BehaviorProfile& profile,
                     SimDuration delay = 50ms) {
  rig.add_nodes(2);
  rig.net.add_p2p(rig.nodes[0], rig.nodes[1]);
  rig.net.fault(0).delay = delay;
  rig.make_routers(profile);
}

/// Wires `rig` as a line: r0 - r1 - ... - r{n-1}.
inline void init_line(Rig& rig, std::size_t n, const BehaviorProfile& profile,
                      SimDuration delay = 50ms) {
  rig.add_nodes(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const auto seg = rig.net.add_p2p(rig.nodes[i], rig.nodes[i + 1]);
    rig.net.fault(seg).delay = delay;
  }
  rig.make_routers(profile);
}

/// Wires `rig` as one broadcast LAN with n routers.
inline void init_lan(Rig& rig, std::size_t n, const BehaviorProfile& profile,
                     SimDuration delay = 50ms) {
  rig.add_nodes(n);
  const auto seg = rig.net.add_lan(rig.nodes);
  rig.net.fault(seg).delay = delay;
  rig.make_routers(profile);
}

}  // namespace nidkit::ospf::testutil
