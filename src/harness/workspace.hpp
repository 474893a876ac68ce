// Reusable per-worker scenario workspace.
//
// A Workspace owns the heavyweight machinery one scenario needs — the
// simulator (event heap + timer slab), the network (node/segment storage),
// and pooled router fleets — and hands it to run_scenario. reset() between
// scenarios rewinds everything while keeping the allocated storage, so a
// worker batching many scenarios refills the same memory the way the trace
// arena already recycles its pages: after the first (largest) scenario on
// a thread, setup is allocation-free at steady state.
//
// Reuse is invisible in the output by construction: reset() restores
// exactly the state a freshly constructed simulator/network would have
// (clock, sequence numbers, rng streams, subnet/frame-id counters), so a
// scenario run on a warm workspace is byte-identical to one run on a cold
// one — the workspace_test suite and tests/determinism_matrix.sh hold
// this contract.
#pragma once

#include <cstdint>

#include "bgp/bgp_router.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "ospf/router.hpp"
#include "rip/rip_router.hpp"
#include "util/object_pool.hpp"

namespace nidkit::harness {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Rewinds the workspace for the next scenario: destroys the previous
  /// fleet, then resets the simulator and the network (reseeded). Storage
  /// — event heap, timer slab, node/segment vectors, router slots — is
  /// retained.
  void reset(std::uint64_t seed) {
    // Routers go first: they hold TimerHandles into the simulator and
    // closures registered with the network.
    ospf_routers_.clear();
    rip_routers_.clear();
    bgp_routers_.clear();
    sim_.reset();
    net_.reset(seed);
  }

  netsim::Simulator& sim() { return sim_; }
  netsim::Network& net() { return net_; }
  util::ObjectPool<ospf::Router>& ospf_routers() { return ospf_routers_; }
  util::ObjectPool<rip::RipRouter>& rip_routers() { return rip_routers_; }
  util::ObjectPool<bgp::BgpRouter>& bgp_routers() { return bgp_routers_; }

  /// The calling thread's lazily constructed workspace. Worker threads in
  /// the fan-out layers (and the serial --jobs 1 path) route every
  /// run_scenario through this, so back-to-back scenarios on one thread
  /// reuse the same memory.
  static Workspace& of_current_thread();

 private:
  // Declaration order is destruction-order-critical: pools are destroyed
  // before net_/sim_ (reverse order), so routers die while the network and
  // simulator they reference are still alive.
  netsim::Simulator sim_;
  netsim::Network net_{sim_, 0};
  util::ObjectPool<ospf::Router> ospf_routers_;
  util::ObjectPool<rip::RipRouter> rip_routers_;
  util::ObjectPool<bgp::BgpRouter> bgp_routers_;
};

}  // namespace nidkit::harness
