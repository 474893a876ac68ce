// Allocation-budget test for the workspace reuse path.
//
// The point of Workspace is that per-scenario setup stops costing heap
// traffic once a worker is warm: reset() rewinds the simulator, network
// and router pools without releasing their storage, and the next
// scenario's topology build + router construction refills the same
// memory. This binary links nidkit_alloc_count, so the budget below is
// exact and a regression (say, a reset() that clear()s a vector by
// swapping in a fresh one) fails here instead of showing up as an
// audit_wall_ms drift three PRs later.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness/experiment.hpp"
#include "harness/workspace.hpp"
#include "ospf/router.hpp"
#include "topo/topo.hpp"
#include "util/alloc_count.hpp"
#include "util/rng.hpp"

namespace nidkit::harness {
namespace {

/// One scenario's worth of setup, minus the event loop: exactly what
/// run_scenario does before scheduling work.
void setup_lap(Workspace& ws, std::uint64_t seed) {
  ws.reset(seed);
  const topo::Built built = topo::build(ws.net(), {topo::Kind::kMesh, 5});
  Rng seeder(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (std::size_t i = 0; i < built.nodes.size(); ++i) {
    ospf::RouterConfig cfg;
    const auto b = static_cast<std::uint8_t>(i + 1);
    cfg.router_id = RouterId{b, b, b, b};
    ws.ospf_routers().create(ws.net(), built.nodes[i], cfg, seeder.next());
  }
}

TEST(AllocBudget, WorkspaceResetIsAllocationFree) {
  Workspace ws;
  setup_lap(ws, 1);  // populate pools so reset has real work to do
  const auto before = util::allocation_count();
  ws.reset(2);
  const auto after = util::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "Workspace::reset allocated; storage is supposed to be retained";
}

TEST(AllocBudget, WarmScenarioSetupIsNearlyAllocationFree) {
  Workspace ws;
  // Warm-up: first lap grows node/segment vectors, router slots, rng
  // forks; second lap catches anything sized on first use.
  setup_lap(ws, 1);
  setup_lap(ws, 2);

  const auto before = util::allocation_count();
  setup_lap(ws, 3);
  const auto mid = util::allocation_count();
  setup_lap(ws, 4);
  const auto after = util::allocation_count();

  const auto lap1 = mid - before;
  const auto lap2 = after - mid;
  // Steady state: the per-lap cost must be flat (nothing accumulates)...
  EXPECT_EQ(lap1, lap2) << "setup allocations grow lap over lap";
  // ...and essentially zero. The allowance of 2 is topo::Built's two
  // result vectors, which are returned by value and cannot be pooled.
  EXPECT_LE(lap1, 2u) << "warm scenario setup should not hit the heap";
}

/// Heap allocations of one whole run_scenario on `ws`, including the
/// destruction of its result.
std::uint64_t scenario_lap(const Scenario& scenario, Workspace& ws,
                           std::uint64_t* frames = nullptr) {
  const auto before = util::allocation_count();
  {
    const ScenarioResult result = run_scenario(scenario, ws);
    if (frames != nullptr) *frames = result.frames_delivered;
  }
  return util::allocation_count() - before;
}

TEST(AllocBudget, WarmOspfScenarioAllocations) {
  // Everything a warm OSPF run allocates: protocol handlers, codec,
  // payload cells and the trace tap, about 5.5 per delivered frame. Each
  // budget is the exact count with encode reusing one writer per router,
  // decode reading the frame in place and LSA checksums re-encoding into
  // reused storage, so one new allocation per frame fails it.
  struct Case {
    const char* name;
    ospf::BehaviorProfile profile;
    std::uint64_t budget;
  };
  const Case cases[] = {{"frr", ospf::frr_profile(), 3'895},
                        {"bird", ospf::bird_profile(), 3'778}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Scenario scenario =
        ExperimentConfig{}.scenario_for({topo::Kind::kMesh, 5}, 1);
    scenario.ospf_profile = c.profile;
    Workspace ws;
    // Two warm-up laps: the first grows the workspace, trace arena pool
    // and routers' buffers; the second catches anything sized on reuse.
    scenario_lap(scenario, ws);
    scenario_lap(scenario, ws);
    std::uint64_t frames = 0;
    const auto lap1 = scenario_lap(scenario, ws, &frames);
    const auto lap2 = scenario_lap(scenario, ws);
    EXPECT_EQ(lap1, lap2) << "a warm scenario's allocations vary lap to lap";
    EXPECT_LE(lap1, c.budget) << frames << " frames delivered";
  }
}

}  // namespace
}  // namespace nidkit::harness
