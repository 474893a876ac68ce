// Allocation-budget regression test for the simulator hot path.
//
// The zero-allocation contract: once warm (timer slab grown, event-heap
// vector at capacity, payload encoded), scheduling a timer, re-arming it,
// and fanning a frame out across a LAN must not touch the heap at all —
// with the wall registry on or off, and with a cleared TraceLog attached.
// This binary links nidkit_alloc_count, which replaces the global operator
// new/delete with counting versions, so the assertion below is exact — one
// stray allocation per event fails the build's test suite, not a profiler
// session three PRs later.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "obs/obs.hpp"
#include "trace/trace.hpp"
#include "util/alloc_count.hpp"

namespace nidkit::netsim {
namespace {

using namespace std::chrono_literals;

struct TimerChurn {
  Simulator& sim;
  std::uint64_t remaining;
};

void timer_tick(TimerChurn& st) {
  if (st.remaining == 0) return;  // budget shared by all chains
  --st.remaining;
  st.sim.schedule(1ms, [&st] { timer_tick(st); });
}

TEST(AllocBudget, SteadyStateTimerChurnIsAllocationFree) {
  Simulator sim;
  TimerChurn st{sim, 20'000};
  // 32 concurrent self-rescheduling chains, like a network of routers each
  // holding hello/retransmit/refresh timers.
  for (int i = 0; i < 32; ++i) sim.schedule(1ms, [&st] { timer_tick(st); });
  // Warm-up: grow the timer slab and the event-heap vector to capacity.
  while (st.remaining > 10'000 && sim.step()) {
  }
  const auto before = util::allocation_count();
  while (sim.step()) {
  }
  const auto after = util::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "timer scheduling allocated on the steady-state path";
}

/// An 8-router LAN whose first member multicasts one 100-byte frame every
/// 10 ms; every member counts its deliveries.
struct LanFlood {
  Simulator sim;
  Network net{sim, /*seed=*/7};
  std::vector<NodeId> members;
  Frame proto;  // pre-encoded once, shared by refcount per send
  std::uint64_t remaining = 0;
  std::uint64_t delivered = 0;

  LanFlood() {
    for (int i = 0; i < 8; ++i) members.push_back(net.add_node("r"));
    net.add_lan(members);
    for (const NodeId n : members)
      net.set_receive_handler(n, [this](IfaceIndex, const Frame&) {
        ++delivered;
      });
    proto.dst = Ipv4Addr{0xe0000005};  // 224.0.0.5: LAN-wide fan-out
    proto.protocol = 253;
    proto.payload = std::vector<std::uint8_t>(100, 0xab);
  }

  void tick() {
    if (remaining == 0) return;
    --remaining;
    sim.schedule(10ms, [this] { tick(); });
    net.send(members[0], 0, proto);  // Frame copy = refcount bump
  }

  /// Floods `sends` frames to completion; returns the heap allocations
  /// made meanwhile.
  std::uint64_t flood(std::uint64_t sends) {
    const auto before = util::allocation_count();
    remaining = sends;
    tick();
    while (sim.step()) {
    }
    return util::allocation_count() - before;
  }
};

TEST(AllocBudget, SteadyStateHelloFloodIsAllocationFree) {
  LanFlood lan;
  // Warm-up: the delivery heap reaches its high-water mark within a few
  // ticks (7 in-flight deliveries + 1 timer).
  lan.flood(2'000);
  EXPECT_EQ(lan.flood(2'000), 0u)
      << "frame delivery allocated on the steady-state path";
  EXPECT_EQ(lan.delivered, 28'000u);  // 4000 sends x 7 receivers
}

TEST(AllocBudget, ObsEnabledHelloFloodIsAllocationFree) {
  // With the wall registry on, every hook is a relaxed add into this
  // thread's hot-counter block, which the warm-up attaches.
  obs::set_enabled(true);
  LanFlood lan;
  lan.flood(2'500);
  const auto allocs = lan.flood(20'000);
  obs::set_enabled(false);
  EXPECT_EQ(allocs, 0u) << "an enabled registry allocated per event";
  EXPECT_EQ(lan.delivered, 157'500u);  // 140,000 measured
}

TEST(AllocBudget, RetracedHelloFloodReusesTheTraceArena) {
  // A cleared TraceLog refills into the arena pages it already owns, so a
  // flood no larger than the one that grew the arena allocates nothing.
  // (A flood larger than the fill grows the arena again: after a 2,500-send
  // fill, 20,000 sends grow it 5 times.)
  trace::TraceLog log;  // outlives the network that taps into it
  LanFlood lan;
  log.attach(lan.net);
  lan.flood(20'000);
  log.clear();
  const std::uint64_t before = lan.delivered;
  EXPECT_EQ(lan.flood(20'000), 0u) << "re-tracing allocated after clear()";
  EXPECT_EQ(lan.delivered - before, 140'000u);
  EXPECT_EQ(log.size(), 160'000u);  // one send + 7 receive records per frame
}

TEST(AllocBudget, CancelledTimersRecycleTheirSlots) {
  // Schedule-then-cancel churn (retransmission timers that never fire)
  // must recycle slots through the freelist, not grow the slab.
  Simulator sim;
  std::uint64_t fired = 0;
  // Warm the slab with a burst of live timers.
  for (int i = 0; i < 64; ++i) sim.schedule(1ms, [&fired] { ++fired; });
  sim.run();
  const auto before = util::allocation_count();
  for (int round = 0; round < 1'000; ++round) {
    auto h = sim.schedule(1ms, [&fired] { ++fired; });
    h.cancel();
    sim.run();
  }
  const auto after = util::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "schedule/cancel churn allocated after warm-up";
  EXPECT_EQ(fired, 64u);
}

}  // namespace
}  // namespace nidkit::netsim
