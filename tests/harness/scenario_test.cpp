#include "harness/scenario.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "mining/miner.hpp"

namespace nidkit::harness {
namespace {

using namespace std::chrono_literals;

TEST(Scenario, DefaultOspfScenarioConverges) {
  Scenario s;
  const auto r = run_scenario(s);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.routes_consistent);
  EXPECT_EQ(r.routers, 2u);
  EXPECT_GT(r.log.size(), 0u);
  EXPECT_EQ(r.ospf_totals.decode_failures, 0u);
}

TEST(Scenario, DeterministicForSameSeed) {
  Scenario s;
  s.topology = {topo::Kind::kMesh, 3};
  const auto a = run_scenario(s);
  const auto b = run_scenario(s);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log.records()[i].time, b.log.records()[i].time);
    EXPECT_EQ(a.log.records()[i].node, b.log.records()[i].node);
    EXPECT_EQ(a.log.records()[i].bytes, b.log.records()[i].bytes);
  }
}

TEST(Scenario, DifferentSeedsDiverge) {
  Scenario s;
  s.seed = 1;
  const auto a = run_scenario(s);
  s.seed = 2;
  const auto b = run_scenario(s);
  // Traces must differ somewhere (timing at minimum).
  bool differs = a.log.size() != b.log.size();
  for (std::size_t i = 0; !differs && i < a.log.size(); ++i)
    differs = a.log.records()[i].time != b.log.records()[i].time;
  EXPECT_TRUE(differs);
}

// gtest prints a parameter without a printer as its raw bytes, and CTest
// test names include that text; zeroing the padding keeps the names the
// same on every run.
std::vector<topo::Spec> scenario_topologies() {
  std::vector<topo::Spec> specs;
  for (const auto& spec : topo::extended_topologies()) {
    topo::Spec s;
    std::memset(static_cast<void*>(&s), 0, sizeof s);
    s.kind = spec.kind;
    s.routers = spec.routers;
    specs.push_back(s);
  }
  return specs;
}

class ScenarioTopologies : public ::testing::TestWithParam<topo::Spec> {};

TEST_P(ScenarioTopologies, ConvergesWithBothProfiles) {
  for (const auto& profile : {ospf::frr_profile(), ospf::bird_profile()}) {
    Scenario s;
    s.topology = GetParam();
    s.ospf_profile = profile;
    const auto r = run_scenario(s);
    EXPECT_TRUE(r.converged) << GetParam().name() << " " << profile.name;
    EXPECT_TRUE(r.routes_consistent)
        << GetParam().name() << " " << profile.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperAndExtended, ScenarioTopologies,
    ::testing::ValuesIn(scenario_topologies()),
    [](const auto& info) {
      auto name = info.param.name();
      for (auto& c : name)
        if (c == '-') c = '_';  // gtest names must be identifiers
      return name;
    });

TEST(Scenario, TDelayShapesTraceTiming) {
  // With TDelay=900 ms, no response can arrive sooner than 900 ms after
  // the stimulating send; check receive timestamps against send times.
  Scenario s;
  s.link_jitter = 0ms;
  const auto r = run_scenario(s);
  for (const auto& rec : r.log.records()) {
    if (rec.is_send() || rec.caused_by == 0) continue;
    // Find the matching send on the peer.
    for (const auto& peer : r.log.records()) {
      if (!peer.is_send() || peer.frame_id != rec.frame_id) continue;
      EXPECT_GE(rec.time - peer.time, SimDuration{900ms});
    }
  }
}

TEST(Scenario, ChurnInjectsExternals) {
  Scenario s;
  s.churn_times = {60s, 90s, 120s};
  const auto with_churn = run_scenario(s);
  s.churn_times = {};
  const auto without = run_scenario(s);
  EXPECT_GT(with_churn.ospf_totals.lsa_installs,
            without.ospf_totals.lsa_installs);
}

TEST(Scenario, StateProbeAnnotatesRecords) {
  Scenario s;
  const auto r = run_scenario(s);
  bool any_probed = false;
  for (const auto& rec : r.log.records())
    if (rec.observer_state >= 0) any_probed = true;
  EXPECT_TRUE(any_probed);
}

TEST(Scenario, StateProbeOffLeavesUnknown) {
  Scenario s;
  s.state_probe = false;
  const auto r = run_scenario(s);
  for (const auto& rec : r.log.records())
    EXPECT_EQ(rec.observer_state, -1);
}

TEST(Scenario, RipScenarioConverges) {
  Scenario s;
  s.protocol = Protocol::kRip;
  s.rip_profile = rip::rip_classic_profile();
  s.topology = {topo::Kind::kLinear, 3};
  s.duration = 240s;
  const auto r = run_scenario(s);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.rip_totals.tx_responses, 0u);
  EXPECT_GT(r.rip_totals.routes_learned, 0u);
}

TEST(Scenario, LossCountersExposed) {
  Scenario s;
  s.topology = {topo::Kind::kMesh, 3};  // enough traffic for drops to occur
  s.link_loss = 0.2;
  const auto r = run_scenario(s);
  EXPECT_GT(r.frames_dropped, 0u);
  EXPECT_GT(r.frames_delivered, 0u);
}

TEST(Scenario, ExpectedAdjacencyEndpoints) {
  EXPECT_EQ(expected_adjacency_endpoints({topo::Kind::kLinear, 2}), 2u);
  EXPECT_EQ(expected_adjacency_endpoints({topo::Kind::kLinear, 5}), 8u);
  EXPECT_EQ(expected_adjacency_endpoints({topo::Kind::kMesh, 5}), 20u);
  EXPECT_EQ(expected_adjacency_endpoints({topo::Kind::kRing, 4}), 8u);
  EXPECT_EQ(expected_adjacency_endpoints({topo::Kind::kStar, 5}), 8u);
  EXPECT_EQ(expected_adjacency_endpoints({topo::Kind::kLan, 4}), 10u);
}

TEST(Scenario, ConvergenceTimeRecorded) {
  Scenario s;
  const auto r = run_scenario(s);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.convergence_time.count(), 0);
  EXPECT_LT(r.convergence_time, s.duration);
}

TEST(Scenario, ConvergenceTimeUnsetWhenPartitioned) {
  Scenario s;
  s.duration = 30s;  // too short: hello discovery alone takes ~10 s and
  s.tdelay = 5s;     // a 10 s RTT stalls the exchange far past 30 s
  const auto r = run_scenario(s);
  EXPECT_FALSE(r.converged);
  EXPECT_LT(r.convergence_time.count(), 0);
}

TEST(Scenario, ProvenanceCoversRealTraffic) {
  // A healthy scenario must contain both spontaneous (timer) and caused
  // (response) traffic — the ground truth the sweep bench relies on.
  Scenario s;
  const auto r = run_scenario(s);
  std::size_t caused = 0, spontaneous = 0;
  for (const auto& rec : r.log.records()) {
    if (!rec.is_send()) continue;
    (rec.caused_by != 0 ? caused : spontaneous) += 1;
  }
  EXPECT_GT(caused, 0u);
  EXPECT_GT(spontaneous, 0u);
}

}  // namespace
}  // namespace nidkit::harness
