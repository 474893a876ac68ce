// Configuration-surface tests: the small helpers gluing experiment
// parameters into scenarios and miners.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "obs/obs.hpp"

namespace nidkit::harness {
namespace {

using namespace std::chrono_literals;

TEST(Config, MinerConfigMirrorsExperiment) {
  ExperimentConfig c;
  c.tdelay = 300ms;
  c.window_factor = 2.5;
  c.miner_horizon = 7s;
  const auto m = c.miner_config();
  EXPECT_EQ(m.tdelay, SimDuration{300ms});
  EXPECT_DOUBLE_EQ(m.window_factor, 2.5);
  EXPECT_EQ(m.horizon, SimDuration{7s});
  EXPECT_EQ(m.threshold(), SimDuration{750ms});
}

TEST(Config, MinerThresholdScalesWithFactor) {
  mining::MinerConfig m;
  m.tdelay = 900ms;
  m.window_factor = 2.0;
  EXPECT_EQ(m.threshold(), SimDuration{1800ms});
  m.window_factor = 1.0;
  EXPECT_EQ(m.threshold(), SimDuration{900ms});
  m.window_factor = 0.5;
  EXPECT_EQ(m.threshold(), SimDuration{450ms});
}

TEST(Config, ScenarioForCopiesExperimentKnobs) {
  ExperimentConfig c;
  c.tdelay = 450ms;
  c.link_jitter = 33ms;
  c.link_loss = 0.007;
  c.duration = 99s;
  c.churn_times = {25s, 45s, 77s};
  const auto s = c.scenario_for(topo::Spec{topo::Kind::kRing, 4}, 42);
  EXPECT_EQ(s.topology.kind, topo::Kind::kRing);
  EXPECT_EQ(s.topology.routers, 4u);
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.tdelay, SimDuration{450ms});
  EXPECT_EQ(s.link_jitter, SimDuration{33ms});
  EXPECT_DOUBLE_EQ(s.link_loss, 0.007);
  EXPECT_EQ(s.duration, SimDuration{99s});
  ASSERT_EQ(s.churn_times.size(), 3u);
  EXPECT_EQ(s.churn_times[0], SimTime{25s});
  EXPECT_EQ(s.churn_times[2], SimTime{77s});
}

TEST(Config, ChurnDefaultMatchesScenarioDefault) {
  // The audit's default chaos schedule and a directly-run Scenario's must
  // agree, or triage's audit-matrix repro search would probe different
  // scenarios than the audit ran.
  EXPECT_EQ(ExperimentConfig{}.churn_times, Scenario{}.churn_times);
}

TEST(Config, KeepBytesDefaultsOffForExperimentsOnForScenarios) {
  // Direct scenario runs (trace/pcap export) need the wire bytes; the
  // mining pipelines read digests only, so experiments drop the buffers.
  EXPECT_TRUE(Scenario{}.keep_bytes);
  EXPECT_FALSE(ExperimentConfig{}
                   .scenario_for(topo::Spec{topo::Kind::kRing, 4}, 1)
                   .keep_bytes);
}

TEST(Config, JobsIsAnExecutorKnobNotAScenarioKnob) {
  ExperimentConfig c;
  // 0 = "one per CPU"; the executor resolves it, the scenarios never
  // see it. Changing jobs must not change any scenario parameter — that
  // is half of the determinism contract (the other half is the canonical
  // merge order, pinned in parallel_executor_test.cpp).
  EXPECT_EQ(c.jobs, 0u);
  // `record` is exempt from the copy-through for the same reason: where a
  // run records cannot change what a scenario computes. Null by default,
  // so a run folds nothing unless asked.
  EXPECT_EQ(c.record, nullptr);
  obs::RunRecord record;
  c.jobs = 8;
  c.record = &record;
  const auto spec = topo::Spec{topo::Kind::kRing, 4};
  const auto s8 = c.scenario_for(spec, 42);
  c.jobs = 1;
  c.record = nullptr;
  const auto s1 = c.scenario_for(spec, 42);
  EXPECT_EQ(s8.tdelay, s1.tdelay);
  EXPECT_EQ(s8.link_jitter, s1.link_jitter);
  EXPECT_DOUBLE_EQ(s8.link_loss, s1.link_loss);
  EXPECT_EQ(s8.duration, s1.duration);
  EXPECT_EQ(s8.seed, s1.seed);
  EXPECT_EQ(s8.keep_bytes, s1.keep_bytes);
}

TEST(Config, PaperDefaultsMatchThePaper) {
  ExperimentConfig c;
  EXPECT_EQ(c.tdelay, SimDuration{900ms});       // §3: TDelay = 900 ms
  EXPECT_DOUBLE_EQ(c.window_factor, 2.0);        // §2: at least 2*TDelay
  ASSERT_EQ(c.topologies.size(), 4u);            // §2: four topologies
  EXPECT_EQ(c.topologies[0].name(), "linear-2");
  EXPECT_EQ(c.topologies[3].name(), "mesh-5");
  // Horizon below the retransmission timeout, per the paper's TDelay
  // upper-bound rule.
  EXPECT_LE(c.miner_horizon, ospf::BehaviorProfile{}.rxmt_interval);
}

TEST(Config, DefaultProfilesHaveRfcTimers) {
  ospf::RouterConfig cfg;
  EXPECT_EQ(cfg.hello_interval, SimDuration{10s});
  EXPECT_EQ(cfg.dead_interval, SimDuration{40s});
  EXPECT_EQ(cfg.mtu, 1500);
  EXPECT_TRUE(cfg.auth_password.empty());
  EXPECT_TRUE(cfg.md5_key.empty());
  EXPECT_EQ(cfg.cost_of(0), 1);
  cfg.interface_costs[2] = 30;
  EXPECT_EQ(cfg.cost_of(2), 30);
  EXPECT_EQ(cfg.cost_of(3), 1);
}

TEST(Config, BgpDefaultsMatchRfcSuggestions) {
  bgp::BgpProfile p;
  EXPECT_EQ(p.hold_time, 90);
  EXPECT_EQ(p.keepalive_interval, SimDuration{30s});  // hold/3
  EXPECT_EQ(bgp::bgp_robust_profile().as_path_accept_limit, 0u);
  EXPECT_GT(bgp::bgp_fragile_profile().as_path_accept_limit, 0u);
}

TEST(Config, RipProfilesDifferWhereDocumented) {
  const auto classic = rip::rip_classic_profile();
  const auto eager = rip::rip_eager_profile();
  const auto v1 = rip::rip_v1_profile();
  EXPECT_FALSE(classic.poisoned_reverse);
  EXPECT_TRUE(eager.poisoned_reverse);
  EXPECT_GT(classic.triggered_delay, eager.triggered_delay);
  EXPECT_EQ(v1.send_version, 1);
  EXPECT_TRUE(v1.accept_v1);
  EXPECT_EQ(classic.send_version, 2);
  EXPECT_FALSE(classic.accept_v1);
}

}  // namespace
}  // namespace nidkit::harness
