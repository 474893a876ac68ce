// The deterministic half of the obs contract: a run record's "sim"
// section is bit-identical across worker counts and cache temperature.
// Worker threads never touch the record — every scenario's delta is
// merged in canonical index order on one thread, and cached entries
// replay their stored delta instead of re-simulating.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>

#include "cache/store.hpp"
#include "harness/experiment.hpp"
#include "harness/injection.hpp"
#include "obs/obs.hpp"

namespace nidkit::harness {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class ObsDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("nidkit_obs_det_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name())))
               .string();
    fs::remove_all(dir_);
    obs::Registry::instance().reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Registry::instance().reset();
    fs::remove_all(dir_);
  }

  ExperimentConfig config(std::size_t jobs, bool cached) {
    ExperimentConfig c;
    c.record = &record_;
    c.topologies = {topo::Spec{topo::Kind::kLinear, 2},
                    topo::Spec{topo::Kind::kMesh, 3}};
    c.seeds = {1, 2};
    c.duration = 90s;
    c.jobs = jobs;
    if (cached) c.store = &store_.emplace(dir_);
    return c;
  }

  /// Runs a two-implementation audit into a fresh record and returns the
  /// deterministic snapshot line it produced.
  std::string audit_sim_json(std::size_t jobs, bool cached,
                             ExecReport* exec = nullptr) {
    record_ = {};
    auto c = config(jobs, cached);
    c.exec = exec;
    audit_ospf({ospf::frr_profile(), ospf::bird_profile()}, c,
               mining::ospf_type_scheme());
    return record_.sim_json();
  }

  std::string dir_;
  /// Reopened for each cached run, as each nidt command opens its own.
  std::optional<cache::Store> store_;
  obs::RunRecord record_;
};

TEST_F(ObsDeterminismTest, SimSectionIdenticalAcrossWorkerCounts) {
  const auto one = audit_sim_json(1, /*cached=*/false);
  // The run actually recorded something — a vacuous comparison of two
  // empty sections would pass without testing anything.
  EXPECT_NE(one.find("\"sim.events_executed\":"), std::string::npos);
  EXPECT_NE(one.find("\"ospf.fsm_transitions\":"), std::string::npos);
  EXPECT_EQ(one, audit_sim_json(4, /*cached=*/false));
  EXPECT_EQ(one, audit_sim_json(8, /*cached=*/false));
}

TEST_F(ObsDeterminismTest, WarmCacheReplaysIdenticalSimSection) {
  ExecReport cold_exec, warm_exec;
  const auto cold = audit_sim_json(2, /*cached=*/true, &cold_exec);
  EXPECT_EQ(cold_exec.cache_misses, 8u);  // 2 impls x 2 topos x 2 seeds

  const auto warm = audit_sim_json(2, /*cached=*/true, &warm_exec);
  EXPECT_EQ(warm_exec.cache_hits, 8u);
  EXPECT_EQ(warm_exec.tasks_run, 0u);  // nothing re-simulated: pure replay

  const auto uncached = audit_sim_json(1, /*cached=*/false);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, uncached);
}

TEST_F(ObsDeterminismTest, SimCountersCoverTheScenarioTaxonomy) {
  audit_sim_json(2, /*cached=*/false);
  // 8 scenarios merged, each contributing runs=1.
  EXPECT_EQ(record_.counter("scenario.runs"), 8u);
  EXPECT_GT(record_.counter("sim.events_executed"), 0u);
  EXPECT_GT(record_.counter("sim.frames_delivered"), 0u);
  EXPECT_GT(record_.counter("ospf.tx_hello"), 0u);
  EXPECT_GT(record_.counter("ospf.rx_hello"), 0u);
  EXPECT_GT(record_.counter("ospf.fsm_transitions"), 0u);
  EXPECT_GT(record_.counter("ospf.lsa_installs"), 0u);
}

TEST_F(ObsDeterminismTest, SweepSimSectionStableAcrossJobsAndCache) {
  const std::vector<SimDuration> tds = {0ms, 900ms};
  const auto run = [&](std::size_t jobs, bool cached) {
    record_ = {};
    auto c = config(jobs, cached);
    c.seeds = {1};
    tdelay_sweep(ospf::frr_profile(), c, tds, mining::ospf_type_scheme());
    return record_.sim_json();
  };
  const auto reference = run(1, false);
  EXPECT_NE(reference.find("\"scenario.runs\":"), std::string::npos);
  EXPECT_EQ(reference, run(4, false));
  EXPECT_EQ(reference, run(2, true));   // cold cache
  EXPECT_EQ(reference, run(8, true));   // warm cache, different width
}

TEST_F(ObsDeterminismTest, ProcessCountersAddEachSimulationOnce) {
  using obs::Hot;
  const auto& reg = obs::Registry::instance();
  const auto process = [&reg] {
    obs::HotCounts counts;
    for (std::size_t i = 0; i < obs::kHotCount; ++i)
      counts[i] = reg.hot_counter(static_cast<Hot>(i));
    return counts;
  };
  const auto at = [](const obs::HotCounts& counts, Hot which) {
    return counts[static_cast<std::size_t>(which)];
  };
  // A cold paper audit at --jobs 4: every scenario simulates once on some
  // worker and adds its own totals when it finishes.
  ExperimentConfig c;
  c.record = &record_;
  c.jobs = 4;
  c.store = &store_.emplace(dir_);
  const std::vector<ospf::BehaviorProfile> impls = {ospf::frr_profile(),
                                                    ospf::bird_profile()};
  audit_ospf(impls, c, mining::ospf_type_scheme());
  const obs::HotCounts cold = process();
  ASSERT_GT(record_.counter("sim.frames_dropped"), 0u);
  EXPECT_EQ(at(cold, Hot::kEventsExecuted),
            record_.counter("sim.events_executed"));
  EXPECT_EQ(at(cold, Hot::kFramesDelivered),
            record_.counter("sim.frames_delivered"));
  EXPECT_EQ(at(cold, Hot::kFramesDropped),
            record_.counter("sim.frames_dropped"));
  // Scheduled counts every event run, cancelled or left pending.
  EXPECT_GT(at(cold, Hot::kTimersScheduled), at(cold, Hot::kEventsExecuted));

  // A warm rerun replays every scenario from the store: nothing simulates.
  record_ = {};
  c.store = &store_.emplace(dir_);
  audit_ospf(impls, c, mining::ospf_type_scheme());
  EXPECT_EQ(process(), cold);

  // An injection probe is one more simulation. Its counts land on the
  // return path that injects, identically on a repeat, and on the early
  // return where no adjacency formed yet.
  InjectionConfig probe;
  probe.target_profile = ospf::bird_profile();
  probe.stimulus = "LSU";
  ASSERT_TRUE(inject_and_observe(probe).injected);
  const obs::HotCounts once = process();
  EXPECT_GT(at(once, Hot::kEventsExecuted), at(cold, Hot::kEventsExecuted));
  EXPECT_GT(at(once, Hot::kFramesDelivered), at(cold, Hot::kFramesDelivered));
  ASSERT_TRUE(inject_and_observe(probe).injected);
  const obs::HotCounts twice = process();
  for (std::size_t i = 0; i < obs::kHotCount; ++i)
    EXPECT_EQ(twice[i] - once[i], once[i] - cold[i]) << i;
  probe.inject_at = 1s;
  ASSERT_FALSE(inject_and_observe(probe).injected);
  EXPECT_GT(at(process(), Hot::kEventsExecuted),
            at(twice, Hot::kEventsExecuted));
}

TEST_F(ObsDeterminismTest, DisabledRegistryStaysEmpty) {
  // Wall recording off and no record attached: the run leaves no trace.
  obs::set_enabled(false);
  auto c = config(4, /*cached=*/false);
  c.record = nullptr;
  audit_ospf({ospf::frr_profile(), ospf::bird_profile()}, c,
             mining::ospf_type_scheme());
  const auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.span_count(), 0u);
  EXPECT_EQ(reg.hot_counter(obs::Hot::kEventsExecuted), 0u);
  EXPECT_EQ(record_.scenarios(), 0u);
}

}  // namespace
}  // namespace nidkit::harness
