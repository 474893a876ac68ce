// Unit contract of nidkit::obs: ScenarioMetrics canonical form, process
// counters behind the enabled() gate, RunRecord scenario merging, span
// recording and the line-structured JSON snapshots.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace nidkit::obs {
namespace {

// The registry is a process-wide singleton shared with every other test
// in this binary; each test starts from a clean slate and leaves the
// global switch off so unrelated tests never pay for (or observe) obs.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::instance().reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    Registry::instance().reset();
  }
};

TEST(ScenarioMetricsTest, KeepsEntriesSortedAndUnique) {
  ScenarioMetrics m;
  m.set("zeta", 3);
  m.set("alpha", 1);
  m.set("mid", 2);
  m.set("alpha", 10);  // overwrite, not duplicate

  ASSERT_EQ(m.entries().size(), 3u);
  EXPECT_EQ(m.entries()[0].first, "alpha");
  EXPECT_EQ(m.entries()[1].first, "mid");
  EXPECT_EQ(m.entries()[2].first, "zeta");
  EXPECT_EQ(m.get("alpha"), 10u);
  EXPECT_EQ(m.get("zeta"), 3u);
  EXPECT_EQ(m.get("absent"), 0u);
}

TEST(ScenarioMetricsTest, EqualityIsValueBased) {
  ScenarioMetrics a, b;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a, b);
  // Insertion order must not matter: the canonical form is sorted.
  a.set("x", 1);
  a.set("y", 2);
  b.set("y", 2);
  b.set("x", 1);
  EXPECT_EQ(a, b);
  b.set("x", 9);
  EXPECT_NE(a, b);
}

TEST_F(ObsTest, CountIsNoOpWhenDisabled) {
  set_enabled(false);
  Registry::instance().add_process_counts({100, 0, 0, 1});
  EXPECT_EQ(Registry::instance().hot_counter(Hot::kEventsExecuted), 0u);
  EXPECT_EQ(Registry::instance().hot_counter(Hot::kFramesDropped), 0u);
}

TEST_F(ObsTest, CountAccumulatesAcrossThreads) {
  auto& reg = Registry::instance();
  reg.add_process_counts({5, 9, 0, 0});
  reg.add_process_counts({1, 0, 2, 0});
  // Simulations finish on worker threads; each adds under the registry's
  // lock, so every count lands whichever thread adds it.
  std::thread worker([&reg] { reg.add_process_counts({7, 0, 0, 3}); });
  worker.join();
  EXPECT_EQ(reg.hot_counter(Hot::kEventsExecuted), 13u);
  EXPECT_EQ(reg.hot_counter(Hot::kTimersScheduled), 9u);
  EXPECT_EQ(reg.hot_counter(Hot::kFramesDelivered), 2u);
  EXPECT_EQ(reg.hot_counter(Hot::kFramesDropped), 3u);
}

TEST_F(ObsTest, MergeScenarioAddsCountersAndFeedsHistograms) {
  ScenarioMetrics a, b;
  a.set("sim.events_executed", 100);
  a.set("ospf.tx_hello", 4);
  b.set("sim.events_executed", 50);
  b.set("ospf.tx_hello", 6);
  RunRecord record;
  record.merge_scenario(a, {});
  record.merge_scenario(b, {});

  EXPECT_EQ(record.counter("sim.events_executed"), 150u);
  EXPECT_EQ(record.counter("ospf.tx_hello"), 10u);
  EXPECT_EQ(record.counter("never.set"), 0u);
  // Each merged scenario is one histogram observation.
  const auto json = record.sim_json();
  EXPECT_NE(json.find("\"sim.events_per_scenario\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  // ...and one coverage point, even with nothing covered.
  EXPECT_EQ(record.scenarios(), 2u);
}

TEST_F(ObsTest, ConvergenceTimeFeedsHistogramNotCounter) {
  ScenarioMetrics m;
  m.set("scenario.convergence_time_us", 42'000);
  RunRecord record;
  record.merge_scenario(m, {});
  // Convergence time is a per-scenario observation, not an additive
  // counter — summing microseconds across scenarios would be nonsense.
  EXPECT_EQ(record.counter("scenario.convergence_time_us"), 0u);
  const auto json = record.sim_json();
  EXPECT_NE(json.find("\"sim.convergence_time_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"sum\":42"), std::string::npos);
}

TEST_F(ObsTest, AddIsACounterWithoutACoveragePoint) {
  RunRecord record;
  record.add("triage.probes", 7);
  record.add("triage.probes", 3);
  EXPECT_EQ(record.counter("triage.probes"), 10u);
  EXPECT_EQ(record.scenarios(), 0u);
  EXPECT_TRUE(record.curve().empty());
  EXPECT_EQ(record.sim_json(),
            "\"sim\":{\"counters\":{\"triage.probes\":10},"
            "\"histograms\":{}}");
}

TEST_F(ObsTest, RecordSpanKeepsEventAndFeedsWallHistogram) {
  auto& reg = Registry::instance();
  reg.record_span("simulate", "frr/linear-2/s1", 100, 350);
  ASSERT_EQ(reg.span_count(), 1u);
  const auto spans = reg.spans();
  EXPECT_EQ(spans[0].name, "simulate");
  EXPECT_EQ(spans[0].label, "frr/linear-2/s1");
  EXPECT_EQ(spans[0].ts_us, 100);
  EXPECT_EQ(spans[0].dur_us, 250);

  const auto json = reg.wall_json();
  EXPECT_NE(json.find("\"wall.simulate_us\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\":1"), std::string::npos);
}

TEST_F(ObsTest, SpanRaiiIsNoOpWhenDisabled) {
  set_enabled(false);
  {
    Span span("simulate", "ignored");
  }
  EXPECT_EQ(Registry::instance().span_count(), 0u);
}

TEST_F(ObsTest, SpanFinishIsIdempotent) {
  Span span("mine", "frr/mesh-3/s2");
  span.finish();
  span.finish();
  EXPECT_EQ(Registry::instance().span_count(), 1u);
  // Destruction after finish() must not record a second span.
}

TEST_F(ObsTest, MetricsJsonIsLineStructured) {
  ScenarioMetrics m;
  m.set("sim.events_executed", 7);
  cov::CoverageVector v;
  v.add(cov::chaos(cov::ChaosClass::kLoss));
  RunRecord record;
  record.merge_scenario(m, v);
  Registry::instance().add_process_counts({7, 0, 0, 0});

  // Each section lives on one line so determinism checks can extract the
  // deterministic ones with a line-oriented tool.
  const auto sim = record.sim_json();
  const auto cov = record.cov_json();
  const auto wall = Registry::instance().wall_json();
  for (const auto* line : {&sim, &cov, &wall})
    EXPECT_EQ(line->find('\n'), std::string::npos) << *line;
  EXPECT_EQ(sim.rfind("\"sim\":{", 0), 0u);
  EXPECT_EQ(cov.rfind("\"cov\":{", 0), 0u);
  EXPECT_EQ(wall.rfind("\"wall\":{", 0), 0u);
  EXPECT_NE(wall.find("\"process.events_executed\":7"), std::string::npos);

  EXPECT_EQ(metrics_json(record), "{\n\"version\":1,\n" + sim + ",\n" + cov +
                                      ",\n" + wall + "\n}\n");
}

TEST_F(ObsTest, ResetClearsEveryDomain) {
  ScenarioMetrics m;
  m.set("sim.events_executed", 9);
  RunRecord record;
  record.merge_scenario(m, {});
  auto& reg = Registry::instance();
  reg.record_span("simulate", "x", 0, 10);
  reg.add_process_counts({0, 0, 3, 0});

  // The wall registry resets in place; a record resets by being replaced.
  reg.reset();
  record = RunRecord{};
  EXPECT_EQ(record.counter("sim.events_executed"), 0u);
  EXPECT_EQ(record.scenarios(), 0u);
  EXPECT_EQ(reg.span_count(), 0u);
  EXPECT_EQ(reg.hot_counter(Hot::kFramesDelivered), 0u);
  EXPECT_EQ(reg.wall_json().find("\"wall.simulate_us\""), std::string::npos);
}

}  // namespace
}  // namespace nidkit::obs
