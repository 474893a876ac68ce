// End-to-end determinism contract of the result cache: audits and sweeps
// must produce identical reports whether every scenario is freshly
// simulated, replayed from a warm cache, or a mix — across worker counts.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "detect/json.hpp"
#include "harness/experiment.hpp"
#include "harness/stability.hpp"

namespace nidkit::harness {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class CacheIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("nidkit_cache_it_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ExperimentConfig config(std::size_t jobs, bool cached) const {
    ExperimentConfig c;
    c.topologies = {topo::Spec{topo::Kind::kLinear, 2},
                    topo::Spec{topo::Kind::kMesh, 3}};
    c.seeds = {1, 2};
    c.duration = 90s;
    c.jobs = jobs;
    if (cached) c.cache_dir = dir_;
    return c;
  }

  static std::string report_json(const AuditResult& audit) {
    return detect::to_json(audit.named(), audit.discrepancies);
  }

  std::string dir_;
};

TEST_F(CacheIntegrationTest, WarmAuditIsByteIdenticalAndAllHits) {
  const auto profiles = {ospf::frr_profile(), ospf::bird_profile()};
  const auto cold =
      audit_ospf(profiles, config(1, true), mining::ospf_type_scheme());
  EXPECT_EQ(cold.exec.cache_hits, 0u);
  EXPECT_EQ(cold.exec.cache_misses, 8u);  // 2 impls x 2 topos x 2 seeds

  const auto warm =
      audit_ospf(profiles, config(1, true), mining::ospf_type_scheme());
  EXPECT_EQ(warm.exec.cache_hits, 8u);
  EXPECT_EQ(warm.exec.cache_misses, 0u);
  EXPECT_EQ(warm.exec.tasks_run, 0u);  // nothing was simulated

  const auto uncached =
      audit_ospf(profiles, config(1, false), mining::ospf_type_scheme());
  EXPECT_EQ(uncached.exec.cache_hits, 0u);
  EXPECT_EQ(uncached.exec.cache_misses, 0u);  // cache off, not missing

  EXPECT_EQ(report_json(cold), report_json(warm));
  EXPECT_EQ(report_json(cold), report_json(uncached));
}

TEST_F(CacheIntegrationTest, WorkerCountNeverChangesTheReport) {
  const auto profiles = {ospf::frr_profile(), ospf::bird_profile()};
  const auto reference =
      audit_ospf(profiles, config(1, false), mining::ospf_type_scheme());
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
    // Cold (partially warm on the second lap) and warm, at each width.
    const auto cached =
        audit_ospf(profiles, config(jobs, true), mining::ospf_type_scheme());
    EXPECT_EQ(report_json(reference), report_json(cached)) << jobs;
  }
}

TEST_F(CacheIntegrationTest, DuplicateSeedsComputeOnce) {
  auto c = config(2, true);
  c.seeds = {1, 1, 1};  // three identical keys per (impl, topo)
  ExecReport exec;
  const auto set = mine_ospf(ospf::frr_profile(), c,
                             mining::ospf_type_scheme(), &exec);
  EXPECT_GT(set.size(), 0u);
  // 2 topologies x 3 seeds = 6 jobs; each topology's key is computed once
  // and fanned in to the two duplicates.
  EXPECT_EQ(exec.cache_misses, 2u);
  EXPECT_EQ(exec.cache_dedup, 4u);
  EXPECT_EQ(exec.tasks_run, 2u);

  // The dedup must be invisible: identical to the uncached run.
  auto plain = c;
  plain.cache_dir.clear();
  const auto uncached =
      mine_ospf(ospf::frr_profile(), plain, mining::ospf_type_scheme());
  EXPECT_EQ(set.size(), uncached.size());
  for (const auto dir : {mining::RelationDirection::kSendToRecv,
                         mining::RelationDirection::kRecvToSend})
    for (const auto& [cell, stats] : set.cells(dir)) {
      const auto* other = uncached.find(dir, cell);
      ASSERT_NE(other, nullptr) << cell.stimulus << "->" << cell.response;
      EXPECT_EQ(stats.count, other->count);
      EXPECT_EQ(stats.first_seen, other->first_seen);
    }
}

TEST_F(CacheIntegrationTest, SweepWarmRunMatchesColdExactly) {
  auto c = config(2, true);
  c.seeds = {1};
  const std::vector<SimDuration> tds = {0ms, 300ms, 900ms};
  ExecReport cold_exec, warm_exec;
  const auto cold = tdelay_sweep(ospf::frr_profile(), c, tds,
                                 mining::ospf_type_scheme(), &cold_exec);
  const auto warm = tdelay_sweep(ospf::frr_profile(), c, tds,
                                 mining::ospf_type_scheme(), &warm_exec);
  EXPECT_EQ(cold_exec.cache_misses, 6u);  // 3 points x 2 topos
  EXPECT_EQ(warm_exec.cache_hits, 6u);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].tdelay, warm[i].tdelay);
    EXPECT_EQ(cold[i].mined_cells, warm[i].mined_cells);
    EXPECT_EQ(cold[i].unobserved_cells, warm[i].unobserved_cells);
    EXPECT_EQ(cold[i].spurious_cells, warm[i].spurious_cells);
    // Bit-exact double equality is the point: ratios are derived from
    // cached integer partials, never cached themselves.
    EXPECT_EQ(cold[i].precision, warm[i].precision);
    EXPECT_EQ(cold[i].recall, warm[i].recall);
  }
}

TEST_F(CacheIntegrationTest, ReportJsonCarriesCacheObjectOnlyWhenCached) {
  const auto profiles = {ospf::frr_profile(), ospf::bird_profile()};
  const auto cached =
      audit_ospf(profiles, config(2, true), mining::ospf_type_scheme());
  EXPECT_TRUE(cached.exec.cache_enabled);
  const auto cached_json = cached.exec.to_json();
  EXPECT_NE(cached_json.find("\"cache\":{"), std::string::npos);
  EXPECT_NE(cached_json.find("\"misses\":8"), std::string::npos);

  const auto plain =
      audit_ospf(profiles, config(2, false), mining::ospf_type_scheme());
  EXPECT_FALSE(plain.exec.cache_enabled);
  EXPECT_EQ(plain.exec.to_json().find("\"cache\""), std::string::npos);
}

TEST_F(CacheIntegrationTest, StabilityReusesAuditEntries) {
  // Stability over the same (profile, config, scheme) keys as a prior
  // audit replays the audit's cached scenarios instead of re-simulating.
  auto c = config(1, true);
  const auto profiles = {ospf::frr_profile(), ospf::bird_profile()};
  audit_ospf(profiles, c, mining::ospf_type_scheme());

  ExecReport exec;
  const auto report =
      ospf_relation_stability(ospf::frr_profile(), c,
                              mining::ospf_type_scheme(), &exec);
  EXPECT_FALSE(report.empty());
  EXPECT_EQ(exec.cache_hits, 4u);  // frr's 2 topos x 2 seeds, all cached
  EXPECT_EQ(exec.cache_misses, 0u);
}

}  // namespace
}  // namespace nidkit::harness
