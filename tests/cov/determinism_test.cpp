// The determinism half of the coverage contract: a run record's coverage
// — seen set, per-scenario novelty scores and saturation curve — is
// bit-identical across worker counts and cache temperature. Workers never
// touch the record; every scenario's CoverageVector merges in canonical
// index order on one thread, and cached entries replay the vector they
// stored instead of re-simulating.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>

#include "cache/store.hpp"
#include "cov/cov.hpp"
#include "harness/experiment.hpp"
#include "obs/obs.hpp"

namespace nidkit::harness {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class CovDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("nidkit_cov_det_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

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
  /// deterministic `"cov":{...}` snapshot line it produced.
  std::string audit_cov_json(std::size_t jobs, bool cached,
                             ExecReport* exec = nullptr) {
    record_ = {};
    auto c = config(jobs, cached);
    c.exec = exec;
    audit_ospf({ospf::frr_profile(), ospf::bird_profile()}, c,
               mining::ospf_type_scheme());
    return record_.cov_json();
  }

  std::string dir_;
  /// Reopened for each cached run, as each nidt command opens its own.
  std::optional<cache::Store> store_;
  obs::RunRecord record_;
};

TEST_F(CovDeterminismTest, CovSectionIdenticalAcrossWorkerCounts) {
  const auto one = audit_cov_json(1, /*cached=*/false);
  // The run actually exercised behavior — a vacuous comparison of two
  // empty sections would pass without testing anything.
  EXPECT_NE(one.find("\"fsm.ospf.Down>Init\""), std::string::npos);
  EXPECT_NE(one.find("\"pair.ospf."), std::string::npos);
  EXPECT_NE(one.find("\"lsa.originate\""), std::string::npos);
  EXPECT_EQ(one, audit_cov_json(4, /*cached=*/false));
  EXPECT_EQ(one, audit_cov_json(8, /*cached=*/false));
}

TEST_F(CovDeterminismTest, WarmCacheReplaysIdenticalCovSection) {
  ExecReport cold_exec, warm_exec;
  const auto cold = audit_cov_json(2, /*cached=*/true, &cold_exec);
  EXPECT_EQ(cold_exec.cache_misses, 8u);  // 2 impls x 2 topos x 2 seeds

  const auto warm = audit_cov_json(2, /*cached=*/true, &warm_exec);
  EXPECT_EQ(warm_exec.cache_hits, 8u);
  EXPECT_EQ(warm_exec.tasks_run, 0u);  // nothing re-simulated: pure replay

  const auto uncached = audit_cov_json(1, /*cached=*/false);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, uncached);
}

TEST_F(CovDeterminismTest, AuditRecordsOnlyDeclaredFeatures) {
  audit_cov_json(2, /*cached=*/false);
  const auto& seen = record_.seen();
  EXPECT_GT(seen.size(), 0u);
  for (const auto id : seen) {
    EXPECT_TRUE(cov::declared(id)) << "undeclared feature 0x" << std::hex
                                   << id;
    EXPECT_FALSE(cov::feature_name(id).empty());
  }
  // Coverage never exceeds the declared universe.
  EXPECT_LE(seen.size(), cov::universe_size());
}

TEST_F(CovDeterminismTest, SaturationCurveIsMonotoneAndEndsAtTotal) {
  audit_cov_json(2, /*cached=*/false);
  const auto& curve = record_.curve();
  const auto& novelty = record_.novelty();
  ASSERT_EQ(curve.size(), 8u);  // one point per scenario, canonical order
  ASSERT_EQ(novelty.size(), 8u);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(curve[i], prev + novelty[i]);
    EXPECT_GE(curve[i], prev);
    prev = curve[i];
  }
  EXPECT_EQ(curve.back(), record_.seen().size());
}

}  // namespace
}  // namespace nidkit::harness
