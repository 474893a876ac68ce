// Merge-order property: the canonical-order merge discipline is what
// makes a run record's "sim" and "cov" sections deterministic, so this
// pins down exactly which outputs depend on order and which do not.
// Counter totals are pure sums — any permutation of the same scenario
// deltas must produce an identical snapshot. The final seen set is
// likewise permutation-invariant, while the saturation curve and novelty
// scores are order-*dependent* by design (that is the point of canonical
// order); shuffled merges must still agree on the final totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "cov/cov.hpp"
#include "obs/obs.hpp"

namespace nidkit {
namespace {

std::vector<obs::ScenarioMetrics> sample_deltas() {
  std::vector<obs::ScenarioMetrics> deltas;
  for (std::uint64_t i = 1; i <= 12; ++i) {
    obs::ScenarioMetrics m;
    m.set("scenario.runs", 1);
    m.set("sim.events_executed", 1000 + 37 * i);
    m.set("sim.frames_delivered", 50 * i);
    m.set("ospf.tx_hello", 10 + i % 3);
    if (i % 2 == 0) m.set("ospf.lsa_installs", i);
    if (i % 3 == 0) m.set("bgp.session_resets", 1);
    deltas.push_back(std::move(m));
  }
  return deltas;
}

std::string registry_json_for_order(const std::vector<obs::ScenarioMetrics>& ds,
                                    const std::vector<std::size_t>& order) {
  obs::RunRecord record;
  for (const auto i : order) record.merge_scenario(ds[i], {});
  return record.sim_json();
}

TEST(MergeOrder, RegistrySnapshotIsPermutationInvariant) {
  const auto deltas = sample_deltas();
  std::vector<std::size_t> order(deltas.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  const auto canonical = registry_json_for_order(deltas, order);
  EXPECT_NE(canonical.find("\"sim.events_executed\":"), std::string::npos);

  std::mt19937 rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    std::shuffle(order.begin(), order.end(), rng);
    EXPECT_EQ(canonical, registry_json_for_order(deltas, order))
        << "trial " << trial;
  }
}

std::vector<cov::CoverageVector> sample_vectors() {
  std::vector<cov::CoverageVector> vectors;
  for (unsigned i = 0; i < 10; ++i) {
    cov::CoverageVector v;
    v.add(cov::fsm_edge(cov::Proto::kOspf, 0, 1));  // common to all
    v.add(cov::fsm_edge(cov::Proto::kOspf, i % 6, i % 6 + 1));
    v.add(cov::packet_pair(cov::Proto::kOspf, 1 + i % 5, 1 + (i / 2) % 5));
    if (i % 2 == 0) v.add(cov::chaos(cov::ChaosClass::kLoss));
    if (i % 3 == 0) v.add(cov::lsa_lifecycle(cov::LsaEvent::kOriginate));
    v.finalize();
    vectors.push_back(std::move(v));
  }
  return vectors;
}

TEST(MergeOrder, CoverageTotalsArePermutationInvariantButCurveIsNot) {
  const auto vectors = sample_vectors();
  std::vector<std::size_t> order(vectors.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  obs::RunRecord record;
  const auto run = [&](const std::vector<std::size_t>& ord) {
    record = {};
    for (const auto i : ord) record.merge_scenario({}, vectors[i]);
  };

  run(order);
  const auto seen = record.seen();
  const auto features = record.seen().size();
  const auto curve = record.curve();
  ASSERT_GT(features, 1u);
  ASSERT_EQ(curve.back(), features);

  std::mt19937 rng(99);
  bool some_curve_differed = false;
  for (int trial = 0; trial < 8; ++trial) {
    std::shuffle(order.begin(), order.end(), rng);
    run(order);
    // Final totals never depend on merge order...
    EXPECT_EQ(record.seen(), seen) << "trial " << trial;
    EXPECT_EQ(record.seen().size(), features);
    EXPECT_EQ(record.curve().back(), features);
    // ...but the curve's shape generally does: it narrates *when* each
    // feature first appeared, which is why merges must happen in
    // canonical scenario order.
    some_curve_differed |= record.curve() != curve;
  }
  EXPECT_TRUE(some_curve_differed)
      << "every shuffle produced the canonical curve — the sample "
         "vectors are too uniform to exercise order dependence";
}

TEST(MergeOrder, ShuffledThenCanonicalizedVectorsMatchCanonicalSnapshot) {
  // The per-scenario vector itself is canonical (sorted unique), so a
  // vector built from features observed in any order finalizes to the
  // same bytes — merge results cannot depend on hook firing order.
  std::vector<cov::FeatureId> features = {
      cov::fsm_edge(cov::Proto::kOspf, 0, 1),
      cov::fsm_edge(cov::Proto::kOspf, 1, 2),
      cov::packet_pair(cov::Proto::kOspf, 1, 2),
      cov::path_marker(cov::OspfMarker::kDrRole),
      cov::lsa_lifecycle(cov::LsaEvent::kRefresh),
      cov::chaos(cov::ChaosClass::kChurn),
  };
  cov::CoverageVector canonical;
  for (const auto id : features) canonical.add(id);
  canonical.finalize();

  std::mt19937 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    std::shuffle(features.begin(), features.end(), rng);
    cov::CoverageVector shuffled;
    for (const auto id : features) {
      shuffled.add(id);
      shuffled.add(id);  // duplicates collapse too
    }
    shuffled.finalize();
    EXPECT_TRUE(shuffled == canonical) << "trial " << trial;
  }
}

TEST(MergeOrder, SimSectionIsExactlyOneLine) {
  // CI greps '"sim":' out of --metrics-out files and byte-compares the
  // line across jobs/cache laps; that only works if the whole section
  // stays on one line. Same contract as the "cov" section.
  obs::RunRecord record;
  for (const auto& d : sample_deltas()) record.merge_scenario(d, {});
  const auto line = record.sim_json();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.rfind("\"sim\":{", 0), 0u);
}

}  // namespace
}  // namespace nidkit
