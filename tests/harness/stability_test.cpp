#include "harness/stability.hpp"

#include <gtest/gtest.h>

#include "detect/detect.hpp"

namespace nidkit::harness {
namespace {

using namespace std::chrono_literals;

ExperimentConfig tiny_config() {
  ExperimentConfig c;
  c.topologies = {topo::Spec{topo::Kind::kLinear, 2},
                  topo::Spec{topo::Kind::kMesh, 3}};
  c.seeds = {1, 2, 3};
  c.duration = 120s;
  return c;
}

TEST(Stability, FractionsAreWellFormedAndSorted) {
  const auto stability = ospf_relation_stability(
      ospf::frr_profile(), tiny_config(), mining::ospf_type_scheme());
  ASSERT_FALSE(stability.empty());
  std::size_t prev = stability.front().seeds_seen;
  for (const auto& s : stability) {
    EXPECT_GE(s.seeds_seen, 1u);
    EXPECT_LE(s.seeds_seen, 3u);
    EXPECT_EQ(s.seeds_total, 3u);
    EXPECT_GT(s.total_count, 0u);
    EXPECT_LE(s.seeds_seen, prev);  // sorted most-stable first
    prev = s.seeds_seen;
  }
}

TEST(Stability, CoreHandshakeIsFullyStable) {
  const auto stability = ospf_relation_stability(
      ospf::frr_profile(), tiny_config(), mining::ospf_type_scheme());
  bool found = false;
  for (const auto& s : stability) {
    if (s.direction == mining::RelationDirection::kSendToRecv &&
        s.cell == mining::RelationCell{"DBD", "DBD"}) {
      found = true;
      EXPECT_DOUBLE_EQ(s.fraction(), 1.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Stability, ThresholdOneKeepsOnlyUniversalCells) {
  const auto all = stable_relations(ospf::frr_profile(), tiny_config(),
                                    mining::ospf_type_scheme(), 0.0);
  const auto universal = stable_relations(ospf::frr_profile(), tiny_config(),
                                          mining::ospf_type_scheme(), 1.0);
  EXPECT_GT(all.size(), 0u);
  EXPECT_LE(universal.size(), all.size());
  // Every universal cell is in the full set.
  for (const auto dir : {mining::RelationDirection::kSendToRecv,
                         mining::RelationDirection::kRecvToSend})
    for (const auto& [cell, stats] : universal.cells(dir))
      EXPECT_NE(all.find(dir, cell), nullptr);
}

TEST(Stability, StableComparisonStillFlagsTable2Discrepancy) {
  ExperimentConfig c;  // paper defaults (4 topologies, 3 seeds)
  const auto frr = stable_relations(ospf::frr_profile(), c,
                                    mining::ospf_greater_lssn_scheme(), 0.5);
  const auto bird = stable_relations(ospf::bird_profile(), c,
                                     mining::ospf_greater_lssn_scheme(), 0.5);
  const auto flags = detect::compare_all({{"frr", &frr}, {"bird", &bird}});
  bool headline = false;
  for (const auto& d : flags)
    if (d.cell.response == "LSAck+gtSN" && d.present_in == "bird")
      headline = true;
  EXPECT_TRUE(headline)
      << "the Table 2 discrepancy must survive stability filtering";
}

}  // namespace
}  // namespace nidkit::harness
