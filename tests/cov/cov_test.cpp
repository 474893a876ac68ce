#include "cov/cov.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace nidkit::cov {
namespace {

TEST(FeatureIdTest, EncodingPacksClassAndPayload) {
  const FeatureId edge = fsm_edge(Proto::kOspf, 3, 4);
  EXPECT_EQ(feature_class(edge), FeatureClass::kFsmEdge);
  EXPECT_EQ(edge & 0xFFFFFF, (1u << 16) | (3u << 8) | 4u);

  const FeatureId pair = packet_pair(Proto::kBgp, 2, 3);
  EXPECT_EQ(feature_class(pair), FeatureClass::kPacketPair);
  EXPECT_EQ(pair & 0xFFFFFF, (3u << 16) | (2u << 8) | 3u);

  EXPECT_EQ(feature_class(path_marker(OspfMarker::kRetransmission)),
            FeatureClass::kPathMarker);
  EXPECT_EQ(feature_class(lsa_lifecycle(LsaEvent::kRefresh)),
            FeatureClass::kLsaLifecycle);
  EXPECT_EQ(feature_class(chaos(ChaosClass::kLoss)), FeatureClass::kChaos);
}

TEST(FeatureIdTest, DistinctFeaturesGetDistinctIds) {
  std::vector<FeatureId> all;
  for (unsigned f = 0; f < kOspfFsmStates; ++f)
    for (unsigned t = 0; t < kOspfFsmStates; ++t)
      if (f != t) all.push_back(fsm_edge(Proto::kOspf, f, t));
  for (unsigned f = 0; f < kBgpFsmStates; ++f)
    for (unsigned t = 0; t < kBgpFsmStates; ++t)
      if (f != t) all.push_back(fsm_edge(Proto::kBgp, f, t));
  for (unsigned r = 1; r <= kOspfPacketKinds; ++r)
    for (unsigned s = 1; s <= kOspfPacketKinds; ++s)
      all.push_back(packet_pair(Proto::kOspf, r, s));
  for (unsigned m = 1; m <= kOspfMarkers; ++m)
    all.push_back(path_marker(Proto::kOspf, m));
  for (unsigned e = 1; e <= kLsaEvents; ++e)
    all.push_back(make_feature(FeatureClass::kLsaLifecycle, e));
  for (unsigned c = 1; c <= kChaosClasses; ++c)
    all.push_back(make_feature(FeatureClass::kChaos, c));

  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  for (const auto id : all) EXPECT_TRUE(declared(id)) << feature_name(id);
}

TEST(FeatureIdTest, DeclaredRejectsOutOfUniverseIds) {
  // Self-transitions are not edges: set_*_state early-returns on them.
  EXPECT_FALSE(declared(fsm_edge(Proto::kOspf, 2, 2)));
  // Out-of-range states / kinds / markers.
  EXPECT_FALSE(declared(fsm_edge(Proto::kOspf, 7, 0)));
  EXPECT_FALSE(declared(fsm_edge(Proto::kBgp, 0, 4)));
  // RIP has no peer FSM.
  EXPECT_FALSE(declared(fsm_edge(Proto::kRip, 0, 1)));
  // Packet kinds are 1-based.
  EXPECT_FALSE(declared(packet_pair(Proto::kOspf, 0, 1)));
  EXPECT_FALSE(declared(packet_pair(Proto::kOspf, 1, 6)));
  EXPECT_FALSE(declared(packet_pair(Proto::kRip, 3, 1)));
  EXPECT_FALSE(declared(path_marker(Proto::kOspf, 0)));
  EXPECT_FALSE(declared(path_marker(Proto::kOspf, kOspfMarkers + 1)));
  EXPECT_FALSE(declared(make_feature(FeatureClass::kLsaLifecycle, 0)));
  EXPECT_FALSE(declared(make_feature(FeatureClass::kLsaLifecycle, 4)));
  EXPECT_FALSE(declared(make_feature(FeatureClass::kChaos, 7)));
  // Bad protocol / bad class byte.
  EXPECT_FALSE(declared(fsm_edge(static_cast<Proto>(4), 0, 1)));
  EXPECT_FALSE(declared(make_feature(static_cast<FeatureClass>(6), 1)));
  EXPECT_FALSE(declared(0));
}

TEST(FeatureIdTest, NamesAreStableAndHumanReadable) {
  EXPECT_EQ(feature_name(fsm_edge(Proto::kOspf, 3, 4)),
            "fsm.ospf.ExStart>Exchange");
  EXPECT_EQ(feature_name(fsm_edge(Proto::kBgp, 0, 1)),
            "fsm.bgp.Idle>OpenSent");
  EXPECT_EQ(feature_name(packet_pair(Proto::kOspf, 1, 2)),
            "pair.ospf.Hello>Dbd");
  EXPECT_EQ(feature_name(packet_pair(Proto::kBgp, 2, 3)),
            "pair.bgp.Update>Notification");
  EXPECT_EQ(feature_name(packet_pair(Proto::kRip, 1, 2)),
            "pair.rip.Request>Response");
  EXPECT_EQ(feature_name(path_marker(OspfMarker::kRetransmission)),
            "path.ospf.retransmission");
  EXPECT_EQ(feature_name(path_marker(BgpMarker::kSessionReset)),
            "path.bgp.session_reset");
  EXPECT_EQ(feature_name(path_marker(RipMarker::kTriggeredUpdate)),
            "path.rip.triggered_update");
  EXPECT_EQ(feature_name(lsa_lifecycle(LsaEvent::kMaxAgeFlush)),
            "lsa.maxage_flush");
  EXPECT_EQ(feature_name(chaos(ChaosClass::kLoss)), "chaos.loss");
  // Undeclared ids name to nothing.
  EXPECT_EQ(feature_name(fsm_edge(Proto::kOspf, 2, 2)), "");
}

TEST(FeatureIdTest, UniverseSizesMatchTheDeclaredTaxonomy) {
  // FSM edges count from != to only: OSPF 7*6, BGP 4*3, RIP none.
  EXPECT_EQ(universe_size(FeatureClass::kFsmEdge), 42u + 12u);
  // Packet pairs: OSPF 5*5, RIP 2*2, BGP 4*4.
  EXPECT_EQ(universe_size(FeatureClass::kPacketPair), 25u + 4u + 16u);
  EXPECT_EQ(universe_size(FeatureClass::kPathMarker), 6u + 3u + 3u);
  EXPECT_EQ(universe_size(FeatureClass::kLsaLifecycle), 3u);
  EXPECT_EQ(universe_size(FeatureClass::kChaos), 6u);
  EXPECT_EQ(universe_size(), 54u + 45u + 12u + 3u + 6u);
}

TEST(CoverageVectorTest, FinalizeSortsDedupsAndIsIdempotent) {
  CoverageVector v;
  v.add(chaos(ChaosClass::kLoss));
  v.add(fsm_edge(Proto::kOspf, 0, 1));
  v.add(chaos(ChaosClass::kLoss));
  v.add(fsm_edge(Proto::kOspf, 0, 1));
  v.finalize();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_TRUE(std::is_sorted(v.ids().begin(), v.ids().end()));
  const auto once = v.ids();
  v.finalize();
  EXPECT_EQ(v.ids(), once);

  CoverageVector empty;
  empty.finalize();
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(v == empty);
}

// The coverage half of obs::RunRecord: the seen set, novelty list and
// saturation curve a run accumulates.
class CoverageMapTest : public ::testing::Test {
 protected:
  static CoverageVector vec(std::initializer_list<FeatureId> ids) {
    CoverageVector v;
    for (const auto id : ids) v.add(id);
    v.finalize();
    return v;
  }
};

TEST_F(CoverageMapTest, MergeTracksNoveltyCurveAndClassCounts) {
  obs::RunRecord record;
  EXPECT_EQ(record.scenarios(), 0u);
  EXPECT_EQ(record.seen().size(), 0u);

  const auto a = fsm_edge(Proto::kOspf, 0, 1);
  const auto b = packet_pair(Proto::kOspf, 1, 1);
  const auto c = chaos(ChaosClass::kDelay);

  record.merge_scenario({}, vec({a, b}));
  record.merge_scenario({}, vec({a, b}));  // nothing new
  record.merge_scenario({}, vec({b, c}));  // c is novel

  EXPECT_EQ(record.scenarios(), 3u);
  EXPECT_EQ(record.seen().size(), 3u);
  EXPECT_EQ(record.class_seen(FeatureClass::kFsmEdge), 1u);
  EXPECT_EQ(record.class_seen(FeatureClass::kPacketPair), 1u);
  EXPECT_EQ(record.class_seen(FeatureClass::kChaos), 1u);
  EXPECT_EQ(record.class_seen(FeatureClass::kLsaLifecycle), 0u);
  EXPECT_EQ(record.novelty(), (std::vector<std::uint64_t>{2, 0, 1}));
  EXPECT_EQ(record.curve(), (std::vector<std::uint64_t>{2, 2, 3}));
  const auto& seen = record.seen();
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST_F(CoverageMapTest, CovJsonIsExactlyOneLine) {
  obs::RunRecord record;
  record.merge_scenario({}, vec({fsm_edge(Proto::kOspf, 0, 1),
                                 lsa_lifecycle(LsaEvent::kOriginate)}));
  record.merge_scenario({}, vec({fsm_edge(Proto::kOspf, 0, 1)}));

  const std::string line = record.cov_json();
  // The whole section lives on one line so CI can `grep '"cov":' | cmp`.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.rfind("\"cov\":{", 0), 0u);
  EXPECT_NE(line.find("\"scenarios\":2"), std::string::npos);
  EXPECT_NE(line.find("\"features_seen\":2"), std::string::npos);
  EXPECT_NE(line.find("\"universe\":120"), std::string::npos);
  EXPECT_NE(line.find("\"fsm\":{\"seen\":1,\"universe\":54}"),
            std::string::npos);
  EXPECT_NE(line.find("\"novelty\":[2,0]"), std::string::npos);
  EXPECT_NE(line.find("\"curve\":[2,2]"), std::string::npos);
  EXPECT_NE(line.find("\"fsm.ospf.Down>Init\""), std::string::npos);
  EXPECT_NE(line.find("\"lsa.originate\""), std::string::npos);
}

TEST_F(CoverageMapTest, CoverageJsonIsLineStructured) {
  obs::RunRecord record;
  record.merge_scenario({}, vec({chaos(ChaosClass::kReorder)}));
  // The "cov" line sits between "sim" and "wall" in the metrics document,
  // with nothing else on it but the separating comma.
  const std::string doc = obs::metrics_json(record);
  EXPECT_NE(doc.find("},\n" + record.cov_json() + ",\n\"wall\":{"),
            std::string::npos);
  EXPECT_EQ(record.cov_json(),
            "\"cov\":{\"scenarios\":1,\"features_seen\":1,\"universe\":120,"
            "\"classes\":{\"fsm\":{\"seen\":0,\"universe\":54},"
            "\"pair\":{\"seen\":0,\"universe\":45},"
            "\"path\":{\"seen\":0,\"universe\":12},"
            "\"lsa\":{\"seen\":0,\"universe\":3},"
            "\"chaos\":{\"seen\":1,\"universe\":6}},"
            "\"novelty\":[1],\"curve\":[1],\"features\":[\"chaos.reorder\"]}");
}

}  // namespace
}  // namespace nidkit::cov
