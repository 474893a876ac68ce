// The hook-coverage guard: cov declares its feature universe as plain
// constants (it sits below the protocol engines), so these tests pin the
// declared tables to the real enums enumerator by enumerator — adding an
// FSM state or packet kind without growing the universe fails here, not
// silently in a report. The audit-backed half then runs full default
// audits and asserts every feature the hooks actually recorded is
// declared and nameable.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "bgp/bgp_router.hpp"
#include "cov/cov.hpp"
#include "harness/experiment.hpp"
#include "obs/obs.hpp"
#include "ospf/router.hpp"
#include "packet/bgp_packet.hpp"
#include "packet/ospf_types.hpp"
#include "packet/rip_packet.hpp"

namespace nidkit {
namespace {

using namespace std::chrono_literals;
using harness::audit_bgp;
using harness::audit_ospf;
using harness::audit_rip;
using harness::ExperimentConfig;

TEST(HookGuard, OspfNeighborStatesPinTheFsmUniverse) {
  constexpr ospf::NeighborState kStates[] = {
      ospf::NeighborState::kDown,     ospf::NeighborState::kInit,
      ospf::NeighborState::kTwoWay,   ospf::NeighborState::kExStart,
      ospf::NeighborState::kExchange, ospf::NeighborState::kLoading,
      ospf::NeighborState::kFull,
  };
  static_assert(std::size(kStates) == cov::kOspfFsmStates,
                "ospf::NeighborState grew: extend cov's universe");
  for (unsigned i = 0; i < std::size(kStates); ++i)
    EXPECT_EQ(static_cast<unsigned>(kStates[i]), i);
  EXPECT_EQ(cov::fsm_state_count(cov::Proto::kOspf), cov::kOspfFsmStates);
}

TEST(HookGuard, BgpSessionStatesPinTheFsmUniverse) {
  constexpr bgp::SessionState kStates[] = {
      bgp::SessionState::kIdle,
      bgp::SessionState::kOpenSent,
      bgp::SessionState::kOpenConfirm,
      bgp::SessionState::kEstablished,
  };
  static_assert(std::size(kStates) == cov::kBgpFsmStates,
                "bgp::SessionState grew: extend cov's universe");
  for (unsigned i = 0; i < std::size(kStates); ++i)
    EXPECT_EQ(static_cast<unsigned>(kStates[i]), i);
  EXPECT_EQ(cov::fsm_state_count(cov::Proto::kBgp), cov::kBgpFsmStates);
  EXPECT_EQ(cov::fsm_state_count(cov::Proto::kRip), 0u);  // no peer FSM
}

TEST(HookGuard, DrRoleMaskBitsPinTheInterfaceStates) {
  // scenario.cpp translates dr_role_mask bits (indexed by InterfaceState
  // value) into role markers; these casts are the contract.
  EXPECT_EQ(static_cast<unsigned>(ospf::InterfaceState::kDrOther), 3u);
  EXPECT_EQ(static_cast<unsigned>(ospf::InterfaceState::kBackup), 4u);
  EXPECT_EQ(static_cast<unsigned>(ospf::InterfaceState::kDr), 5u);
}

TEST(HookGuard, PacketKindsPinThePairUniverse) {
  // All wire kinds are 1-based, dense, and counted by the cov constants.
  constexpr ospf::PacketType kOspf[] = {
      ospf::PacketType::kHello, ospf::PacketType::kDbd,
      ospf::PacketType::kLsRequest, ospf::PacketType::kLsUpdate,
      ospf::PacketType::kLsAck,
  };
  static_assert(std::size(kOspf) == cov::kOspfPacketKinds);
  static_assert(ospf::kNumPacketTypes ==
                static_cast<int>(cov::kOspfPacketKinds));
  for (unsigned i = 0; i < std::size(kOspf); ++i)
    EXPECT_EQ(static_cast<unsigned>(kOspf[i]), i + 1);

  constexpr rip::Command kRip[] = {rip::Command::kRequest,
                                   rip::Command::kResponse};
  static_assert(std::size(kRip) == cov::kRipPacketKinds);
  for (unsigned i = 0; i < std::size(kRip); ++i)
    EXPECT_EQ(static_cast<unsigned>(kRip[i]), i + 1);

  constexpr bgp::MessageType kBgp[] = {
      bgp::MessageType::kOpen, bgp::MessageType::kUpdate,
      bgp::MessageType::kNotification, bgp::MessageType::kKeepalive};
  static_assert(std::size(kBgp) == cov::kBgpPacketKinds);
  for (unsigned i = 0; i < std::size(kBgp); ++i)
    EXPECT_EQ(static_cast<unsigned>(kBgp[i]), i + 1);
}

TEST(HookGuard, EveryCrossStateEdgeIsDeclaredAndNamed) {
  for (const auto p : {cov::Proto::kOspf, cov::Proto::kBgp}) {
    const unsigned states = cov::fsm_state_count(p);
    for (unsigned from = 0; from < states; ++from) {
      for (unsigned to = 0; to < states; ++to) {
        const auto id = cov::fsm_edge(p, from, to);
        if (from == to) {
          EXPECT_FALSE(cov::declared(id));  // set_*_state skips self-edges
        } else {
          EXPECT_TRUE(cov::declared(id));
          EXPECT_FALSE(cov::feature_name(id).empty());
        }
      }
    }
  }
}

/// The audit-backed guard: full default audits over all three protocols,
/// then every feature the hooks recorded must be a declared FeatureId.
TEST(HookGuardAudit, DefaultAuditsRecordOnlyDeclaredFeatures) {
  obs::RunRecord record;
  // OSPF: the paper's full default audit (4 topologies x 3 seeds x 180s).
  ExperimentConfig ospf_config;
  ospf_config.record = &record;
  audit_ospf({ospf::frr_profile(), ospf::bird_profile()}, ospf_config,
             mining::ospf_type_scheme());

  // BGP: the motivating-incident setting, long-path stimulus included.
  ExperimentConfig bgp_config;
  bgp_config.record = &record;
  bgp_config.topologies = {topo::Spec{topo::Kind::kLinear, 3}};
  bgp_config.seeds = {1};
  bgp_config.duration = 300s;
  audit_bgp({bgp::bgp_robust_profile(), bgp::bgp_fragile_profile()},
            bgp_config, mining::bgp_message_scheme());

  // RIP: the variant-difference setting.
  ExperimentConfig rip_config;
  rip_config.record = &record;
  rip_config.topologies = {topo::Spec{topo::Kind::kLinear, 3}};
  rip_config.seeds = {1};
  rip_config.duration = 240s;
  audit_rip({rip::rip_classic_profile(), rip::rip_eager_profile()},
            rip_config, mining::rip_command_scheme());

  const auto& seen = record.seen();
  ASSERT_FALSE(seen.empty());
  std::uint64_t fsm_edges = 0;
  for (const auto id : seen) {
    EXPECT_TRUE(cov::declared(id))
        << "hook recorded undeclared feature 0x" << std::hex << id;
    EXPECT_FALSE(cov::feature_name(id).empty());
    fsm_edges += cov::feature_class(id) == cov::FeatureClass::kFsmEdge;
  }
  EXPECT_GT(fsm_edges, 0u);

  // The canonical adjacency bring-up edges must all have been walked.
  using cov::fsm_edge;
  using P = cov::Proto;
  for (const auto id :
       {fsm_edge(P::kOspf, 0, 1), fsm_edge(P::kOspf, 1, 2),
        fsm_edge(P::kOspf, 2, 3), fsm_edge(P::kOspf, 3, 4),
        fsm_edge(P::kOspf, 4, 5), fsm_edge(P::kOspf, 5, 6),
        fsm_edge(P::kBgp, 0, 1), fsm_edge(P::kBgp, 1, 2),
        fsm_edge(P::kBgp, 2, 3)}) {
    EXPECT_TRUE(std::binary_search(seen.begin(), seen.end(), id))
        << "expected audit to walk " << cov::feature_name(id);
  }
}

}  // namespace
}  // namespace nidkit
