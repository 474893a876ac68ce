// Neighbor FSM and database-exchange tests: hello discovery, master/slave
// negotiation, Full adjacency, dead-interval expiry, parameter mismatch.
#include <gtest/gtest.h>

#include "ospf_test_util.hpp"

namespace nidkit::ospf {
namespace {

using namespace std::chrono_literals;
using testutil::Rig;

TEST(Adjacency, TwoRoutersReachFull) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kFull);
  EXPECT_EQ(rig.r(1).neighbor_state(rig.id(0)), NeighborState::kFull);
}

TEST(Adjacency, BirdProfileAlsoReachesFull) {
  Rig rig;
  testutil::init_two(rig, bird_profile());
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kFull);
  EXPECT_EQ(rig.r(1).neighbor_state(rig.id(0)), NeighborState::kFull);
}

TEST(Adjacency, MixedProfilesInteroperate) {
  // The profiles model *interoperable* daemons: a FRR-like and a BIRD-like
  // router on one link must still synchronize.
  Rig rig;
  rig.add_nodes(2);
  rig.net.add_p2p(rig.nodes[0], rig.nodes[1]);
  rig.net.fault(0).delay = 50ms;
  RouterConfig c0;
  c0.router_id = RouterId{1, 1, 1, 1};
  c0.profile = frr_profile();
  rig.routers.push_back(
      std::make_unique<Router>(rig.net, rig.nodes[0], c0, 1));
  RouterConfig c1;
  c1.router_id = RouterId{2, 2, 2, 2};
  c1.profile = bird_profile();
  rig.routers.push_back(
      std::make_unique<Router>(rig.net, rig.nodes[1], c1, 2));
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kFull);
  EXPECT_EQ(rig.r(1).neighbor_state(rig.id(0)), NeighborState::kFull);
}

TEST(Adjacency, DatabasesIdenticalAfterSync) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).lsdb().size(), 2u);  // both router-LSAs
  EXPECT_EQ(rig.r(1).lsdb().size(), 2u);
  const LsaKey key{LsaType::kRouter, Ipv4Addr{rig.id(0).value()}, rig.id(0)};
  const auto* on0 = rig.r(0).lsdb().find(key);
  const auto* on1 = rig.r(1).lsdb().find(key);
  ASSERT_NE(on0, nullptr);
  ASSERT_NE(on1, nullptr);
  EXPECT_EQ(on0->lsa.header.seq, on1->lsa.header.seq);
  EXPECT_EQ(on0->lsa.header.checksum, on1->lsa.header.checksum);
}

TEST(Adjacency, HigherRouterIdBecomesMaster) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  // 2.2.2.2 > 1.1.1.1: router 1 is master of the exchange.
  const auto& n0 = rig.r(0).interfaces()[0].neighbors.at(rig.id(1));
  const auto& n1 = rig.r(1).interfaces()[0].neighbors.at(rig.id(0));
  EXPECT_FALSE(n0.we_are_master);
  EXPECT_TRUE(n1.we_are_master);
}

TEST(Adjacency, HelloIntervalMismatchPreventsAdjacency) {
  Rig rig;
  rig.add_nodes(2);
  rig.net.add_p2p(rig.nodes[0], rig.nodes[1]);
  RouterConfig c0;
  c0.router_id = RouterId{1, 1, 1, 1};
  c0.profile = frr_profile();
  c0.hello_interval = 10s;
  rig.routers.push_back(
      std::make_unique<Router>(rig.net, rig.nodes[0], c0, 1));
  RouterConfig c1 = c0;
  c1.router_id = RouterId{2, 2, 2, 2};
  c1.hello_interval = 5s;  // mismatch: hellos must be ignored (§10.5)
  rig.routers.push_back(
      std::make_unique<Router>(rig.net, rig.nodes[1], c1, 2));
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kDown);
  EXPECT_EQ(rig.r(1).neighbor_state(rig.id(0)), NeighborState::kDown);
}

TEST(Adjacency, DeadIntervalExpiresCrashedNeighbor) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  ASSERT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kFull);

  rig.r(1).stop();  // silent crash: no more hellos
  // RouterDeadInterval (40 s) counts from the *last received hello*, which
  // predates the crash by up to one hello interval (10 s).
  rig.run_for(29s);
  EXPECT_NE(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kDown);
  rig.run_for(26s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kDown);
}

TEST(Adjacency, RouterLsaDropsLinkAfterNeighborDeath) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  rig.r(1).stop();
  rig.run_for(60s);
  const LsaKey key{LsaType::kRouter, Ipv4Addr{rig.id(0).value()}, rig.id(0)};
  const auto* entry = rig.r(0).lsdb().find(key);
  ASSERT_NE(entry, nullptr);
  const auto& body = std::get<RouterLsaBody>(entry->lsa.body);
  for (const auto& link : body.links)
    EXPECT_NE(link.type, RouterLinkType::kPointToPoint)
        << "p2p link to the dead neighbor must disappear";
}

TEST(Adjacency, LinkCutDropsAdjacencyAfterDeadInterval) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  rig.net.fault(0).down = true;
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kDown);
  EXPECT_EQ(rig.r(1).neighbor_state(rig.id(0)), NeighborState::kDown);
}

TEST(Adjacency, ReconvergesAfterLinkRestored) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  rig.net.fault(0).down = true;
  rig.run_for(60s);
  rig.net.fault(0).down = false;
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kFull);
  EXPECT_EQ(rig.r(1).neighbor_state(rig.id(0)), NeighborState::kFull);
}

TEST(Adjacency, StatsCountTraffic) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  const auto& s = rig.r(0).stats();
  EXPECT_GT(s.tx_by_type[1], 0u);  // hellos
  EXPECT_GT(s.tx_by_type[2], 0u);  // DBDs
  EXPECT_GT(s.rx_by_type[1], 0u);
  EXPECT_GT(s.lsa_installs, 0u);
  EXPECT_EQ(s.decode_failures, 0u);
}

TEST(Adjacency, FullAdjacenciesPredicate) {
  Rig rig;
  testutil::init_line(rig, 3, frr_profile());
  rig.start_all();
  rig.run_for(90s);
  EXPECT_TRUE(rig.r(1).full_adjacencies(2));   // middle router: 2 neighbors
  EXPECT_TRUE(rig.r(0).full_adjacencies(1));
  EXPECT_FALSE(rig.r(0).full_adjacencies(2));
}

TEST(Adjacency, MaxNeighborStateProbe) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  EXPECT_EQ(rig.r(0).max_neighbor_state(), -1);
  rig.start_all();
  rig.run_for(60s);
  EXPECT_EQ(rig.r(0).max_neighbor_state(),
            static_cast<int>(NeighborState::kFull));
}

TEST(Adjacency, SurvivesHeavyLossEventually) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.net.fault(0).loss = 0.15;
  rig.start_all();
  rig.run_for(300s);
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kFull);
  EXPECT_GT(rig.r(0).stats().retransmissions +
                rig.r(1).stats().retransmissions,
            0u);
}

}  // namespace
}  // namespace nidkit::ospf
