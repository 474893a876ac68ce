// Flooding (§13) tests: propagation, acknowledgment strategies, stale-LSA
// handling (the FRR/BIRD divergence), retransmission, MinLSArrival.
#include <gtest/gtest.h>

#include "ospf_test_util.hpp"

namespace nidkit::ospf {
namespace {

using namespace std::chrono_literals;
using testutil::Rig;

LsaKey router_key(RouterId id) {
  return LsaKey{LsaType::kRouter, Ipv4Addr{id.value()}, id};
}

TEST(Flooding, ExternalLsaReachesAllRoutersInLine) {
  Rig rig;
  testutil::init_line(rig, 4, frr_profile());
  rig.start_all();
  rig.run_for(90s);
  rig.r(0).originate_external(Ipv4Addr{192, 168, 77, 0},
                              Ipv4Addr{255, 255, 255, 0}, 5);
  rig.run_for(30s);
  const LsaKey key{LsaType::kExternal, Ipv4Addr{192, 168, 77, 0}, rig.id(0)};
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NE(rig.r(i).lsdb().find(key), nullptr) << "router " << i;
}

TEST(Flooding, AllDatabasesConvergeToSameContent) {
  Rig rig;
  testutil::init_line(rig, 4, bird_profile());
  rig.start_all();
  rig.run_for(120s);
  const auto reference = rig.r(0).lsdb().summarize(rig.sim.now());
  for (std::size_t i = 1; i < 4; ++i) {
    const auto mine = rig.r(i).lsdb().summarize(rig.sim.now());
    ASSERT_EQ(mine.size(), reference.size()) << "router " << i;
    for (std::size_t k = 0; k < mine.size(); ++k) {
      EXPECT_TRUE(same_lsa(mine[k], reference[k]));
      EXPECT_EQ(mine[k].seq, reference[k].seq);
      EXPECT_EQ(mine[k].checksum, reference[k].checksum);
    }
  }
}

TEST(Flooding, AcksEmptyRetransmissionLists) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  rig.r(0).originate_external(Ipv4Addr{192, 168, 1, 0},
                              Ipv4Addr{255, 255, 255, 0}, 1);
  rig.run_for(30s);
  for (std::size_t i = 0; i < 2; ++i)
    for (const auto& oi : rig.r(i).interfaces())
      for (const auto& [id, n] : oi.neighbors)
        EXPECT_TRUE(n.retransmit.empty())
            << "router " << i << " still awaits acks";
}

TEST(Flooding, LostLsuIsRetransmitted) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  // Black-hole the link for 3 s around the flood so the first LSU copy is
  // lost, then let retransmission repair it.
  const auto t0 = rig.sim.now();
  rig.sim.schedule_at(t0 + 1s, [&] {
    rig.net.fault(0).loss = 1.0;
    rig.r(0).originate_external(Ipv4Addr{192, 168, 2, 0},
                                Ipv4Addr{255, 255, 255, 0}, 1);
  });
  rig.sim.schedule_at(t0 + 4s, [&] { rig.net.fault(0).loss = 0.0; });
  rig.run_for(30s);
  const LsaKey key{LsaType::kExternal, Ipv4Addr{192, 168, 2, 0}, rig.id(0)};
  EXPECT_NE(rig.r(1).lsdb().find(key), nullptr);
  EXPECT_GT(rig.r(0).stats().retransmissions, 0u);
}

TEST(Flooding, FrrRespondsToStaleLsuWithNewerCopy) {
  // FRR-like stale handling (§13 step 8): answer with the newer instance.
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);

  // Craft a stale LSU: an *older* instance of r1's own router-LSA, sent
  // from node 0's side of the link.
  const auto* entry = rig.r(0).lsdb().find(router_key(rig.id(1)));
  ASSERT_NE(entry, nullptr);
  Lsa stale = entry->lsa;
  stale.header.seq -= 1;
  stale.finalize();
  LsUpdateBody lsu;
  lsu.lsas.push_back(stale);
  auto pkt = make_packet(RouterId{1, 1, 1, 1}, kBackboneArea, std::move(lsu));

  int newer_lsus_at_node0 = 0;
  const auto newer_seq = entry->lsa.header.seq;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.node != rig.nodes[0]) return;
    if (ev.direction != netsim::Direction::kRecv) return;
    auto decoded = decode(ev.frame->payload);
    if (!decoded.ok()) return;
    if (const auto* body = std::get_if<LsUpdateBody>(&decoded.value().body))
      for (const auto& lsa : body->lsas)
        if (same_lsa(lsa.header, stale.header) && lsa.header.seq >= newer_seq)
          ++newer_lsus_at_node0;
  });

  netsim::Frame frame;
  frame.dst = rig.net.iface(rig.nodes[1], 0).address;
  frame.protocol = kIpProtoOspf;
  frame.payload = encode(pkt);
  rig.net.send(rig.nodes[0], 0, std::move(frame));
  rig.run_for(10s);
  EXPECT_GT(newer_lsus_at_node0, 0)
      << "stale sender must receive the newer LSA back";
}

TEST(Flooding, BirdAcksStaleLsuFromDatabase) {
  // BIRD-like stale handling: acknowledge with the database copy's header,
  // whose sequence number exceeds the stale update's (the paper's Table 2
  // discrepancy).
  Rig rig;
  testutil::init_two(rig, bird_profile());
  rig.start_all();
  rig.run_for(60s);

  const auto* entry = rig.r(0).lsdb().find(router_key(rig.id(1)));
  ASSERT_NE(entry, nullptr);
  Lsa stale = entry->lsa;
  stale.header.seq -= 1;
  stale.finalize();
  LsUpdateBody lsu;
  lsu.lsas.push_back(stale);
  auto pkt = make_packet(RouterId{1, 1, 1, 1}, kBackboneArea, std::move(lsu));

  int greater_sn_acks = 0;
  int newer_lsus = 0;
  rig.net.set_tap([&](const netsim::TapEvent& ev) {
    if (ev.node != rig.nodes[0]) return;
    if (ev.direction != netsim::Direction::kRecv) return;
    auto decoded = decode(ev.frame->payload);
    if (!decoded.ok()) return;
    if (const auto* ack = std::get_if<LsAckBody>(&decoded.value().body)) {
      for (const auto& h : ack->lsa_headers)
        if (same_lsa(h, stale.header) && h.seq > stale.header.seq)
          ++greater_sn_acks;
    } else if (const auto* body =
                   std::get_if<LsUpdateBody>(&decoded.value().body)) {
      for (const auto& lsa : body->lsas)
        if (same_lsa(lsa.header, stale.header) &&
            lsa.header.seq > stale.header.seq)
          ++newer_lsus;
    }
  });

  netsim::Frame frame;
  frame.dst = rig.net.iface(rig.nodes[1], 0).address;
  frame.protocol = kIpProtoOspf;
  frame.payload = encode(pkt);
  rig.net.send(rig.nodes[0], 0, std::move(frame));
  rig.run_for(10s);
  EXPECT_GT(greater_sn_acks, 0) << "BIRD must ack stale LSUs from its DB";
  EXPECT_EQ(newer_lsus, 0) << "BIRD must NOT respond with the newer LSA";
}

TEST(Flooding, ReceivingNewerSelfLsaTriggersSeqBump) {
  // §13.4: a router that receives a newer instance of its own LSA must
  // advance past it and re-originate.
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);

  const auto* own = rig.r(1).lsdb().find(router_key(rig.id(1)));
  ASSERT_NE(own, nullptr);
  const auto old_seq = own->lsa.header.seq;

  Lsa newer = own->lsa;
  newer.header.seq += 3;
  newer.finalize();
  LsUpdateBody lsu;
  lsu.lsas.push_back(newer);
  auto pkt = make_packet(RouterId{1, 1, 1, 1}, kBackboneArea, std::move(lsu));
  netsim::Frame frame;
  frame.dst = rig.net.iface(rig.nodes[1], 0).address;
  frame.protocol = kIpProtoOspf;
  frame.payload = encode(pkt);
  rig.net.send(rig.nodes[0], 0, std::move(frame));
  rig.run_for(15s);

  const auto* after = rig.r(1).lsdb().find(router_key(rig.id(1)));
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->lsa.header.seq, old_seq + 3)
      << "own LSA must be re-originated past the received instance";
  EXPECT_EQ(after->lsa.header.advertising_router, rig.id(1));
}

TEST(Flooding, DuplicateLsuCountsAsDuplicate) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.net.fault(0).duplicate = 1.0;  // every frame delivered twice
  rig.start_all();
  rig.run_for(60s);
  EXPECT_GT(rig.r(0).stats().duplicates_received +
                rig.r(1).stats().duplicates_received,
            0u);
  // Despite pervasive duplication, adjacency still completes.
  EXPECT_EQ(rig.r(0).neighbor_state(rig.id(1)), NeighborState::kFull);
}

TEST(Flooding, RefreshAdvancesSequenceNumbers) {
  Rig rig;
  auto profile = frr_profile();
  profile.lsa_refresh_interval = 20s;
  testutil::init_two(rig, profile);
  rig.start_all();
  rig.run_for(40s);
  const auto* e1 = rig.r(0).lsdb().find(router_key(rig.id(0)));
  ASSERT_NE(e1, nullptr);
  const auto seq_before = e1->lsa.header.seq;
  rig.run_for(41s);  // two refresh periods past the first check...
  const auto* e2 = rig.r(0).lsdb().find(router_key(rig.id(0)));
  ASSERT_NE(e2, nullptr);
  EXPECT_GT(e2->lsa.header.seq, seq_before);
  EXPECT_GT(rig.r(0).stats().lsa_refreshes, 0u);
  const auto latest = e2->lsa.header.seq;
  rig.run_for(4s);  // ...plus propagation slack before checking the peer
  const auto* on_peer = rig.r(1).lsdb().find(router_key(rig.id(0)));
  ASSERT_NE(on_peer, nullptr);
  EXPECT_GE(on_peer->lsa.header.seq, latest);
}

TEST(Flooding, ChurnPropagatesThroughMultiHopNetwork) {
  Rig rig;
  testutil::init_line(rig, 5, frr_profile());
  rig.start_all();
  rig.run_for(120s);
  rig.r(4).originate_external(Ipv4Addr{203, 0, 113, 0},
                              Ipv4Addr{255, 255, 255, 0}, 7);
  rig.run_for(40s);
  const LsaKey key{LsaType::kExternal, Ipv4Addr{203, 0, 113, 0}, rig.id(4)};
  const auto* at_far_end = rig.r(0).lsdb().find(key);
  ASSERT_NE(at_far_end, nullptr);
  EXPECT_EQ(std::get<ExternalLsaBody>(at_far_end->lsa.body).metric, 7u);
}

TEST(Flooding, BumpSelfLsasRefloodsEverything) {
  Rig rig;
  testutil::init_two(rig, frr_profile());
  rig.start_all();
  rig.run_for(60s);
  const auto* before = rig.r(0).lsdb().find(router_key(rig.id(0)));
  const auto seq_before = before->lsa.header.seq;
  rig.r(0).bump_self_lsas();
  rig.run_for(20s);
  const auto* after_local = rig.r(0).lsdb().find(router_key(rig.id(0)));
  const auto* after_peer = rig.r(1).lsdb().find(router_key(rig.id(0)));
  EXPECT_GT(after_local->lsa.header.seq, seq_before);
  EXPECT_EQ(after_peer->lsa.header.seq, after_local->lsa.header.seq);
}

}  // namespace
}  // namespace nidkit::ospf
