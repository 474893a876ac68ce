#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include "packet/ospf_packet.hpp"
#include "rip/rip_router.hpp"

namespace nidkit::trace {
namespace {

using namespace std::chrono_literals;

netsim::Frame ospf_frame() {
  ospf::LsUpdateBody lsu;
  ospf::Lsa lsa;
  lsa.header.type = ospf::LsaType::kRouter;
  lsa.header.link_state_id = Ipv4Addr{1, 1, 1, 1};
  lsa.header.advertising_router = RouterId{1, 1, 1, 1};
  lsa.header.seq = ospf::kInitialSequenceNumber + 4;
  lsa.body = ospf::RouterLsaBody{};
  lsa.finalize();
  lsu.lsas.push_back(std::move(lsa));
  netsim::Frame f;
  f.dst = kAllSpfRouters;
  f.protocol = ospf::kIpProtoOspf;
  f.payload =
      encode(make_packet(RouterId{1, 1, 1, 1}, kBackboneArea, std::move(lsu)));
  return f;
}

netsim::Frame rip_frame() {
  netsim::Frame f;
  f.dst = rip::kRipMulticast;
  f.protocol = 17;
  f.payload = rip::encode(rip::make_full_table_request());
  return f;
}

struct TraceFixture : ::testing::Test {
  netsim::Simulator sim;
  netsim::Network net{sim, 3};
  netsim::NodeId a = net.add_node("a");
  netsim::NodeId b = net.add_node("b");
  TraceLog log;

  TraceFixture() {
    net.add_p2p(a, b);
    log.attach(net);
  }
};

TEST_F(TraceFixture, RecordsSendAndReceive) {
  net.send(a, 0, ospf_frame());
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log.records()[0].is_send());
  EXPECT_FALSE(log.records()[1].is_send());
  EXPECT_EQ(log.records()[0].node, a);
  EXPECT_EQ(log.records()[1].node, b);
}

TEST_F(TraceFixture, OspfDigestParsed) {
  net.send(a, 0, ospf_frame());
  sim.run();
  const auto* d = log.records()[0].ospf;
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->pkt_type, 4);  // LSU
  ASSERT_EQ(d->lsas.size(), 1u);
  EXPECT_EQ(d->lsas[0].lsa_type, 1);
  EXPECT_EQ(d->lsas[0].seq, ospf::kInitialSequenceNumber + 4);
  EXPECT_EQ(d->max_seq(), ospf::kInitialSequenceNumber + 4);
}

TEST_F(TraceFixture, RipDigestParsed) {
  net.send(a, 0, rip_frame());
  sim.run();
  const auto* d = log.records()[0].rip;
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->command, 1);
  EXPECT_TRUE(d->full_table_request);
  EXPECT_EQ(log.records()[0].ospf, nullptr);
}

TEST_F(TraceFixture, UnknownProtocolYieldsMonostate) {
  netsim::Frame junk;
  junk.dst = kAllSpfRouters;
  junk.protocol = 6;  // TCP: not modeled
  junk.payload = {1, 2, 3};
  net.send(a, 0, std::move(junk));
  sim.run();
  EXPECT_EQ(log.records()[0].ospf, nullptr);
  EXPECT_EQ(log.records()[0].rip, nullptr);
}

TEST_F(TraceFixture, MalformedOspfYieldsMonostate) {
  netsim::Frame junk;
  junk.dst = kAllSpfRouters;
  junk.protocol = ospf::kIpProtoOspf;
  junk.payload = {2, 1, 0, 4};  // truncated
  net.send(a, 0, std::move(junk));
  sim.run();
  EXPECT_EQ(log.records()[0].ospf, nullptr);
}

TEST_F(TraceFixture, FrameIdAndProvenanceRecorded) {
  auto f = ospf_frame();
  f.caused_by = 1234;
  net.send(a, 0, std::move(f));
  sim.run();
  EXPECT_NE(log.records()[0].frame_id, 0u);
  EXPECT_EQ(log.records()[0].caused_by, 1234u);
  EXPECT_EQ(log.records()[1].frame_id, log.records()[0].frame_id);
}

TEST_F(TraceFixture, StateProberSnapshotsPerEvent) {
  int state = 7;
  log.set_prober([&state](netsim::NodeId) { return state; });
  net.send(a, 0, ospf_frame());
  sim.run();
  EXPECT_EQ(log.records()[0].observer_state, 7);
  state = 9;
  net.send(a, 0, ospf_frame());
  sim.run();
  EXPECT_EQ(log.records()[2].observer_state, 9);
}

TEST_F(TraceFixture, WithoutProberStateIsUnknown) {
  net.send(a, 0, ospf_frame());
  sim.run();
  EXPECT_EQ(log.records()[0].observer_state, -1);
}

TEST_F(TraceFixture, KeepBytesOffDropsPayloadKeepsDigest) {
  log.set_keep_bytes(false);
  net.send(a, 0, ospf_frame());
  sim.run();
  EXPECT_TRUE(log.records()[0].bytes.empty());
  EXPECT_NE(log.records()[0].ospf, nullptr);
}

TEST_F(TraceFixture, NodeRecordsFiltersAndPreservesOrder) {
  net.send(a, 0, ospf_frame());
  net.send(b, 0, ospf_frame());
  sim.run();
  const auto at_a = log.node_records(a);
  ASSERT_EQ(at_a.size(), 2u);  // a's send + a's receipt of b's frame
  EXPECT_LT(at_a[0], at_a[1]);
  for (const auto idx : at_a) EXPECT_EQ(log.records()[idx].node, a);
  EXPECT_EQ(log.observed_nodes(), 2u);
}

TEST_F(TraceFixture, ClearEmptiesTheLog) {
  net.send(a, 0, ospf_frame());
  sim.run();
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

}  // namespace
}  // namespace nidkit::trace
