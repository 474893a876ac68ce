#include "topo/topo.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace nidkit::topo {
namespace {

struct Case {
  Spec spec;
  std::size_t expected_segments;
};

std::vector<Case> shape_cases() {
  // gtest prints a parameter without a printer as its raw bytes, and CTest
  // test names include that text; zeroing the padding keeps the names the
  // same on every run.
  const auto make_case = [](Kind kind, std::size_t routers,
                            std::size_t segments) {
    Case c;
    std::memset(static_cast<void*>(&c), 0, sizeof c);
    c.spec.kind = kind;
    c.spec.routers = routers;
    c.expected_segments = segments;
    return c;
  };
  std::vector<Case> cases;
  cases.push_back(make_case(Kind::kLinear, 2, 1));
  cases.push_back(make_case(Kind::kLinear, 5, 4));
  cases.push_back(make_case(Kind::kMesh, 3, 3));
  cases.push_back(make_case(Kind::kMesh, 5, 10));
  cases.push_back(make_case(Kind::kRing, 4, 4));
  cases.push_back(make_case(Kind::kStar, 5, 4));
  cases.push_back(make_case(Kind::kTree, 7, 6));
  cases.push_back(make_case(Kind::kLan, 4, 1));
  return cases;
}

class TopoShape : public ::testing::TestWithParam<Case> {};

TEST_P(TopoShape, NodeAndSegmentCounts) {
  netsim::Simulator sim;
  netsim::Network net(sim, 1);
  const auto built = build(net, GetParam().spec);
  EXPECT_EQ(built.nodes.size(), GetParam().spec.routers);
  EXPECT_EQ(built.segments.size(), GetParam().expected_segments);
  EXPECT_EQ(net.node_count(), GetParam().spec.routers);
  EXPECT_EQ(net.segment_count(), GetParam().expected_segments);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopoShape, ::testing::ValuesIn(shape_cases()),
    [](const auto& info) {
      auto name = info.param.spec.name();
      for (auto& c : name)
        if (c == '-') c = '_';  // gtest names must be identifiers
      return name;
    });

TEST(Topo, NamesAreDescriptive) {
  EXPECT_EQ((Spec{Kind::kLinear, 2}.name()), "linear-2");
  EXPECT_EQ((Spec{Kind::kMesh, 5}.name()), "mesh-5");
  EXPECT_EQ((Spec{Kind::kLan, 4}.name()), "lan-4");
}

TEST(Topo, PaperTopologiesMatchThePaper) {
  const auto specs = paper_topologies();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name(), "linear-2");
  EXPECT_EQ(specs[1].name(), "mesh-3");
  EXPECT_EQ(specs[2].name(), "linear-5");
  EXPECT_EQ(specs[3].name(), "mesh-5");
}

TEST(Topo, ExtendedSupersetOfPaper) {
  const auto ext = extended_topologies();
  EXPECT_GT(ext.size(), paper_topologies().size());
  for (std::size_t i = 0; i < paper_topologies().size(); ++i)
    EXPECT_EQ(ext[i].name(), paper_topologies()[i].name());
}

TEST(Topo, LanSegmentIsBroadcast) {
  netsim::Simulator sim;
  netsim::Network net(sim, 1);
  const auto built = build(net, Spec{Kind::kLan, 3});
  EXPECT_TRUE(net.segment_is_lan(built.segments[0]));
}

TEST(Topo, MeshIsPointToPointPairs) {
  netsim::Simulator sim;
  netsim::Network net(sim, 1);
  const auto built = build(net, Spec{Kind::kMesh, 4});
  for (const auto seg : built.segments) {
    EXPECT_FALSE(net.segment_is_lan(seg));
    EXPECT_EQ(net.attachments(seg).size(), 2u);
  }
  // Every router has degree n-1.
  for (const auto node : built.nodes)
    EXPECT_EQ(net.iface_count(node), 3u);
}

TEST(Topo, StarHubHasAllSpokes) {
  netsim::Simulator sim;
  netsim::Network net(sim, 1);
  const auto built = build(net, Spec{Kind::kStar, 5});
  EXPECT_EQ(net.iface_count(built.nodes[0]), 4u);
  for (std::size_t i = 1; i < 5; ++i)
    EXPECT_EQ(net.iface_count(built.nodes[i]), 1u);
}

TEST(Topo, TreeParentsAreBalanced) {
  netsim::Simulator sim;
  netsim::Network net(sim, 1);
  const auto built = build(net, Spec{Kind::kTree, 7});
  // Root and the two inner nodes have 2 children; leaves have 1 link.
  EXPECT_EQ(net.iface_count(built.nodes[0]), 2u);
  EXPECT_EQ(net.iface_count(built.nodes[1]), 3u);  // parent + 2 children
  EXPECT_EQ(net.iface_count(built.nodes[6]), 1u);
}

TEST(Topo, InvalidSpecsRejected) {
  netsim::Simulator sim;
  netsim::Network net(sim, 1);
  EXPECT_THROW(build(net, Spec{Kind::kLinear, 1}), std::invalid_argument);
  EXPECT_THROW(build(net, Spec{Kind::kRing, 2}), std::invalid_argument);
}

TEST(Topo, RouterCountIsBoundedByTheAddressPlan) {
  // Router i gets id b.b.b.b and LAN host .b with b = i + 1: 254 routers
  // fit, a 255th would take the broadcast address.
  for (const Kind kind : {Kind::kLinear, Kind::kMesh, Kind::kRing,
                          Kind::kStar, Kind::kTree, Kind::kLan}) {
    netsim::Simulator sim;
    netsim::Network net(sim, 1);
    EXPECT_EQ(spec_error(Spec{kind, kMaxRouters}), nullptr) << to_string(kind);
    const auto built = build(net, Spec{kind, kMaxRouters});
    EXPECT_EQ(built.nodes.size(), 254u);
    EXPECT_NE(spec_error(Spec{kind, kMaxRouters + 1}), nullptr);
    EXPECT_THROW(build(net, Spec{kind, kMaxRouters + 1}),
                 std::invalid_argument)
        << to_string(kind);
  }
  netsim::Simulator sim;
  netsim::Network net(sim, 1);
  const auto lan = build(net, Spec{Kind::kLan, kMaxRouters});
  const auto& members = net.attachments(lan.segments[0]);
  ASSERT_EQ(members.size(), 254u);
  EXPECT_EQ(members.back().address.value() & 0xFF, 254u);
}

}  // namespace
}  // namespace nidkit::topo
