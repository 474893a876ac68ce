// Property-based sweeps: global invariants that must hold for every
// (protocol, topology, profile, seed) combination — the safety net under
// all the behaviour-specific tests.
#include <gtest/gtest.h>

#include <cstring>

#include "harness/scenario.hpp"
#include "mining/miner.hpp"

namespace nidkit::harness {
namespace {

using namespace std::chrono_literals;

struct PropertyCase {
  topo::Spec spec;
  std::uint64_t seed;
  bool bird;
};

class OspfInvariants : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(OspfInvariants, Hold) {
  Scenario s;
  s.topology = GetParam().spec;
  s.seed = GetParam().seed;
  s.ospf_profile =
      GetParam().bird ? ospf::bird_profile() : ospf::frr_profile();
  const auto r = run_scenario(s);

  // I1: the protocol converges and routes agree.
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.routes_consistent);

  // I2: every frame on the wire is well-formed (receivers decode all).
  EXPECT_EQ(r.ospf_totals.decode_failures, 0u);

  // I3: the trace is time-ordered and every receive has a matching send
  //     with the same frame id and earlier timestamp.
  SimTime prev{0};
  std::map<std::uint64_t, SimTime> send_time;
  for (const auto& rec : r.log.records()) {
    EXPECT_GE(rec.time, prev);
    prev = rec.time;
    if (rec.is_send()) send_time.emplace(rec.frame_id, rec.time);
  }
  for (const auto& rec : r.log.records()) {
    if (rec.is_send()) continue;
    auto it = send_time.find(rec.frame_id);
    ASSERT_NE(it, send_time.end()) << "receive without a send";
    EXPECT_LT(it->second, rec.time);
  }

  // I4: provenance is acyclic and refers to existing earlier frames.
  for (const auto& rec : r.log.records()) {
    if (!rec.is_send() || rec.caused_by == 0) continue;
    EXPECT_LT(rec.caused_by, rec.frame_id)
        << "a frame can only be caused by an earlier frame";
  }

  // I5: mining the trace never produces a relationship whose example
  //     indices are out of range or time-inverted.
  mining::CausalMiner miner(mining::MinerConfig{});
  const auto set = miner.mine(r.log, mining::ospf_type_scheme());
  for (const auto dir : {mining::RelationDirection::kSendToRecv,
                         mining::RelationDirection::kRecvToSend}) {
    for (const auto& [cell, stats] : set.cells(dir)) {
      ASSERT_LT(stats.example_stimulus, r.log.size());
      ASSERT_LT(stats.example_response, r.log.size());
      EXPECT_LT(r.log.records()[stats.example_stimulus].time,
                r.log.records()[stats.example_response].time);
    }
  }
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  const std::vector<topo::Spec> specs = {
      {topo::Kind::kLinear, 2}, {topo::Kind::kLinear, 4},
      {topo::Kind::kMesh, 4},   {topo::Kind::kRing, 5},
      {topo::Kind::kStar, 4},   {topo::Kind::kLan, 3}};
  // gtest prints a parameter without a printer as its raw bytes, and CTest
  // test names include that text; zeroing the padding keeps the names the
  // same on every run.
  const auto make_case = [](const topo::Spec& spec, std::uint64_t seed,
                            bool bird) {
    PropertyCase c;
    std::memset(static_cast<void*>(&c), 0, sizeof c);
    c.spec.kind = spec.kind;
    c.spec.routers = spec.routers;
    c.seed = seed;
    c.bird = bird;
    return c;
  };
  std::uint64_t seed = 11;
  for (const auto& spec : specs) {
    cases.push_back(make_case(spec, seed++, false));
    cases.push_back(make_case(spec, seed++, true));
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OspfInvariants, ::testing::ValuesIn(property_cases()),
    [](const auto& info) {
      auto name = info.param.spec.name() + "_seed" +
                  std::to_string(info.param.seed) +
                  (info.param.bird ? "_bird" : "_frr");
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

class RipInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RipInvariants, Hold) {
  Scenario s;
  s.protocol = Protocol::kRip;
  s.rip_profile = GetParam() % 2 ? rip::rip_eager_profile()
                                 : rip::rip_classic_profile();
  s.topology = {topo::Kind::kLinear, 4};
  s.seed = GetParam();
  s.duration = 240s;
  const auto r = run_scenario(s);
  EXPECT_TRUE(r.converged);
  // No router ever advertises a metric above infinity: receivers would
  // reject it at decode, so decode success across the run implies it.
  EXPECT_GT(r.rip_totals.rx_responses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RipInvariants, ::testing::Range<std::uint64_t>(1, 6));

class BgpInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BgpInvariants, Hold) {
  Scenario s;
  s.protocol = Protocol::kBgp;
  s.bgp_profile = bgp::bgp_robust_profile();
  s.topology = {topo::Kind::kRing, 4};
  s.seed = GetParam();
  s.duration = 300s;
  s.churn_times = {60s};
  const auto r = run_scenario(s);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.routes_consistent);
  EXPECT_EQ(r.bgp_totals.tx_notification, 0u);
  // Keepalives flow on every session for the whole run.
  EXPECT_GT(r.bgp_totals.tx_keepalive, 8u * 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpInvariants, ::testing::Range<std::uint64_t>(1, 6));

TEST(DeterminismProperty, IdenticalAcrossManyConfigs) {
  for (const auto& spec :
       {topo::Spec{topo::Kind::kMesh, 3}, topo::Spec{topo::Kind::kLan, 4}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Scenario s;
      s.topology = spec;
      s.seed = seed;
      const auto a = run_scenario(s);
      const auto b = run_scenario(s);
      ASSERT_EQ(a.log.size(), b.log.size())
          << spec.name() << " seed " << seed;
      EXPECT_EQ(a.full_adjacencies, b.full_adjacencies);
      EXPECT_EQ(a.frames_delivered, b.frames_delivered);
    }
  }
}

}  // namespace
}  // namespace nidkit::harness
