// BGP through the full harness pipeline: scenario, mining, detection —
// the paper's motivating 2009 incident surfacing as a mined discrepancy.
#include <gtest/gtest.h>

#include "detect/detect.hpp"
#include "harness/experiment.hpp"

namespace nidkit::harness {
namespace {

using namespace std::chrono_literals;

Scenario bgp_scenario(const bgp::BgpProfile& profile) {
  Scenario s;
  s.protocol = Protocol::kBgp;
  s.bgp_profile = profile;
  s.topology = {topo::Kind::kLinear, 3};
  s.duration = 300s;
  s.churn_times = {60s};
  return s;
}

TEST(BgpScenario, RobustNetworkConverges) {
  const auto r = run_scenario(bgp_scenario(bgp::bgp_robust_profile()));
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.routes_consistent);
  EXPECT_EQ(r.bgp_totals.session_resets, 0u);
  EXPECT_EQ(r.bgp_totals.tx_notification, 0u);
  EXPECT_GT(r.bgp_totals.tx_update, 0u);
}

TEST(BgpScenario, FragileNetworkFlapsOnLongPath) {
  const auto r = run_scenario(bgp_scenario(bgp::bgp_fragile_profile()));
  EXPECT_GT(r.bgp_totals.long_path_rejects, 2u);
  EXPECT_GT(r.bgp_totals.tx_notification, 2u);
  EXPECT_GT(r.bgp_totals.session_resets, 4u);
}

TEST(BgpScenario, WithoutLongPathBothProfilesAgree) {
  for (const auto& profile :
       {bgp::bgp_robust_profile(), bgp::bgp_fragile_profile()}) {
    Scenario s = bgp_scenario(profile);
    s.bgp_longpath_prepend = 0;  // no incident stimulus
    const auto r = run_scenario(s);
    EXPECT_TRUE(r.converged) << profile.name;
    EXPECT_EQ(r.bgp_totals.tx_notification, 0u) << profile.name;
  }
}

TEST(BgpScenario, MinerFlagsTheIncident) {
  // Run both homogeneous networks with the long-path stimulus, mine with
  // the BGP scheme, compare: only the fragile implementation exhibits
  // Rcv(UPDATE+longpath) -> Snd(NOTIFICATION).
  mining::CausalMiner miner([] {
    mining::MinerConfig m;
    m.tdelay = 900ms;
    m.horizon = 5s;
    return m;
  }());
  const auto scheme = mining::bgp_message_scheme();

  const auto robust_run = run_scenario(bgp_scenario(bgp::bgp_robust_profile()));
  const auto fragile_run =
      run_scenario(bgp_scenario(bgp::bgp_fragile_profile()));
  const auto robust = miner.mine(robust_run.log, scheme);
  const auto fragile = miner.mine(fragile_run.log, scheme);

  // The fragile router answers the long-path UPDATE with an immediate
  // NOTIFICATION; the *sender* observes it one RTT (2*TDelay) later, so
  // the relationship surfaces in the send->recv direction (the same
  // vantage as the paper's tables).
  const auto dir = mining::RelationDirection::kSendToRecv;
  EXPECT_TRUE(fragile.has(dir, "UPDATE+longpath", "NOTIFICATION"));
  EXPECT_FALSE(robust.has(dir, "UPDATE+longpath", "NOTIFICATION"));

  const auto flags = detect::compare_all(
      {{"bgp-robust", &robust}, {"bgp-fragile", &fragile}});
  bool incident_flagged = false;
  for (const auto& d : flags)
    if (d.cell.stimulus == "UPDATE+longpath" &&
        d.cell.response == "NOTIFICATION" && d.present_in == "bgp-fragile")
      incident_flagged = true;
  EXPECT_TRUE(incident_flagged)
      << "the 2009 incident behaviour must be flagged as a discrepancy";
}

TEST(BgpScenario, TraceContainsBgpDigests) {
  const auto r = run_scenario(bgp_scenario(bgp::bgp_robust_profile()));
  std::size_t updates = 0, longpaths = 0, keepalives = 0;
  for (const auto& rec : r.log.records()) {
    const auto* b = rec.bgp;
    if (b == nullptr) continue;
    if (b->msg_type == 2) {
      ++updates;
      if (b->as_path_len > 100) ++longpaths;
    }
    if (b->msg_type == 4) ++keepalives;
  }
  EXPECT_GT(updates, 0u);
  EXPECT_GT(longpaths, 0u);  // the churn stimulus is visible in the trace
  EXPECT_GT(keepalives, 0u);
}

TEST(BgpScenario, Deterministic) {
  const auto a = run_scenario(bgp_scenario(bgp::bgp_fragile_profile()));
  const auto b = run_scenario(bgp_scenario(bgp::bgp_fragile_profile()));
  EXPECT_EQ(a.log.size(), b.log.size());
  EXPECT_EQ(a.bgp_totals.session_resets, b.bgp_totals.session_resets);
}

}  // namespace
}  // namespace nidkit::harness
