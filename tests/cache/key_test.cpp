#include "cache/key.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "mining/miner.hpp"

namespace nidkit::cache {
namespace {

using namespace std::chrono_literals;

ScenarioKey key_of(const harness::Scenario& s,
                   const mining::MinerConfig& m = {},
                   std::string_view scheme = "type",
                   PayloadKind kind = PayloadKind::kMinedRelations) {
  return scenario_key(s, m, scheme, kind);
}

TEST(Key, DeterministicAcrossCalls) {
  const harness::Scenario s;
  EXPECT_EQ(key_of(s), key_of(s));
  EXPECT_EQ(key_of(s).hex().size(), 32u);
}

// The coverage contract: every simulation-affecting knob must perturb the
// key. Each mutation below flips exactly one field from a default scenario
// of the protocol that reads it; all resulting keys (plus the three
// defaults') must be distinct.
TEST(Key, EveryScenarioKnobChangesTheKey) {
  using Mut = std::function<void(harness::Scenario&)>;
  struct Case {
    std::string name;
    harness::Protocol protocol;
    Mut mutate;
  };
  constexpr auto kOspf = harness::Protocol::kOspf;
  constexpr auto kRip = harness::Protocol::kRip;
  constexpr auto kBgp = harness::Protocol::kBgp;
  const std::vector<Case> mutations = {
      {"topology.kind", kOspf,
       [](auto& s) { s.topology = topo::Spec{topo::Kind::kRing, 2}; }},
      {"topology.routers", kOspf,
       [](auto& s) { s.topology = topo::Spec{topo::Kind::kLinear, 3}; }},
      {"ospf_profile.name", kOspf,
       [](auto& s) { s.ospf_profile.name = "other"; }},
      {"ospf_profile.duration-knob", kOspf,
       [](auto& s) { s.ospf_profile.delayed_ack_delay = 2s; }},
      {"ospf_profile.bool-knob", kOspf,
       [](auto& s) { s.ospf_profile.ack_from_database = true; }},
      {"ospf_profile.count-knob", kOspf,
       [](auto& s) { s.ospf_profile.lsu_max_lsas = 17; }},
      {"rip_profile", kRip, [](auto& s) { s.rip_profile.name = "other"; }},
      {"bgp_profile", kBgp, [](auto& s) { s.bgp_profile.name = "other"; }},
      {"bgp_longpath_prepend", kBgp,
       [](auto& s) { s.bgp_longpath_prepend = 7; }},
      {"tdelay", kOspf, [](auto& s) { s.tdelay = 901ms; }},
      {"link_jitter", kOspf, [](auto& s) { s.link_jitter = 11ms; }},
      {"link_loss", kOspf, [](auto& s) { s.link_loss = 0.003; }},
      {"duration", kOspf, [](auto& s) { s.duration = 181s; }},
      {"seed", kOspf, [](auto& s) { s.seed = 2; }},
      {"churn_times.value", kOspf, [](auto& s) { s.churn_times[0] += 1s; }},
      {"churn_times.count", kOspf,
       [](auto& s) { s.churn_times.push_back(150s); }},
  };

  std::vector<std::pair<std::string, ScenarioKey>> keys;
  for (const auto protocol : {kOspf, kRip, kBgp}) {
    harness::Scenario base;
    base.protocol = protocol;
    keys.emplace_back("default/" + std::to_string(static_cast<int>(protocol)),
                      key_of(base));
  }
  for (const auto& [name, protocol, mutate] : mutations) {
    harness::Scenario s;
    s.protocol = protocol;
    mutate(s);
    keys.emplace_back(name, key_of(s));
  }
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_NE(keys[i].second, keys[j].second)
          << keys[i].first << " vs " << keys[j].first;

  // run_scenario reads only the profile of the protocol it runs, so the
  // other protocols' profiles leave the key alone.
  const harness::Scenario ospf;
  for (const auto& [name, protocol, mutate] : mutations) {
    if (protocol == kOspf) continue;
    harness::Scenario s;
    mutate(s);
    EXPECT_EQ(key_of(s), key_of(ospf)) << name;
  }
}

TEST(Key, MinerConfigChangesTheKey) {
  const harness::Scenario s;
  mining::MinerConfig tdelay, window, horizon;
  tdelay.tdelay = 901ms;
  window.window_factor = 2.5;
  horizon.horizon = 6s;
  const std::vector<ScenarioKey> keys = {
      key_of(s), key_of(s, tdelay), key_of(s, window), key_of(s, horizon)};
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

TEST(Key, SchemeAndPayloadKindChangeTheKey) {
  const harness::Scenario s;
  EXPECT_NE(key_of(s, {}, "type"), key_of(s, {}, "gtsn"));
  EXPECT_NE(key_of(s, {}, "type", PayloadKind::kMinedRelations),
            key_of(s, {}, "type", PayloadKind::kSweepStats));
}

TEST(Key, KeepBytesIrrelevant) {
  // keep_bytes only controls whether raw wire bytes are retained in trace
  // records; the miner reads digests, so it must NOT perturb the key —
  // otherwise a byte-keeping run would never share cache entries with
  // experiment runs despite producing identical mined results.
  harness::Scenario with_bytes, without_bytes;
  with_bytes.keep_bytes = true;
  without_bytes.keep_bytes = false;
  EXPECT_EQ(key_of(with_bytes), key_of(without_bytes));
}

#if defined(__GLIBCXX__) && defined(__x86_64__)
// Runtime mirror of the static size guards in key.cpp: if one of these
// fails, a hashed struct grew and the fingerprint in key.cpp (plus the
// kHashed* constants and, likely, this file's mutation list) must be
// updated before the cache can be trusted again.
TEST(Key, SizeGuardsMatchHashedStructs) {
  EXPECT_EQ(sizeof(harness::Scenario), kHashedScenarioSize);
  EXPECT_EQ(sizeof(mining::MinerConfig), kHashedMinerConfigSize);
  EXPECT_EQ(sizeof(ospf::BehaviorProfile), kHashedOspfProfileSize);
  EXPECT_EQ(sizeof(rip::RipProfile), kHashedRipProfileSize);
  EXPECT_EQ(sizeof(bgp::BgpProfile), kHashedBgpProfileSize);
  EXPECT_EQ(sizeof(topo::Spec), kHashedTopoSpecSize);
}
#endif

}  // namespace
}  // namespace nidkit::cache
