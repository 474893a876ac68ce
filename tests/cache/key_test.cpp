#include "cache/key.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <type_traits>
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

// Existing caches keep hitting only while these keys hold. A change to the
// derivation must fail here; adding a knob re-pins its protocol's keys on
// purpose, because that re-keys (and so misses once) its cache entries.
TEST(Key, PinnedKeysOfDefaultScenarios) {
  harness::Scenario s;
  EXPECT_EQ(key_of(s).hex(), "8f39227c2e385f611feed2627d79cbb0");
  s.protocol = harness::Protocol::kRip;
  EXPECT_EQ(key_of(s).hex(), "e3871b79f4dbfcf4bc8629111a1eba73");
  s.protocol = harness::Protocol::kBgp;
  EXPECT_EQ(key_of(s).hex(), "a19e469532af9489f7f00dca017644a0");

  harness::Scenario frr;
  frr.keep_bytes = false;
  frr.ospf_profile = ospf::frr_profile();
  EXPECT_EQ(key_of(frr, {}, "ospf-type").hex(),
            "cc706b8c6e0314d0534c561b5e47ebef");
  harness::Scenario bird = frr;
  bird.ospf_profile = ospf::bird_profile();
  EXPECT_EQ(key_of(bird, {}, "ospf-type").hex(),
            "e21733a1e0e0357042a488ef37a0ce16");
}

// The coverage contract: every simulation-affecting knob must perturb the
// key. Each mutation below flips exactly one Scenario field outside the
// profiles from a default scenario of the protocol that reads it; all
// resulting keys (plus the three defaults') must be distinct. The profile
// knobs are Key.EveryProfileKnobChangesOnlyItsProtocolsKey's.
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

  // A knob only another protocol reads (bgp_longpath_prepend) leaves the
  // OSPF key alone.
  const harness::Scenario ospf;
  for (const auto& [name, protocol, mutate] : mutations) {
    if (protocol == kOspf) continue;
    harness::Scenario s;
    mutate(s);
    EXPECT_EQ(key_of(s), key_of(ospf)) << name;
  }
}

/// Changes the `target`-th knob visit_knobs yields: flips a bool, adds
/// 1 ms to a duration, appends to a string and adds 1 to a count.
template <typename Profile>
void perturb_knob(Profile& p, std::size_t target) {
  std::size_t i = 0;
  visit_knobs(p, [&](auto& knob) {
    if (i++ != target) return;
    using T = std::remove_reference_t<decltype(knob)>;
    if constexpr (std::is_same_v<T, bool>) {
      knob = !knob;
    } else if constexpr (std::is_same_v<T, SimDuration>) {
      knob += 1ms;
    } else if constexpr (std::is_same_v<T, std::string>) {
      knob += '+';
    } else {
      ++knob;
    }
  });
}

// Every knob visit_knobs yields (so every profile field, with no list kept
// here) must perturb the key of a scenario running its protocol, and must
// leave the other protocols' keys alone: run_scenario reads only the
// profile of the protocol it runs.
TEST(Key, EveryProfileKnobChangesOnlyItsProtocolsKey) {
  const auto check = [](harness::Protocol protocol, auto profile) {
    harness::Scenario base;
    base.protocol = protocol;
    std::size_t knobs = 0;
    visit_knobs(base.*profile, [&](const auto&) { ++knobs; });
    std::set<ScenarioKey> keys = {key_of(base)};
    for (std::size_t i = 0; i < knobs; ++i) {
      harness::Scenario s = base;
      perturb_knob(s.*profile, i);
      keys.insert(key_of(s));
      for (const auto other : {harness::Protocol::kOspf,
                               harness::Protocol::kRip,
                               harness::Protocol::kBgp}) {
        if (other == protocol) continue;
        harness::Scenario idle;
        idle.protocol = other;
        harness::Scenario perturbed = idle;
        perturb_knob(perturbed.*profile, i);
        EXPECT_EQ(key_of(perturbed), key_of(idle)) << "knob " << i;
      }
    }
    EXPECT_EQ(keys.size(), 1 + knobs) << knobs << " knobs";
  };
  check(harness::Protocol::kOspf, &harness::Scenario::ospf_profile);
  check(harness::Protocol::kRip, &harness::Scenario::rip_profile);
  check(harness::Protocol::kBgp, &harness::Scenario::bgp_profile);
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

}  // namespace
}  // namespace nidkit::cache
