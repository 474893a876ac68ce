#include "cache/key.hpp"

namespace nidkit::cache {

// Field-coverage guards. If one of these trips you added a field to a
// struct the ScenarioKey fingerprints: append it below (or document it as
// key-irrelevant, like Scenario::keep_bytes), extend Key.CoverageGuard /
// the per-knob distinctness cases in tests/cache/key_test.cpp, bump
// kCacheFormatVersion if the field changes simulation behaviour at its
// default value, and update the expected size in key.hpp.
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(harness::Scenario) == kHashedScenarioSize,
              "Scenario grew: add the new knob to scenario_key (or document "
              "it as key-irrelevant) and update kHashedScenarioSize");
static_assert(sizeof(mining::MinerConfig) == kHashedMinerConfigSize,
              "MinerConfig grew: add the new knob to scenario_key and "
              "update kHashedMinerConfigSize");
static_assert(sizeof(ospf::BehaviorProfile) == kHashedOspfProfileSize,
              "ospf::BehaviorProfile grew: add the new knob to scenario_key "
              "and update kHashedOspfProfileSize");
static_assert(sizeof(rip::RipProfile) == kHashedRipProfileSize,
              "rip::RipProfile grew: add the new knob to scenario_key and "
              "update kHashedRipProfileSize");
static_assert(sizeof(bgp::BgpProfile) == kHashedBgpProfileSize,
              "bgp::BgpProfile grew: add the new knob to scenario_key and "
              "update kHashedBgpProfileSize");
static_assert(sizeof(topo::Spec) == kHashedTopoSpecSize,
              "topo::Spec grew: add the new field to scenario_key and "
              "update kHashedTopoSpecSize");
#endif

namespace {

void hash_duration(util::Fingerprint& fp, SimDuration d) {
  fp.i64(d.count());
}

void hash_spec(util::Fingerprint& fp, const topo::Spec& spec) {
  fp.u8(static_cast<std::uint8_t>(spec.kind));
  fp.u64(spec.routers);
}

void hash_ospf_profile(util::Fingerprint& fp,
                       const ospf::BehaviorProfile& p) {
  fp.str(p.name);
  fp.boolean(p.immediate_hello_on_discovery);
  fp.boolean(p.immediate_hello_on_two_way);
  hash_duration(fp, p.hello_jitter);
  hash_duration(fp, p.delayed_ack_delay);
  fp.boolean(p.ack_from_database);
  fp.boolean(p.direct_ack_duplicates);
  fp.boolean(p.check_mtu);
  fp.boolean(p.lsr_per_dbd);
  fp.u64(p.lsr_max_entries);
  fp.u64(p.dbd_max_headers);
  fp.u64(p.lsu_max_lsas);
  hash_duration(fp, p.flood_pacing);
  fp.boolean(p.respond_stale_with_newer);
  fp.boolean(p.ack_stale_from_database);
  hash_duration(fp, p.min_ls_arrival);
  hash_duration(fp, p.rxmt_interval);
  hash_duration(fp, p.lsa_refresh_interval);
  hash_duration(fp, p.min_ls_interval);
}

void hash_rip_profile(util::Fingerprint& fp, const rip::RipProfile& p) {
  fp.str(p.name);
  hash_duration(fp, p.update_interval);
  hash_duration(fp, p.update_jitter);
  hash_duration(fp, p.route_timeout);
  hash_duration(fp, p.gc_interval);
  fp.boolean(p.poisoned_reverse);
  fp.boolean(p.triggered_updates);
  hash_duration(fp, p.triggered_delay);
  fp.boolean(p.request_on_start);
  fp.boolean(p.respond_unicast);
  fp.u8(p.send_version);
  fp.boolean(p.accept_v1);
}

void hash_bgp_profile(util::Fingerprint& fp, const bgp::BgpProfile& p) {
  fp.str(p.name);
  hash_duration(fp, p.keepalive_interval);
  fp.u16(p.hold_time);
  hash_duration(fp, p.connect_retry);
  hash_duration(fp, p.mrai);
  fp.u64(p.as_path_accept_limit);
}

}  // namespace

ScenarioKey scenario_key(const harness::Scenario& scenario,
                         const mining::MinerConfig& miner,
                         std::string_view scheme_id, PayloadKind kind) {
  util::Fingerprint fp;
  fp.u32(kCacheFormatVersion);
  fp.u8(static_cast<std::uint8_t>(kind));
  fp.str(scheme_id);

  // MinerConfig — every field.
  hash_duration(fp, miner.tdelay);
  fp.f64(miner.window_factor);
  hash_duration(fp, miner.horizon);

  // Scenario — every field in declaration order, except keep_bytes
  // (mining reads digests only, so dropping or keeping raw wire bytes
  // cannot change any cached payload; pinned by Key.KeepBytesIrrelevant)
  // and the profiles of the protocols the scenario does not run, which
  // run_scenario never reads.
  fp.u8(static_cast<std::uint8_t>(scenario.protocol));
  hash_spec(fp, scenario.topology);
  if (scenario.protocol == harness::Protocol::kOspf)
    hash_ospf_profile(fp, scenario.ospf_profile);
  if (scenario.protocol == harness::Protocol::kRip)
    hash_rip_profile(fp, scenario.rip_profile);
  if (scenario.protocol == harness::Protocol::kBgp) {
    hash_bgp_profile(fp, scenario.bgp_profile);
    fp.u64(scenario.bgp_longpath_prepend);
  }
  hash_duration(fp, scenario.tdelay);
  hash_duration(fp, scenario.link_jitter);
  fp.f64(scenario.link_loss);
  hash_duration(fp, scenario.duration);
  fp.u64(scenario.seed);
  hash_duration(fp, scenario.lsa_refresh);
  fp.u64(scenario.churn_times.size());
  for (const auto when : scenario.churn_times) hash_duration(fp, when);
  fp.boolean(scenario.state_probe);

  ScenarioKey key;
  key.digest = fp.digest();
  return key;
}

}  // namespace nidkit::cache
