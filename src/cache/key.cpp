#include "cache/key.hpp"

#include <type_traits>

namespace nidkit::cache {

namespace {

/// Appends knobs to the fingerprint, each with its type's fixed encoding.
/// A knob of any other type fails to compile until it is given one here.
/// Changing an encoding changes every key, so it bumps kCacheFormatVersion.
struct KnobHasher {
  util::Fingerprint& fp;

  template <typename... Ts>
  void operator()(const Ts&... knobs) const {
    (put(knobs), ...);
  }

 private:
  template <typename T>
  void put(const T& v) const {
    if constexpr (std::is_same_v<T, std::string>) {
      fp.str(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      fp.boolean(v);
    } else if constexpr (std::is_same_v<T, SimDuration>) {
      fp.i64(v.count());
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      fp.u8(v);
    } else if constexpr (std::is_same_v<T, std::uint16_t>) {
      fp.u16(v);
    } else if constexpr (std::is_same_v<T, std::size_t> ||
                         std::is_same_v<T, std::uint64_t>) {
      fp.u64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      fp.f64(v);
    } else if constexpr (std::is_enum_v<T>) {
      fp.u8(static_cast<std::uint8_t>(v));
    } else {
      static_assert(!sizeof(T), "give this knob type a key encoding");
    }
  }
};

}  // namespace

ScenarioKey scenario_key(const harness::Scenario& scenario,
                         const mining::MinerConfig& miner,
                         std::string_view scheme_id, PayloadKind kind) {
  util::Fingerprint fp;
  const KnobHasher hash{fp};
  fp.u32(kCacheFormatVersion);
  fp.u8(static_cast<std::uint8_t>(kind));
  fp.str(scheme_id);

  const auto& [miner_tdelay, window_factor, horizon] = miner;
  hash(miner_tdelay, window_factor, horizon);

  // Scenario — every field in declaration order, except keep_bytes
  // (mining reads digests only, so dropping or keeping raw wire bytes
  // cannot change any cached payload; pinned by Key.KeepBytesIrrelevant)
  // and the profiles of the protocols the scenario does not run, which
  // run_scenario never reads. The binding names every field, so a new one
  // fails to compile until it is hashed or skipped here.
  const auto& [protocol, topology, ospf_profile, rip_profile, bgp_profile,
               bgp_longpath_prepend, tdelay, link_jitter, link_loss,
               duration, seed, churn_times, keep_bytes] = scenario;
  const auto& [topo_kind, routers] = topology;
  hash(protocol, topo_kind, routers);
  switch (protocol) {
    case harness::Protocol::kOspf:
      ospf::visit_knobs(ospf_profile, hash);
      break;
    case harness::Protocol::kRip:
      rip::visit_knobs(rip_profile, hash);
      break;
    case harness::Protocol::kBgp:
      bgp::visit_knobs(bgp_profile, hash);
      hash(bgp_longpath_prepend);
      break;
  }
  hash(tdelay, link_jitter, link_loss, duration, seed, churn_times.size());
  for (const auto when : churn_times) hash(when);

  ScenarioKey key;
  key.digest = fp.digest();
  return key;
}

}  // namespace nidkit::cache
