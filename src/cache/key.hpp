// Content-addressed scenario keys.
//
// A ScenarioKey is a 128-bit fingerprint over every input that can change
// what a scenario run produces: the harness::Scenario (topology, protocol,
// the behaviour profile of that protocol, delays, loss, seed, churn
// schedule — everything except presentation-only knobs like keep_bytes
// and the profiles of the protocols it does not run), the
// mining::MinerConfig it will be mined with, the key-scheme id, the
// payload kind, and a format-version constant that is bumped whenever the
// cached encoding or the key derivation itself changes. Two scenarios with
// equal keys are guaranteed to produce bit-identical cached payloads;
// changing any simulation-affecting knob changes the key, so stale results
// can never be served for a new configuration.
//
// The coverage contract: scenario_key binds Scenario, MinerConfig and
// topo::Spec field by field and hashes each profile through its
// visit_knobs, so a field added to any of them fails to compile until it
// is hashed there or named there as key-irrelevant (like keep_bytes).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "harness/scenario.hpp"
#include "mining/miner.hpp"
#include "util/fingerprint.hpp"

namespace nidkit::cache {

/// Bump on any change to the key derivation or the on-disk encoding. Old
/// entries then simply miss (different key, and the entry framing echoes
/// the version); no migration logic is ever needed.
inline constexpr std::uint32_t kCacheFormatVersion = 6;

/// What the cached entry holds. Folded into the key so the two payload
/// shapes mined from one scenario (full relation set vs. sweep accuracy
/// counters) address distinct entries.
enum class PayloadKind : std::uint8_t {
  kMinedRelations = 1,  ///< RelationSet mined under the key scheme
  kSweepStats = 2,      ///< tdelay_sweep per-scenario accuracy counters
};

struct ScenarioKey {
  util::Digest128 digest;

  /// 32 lowercase hex chars, as `nidt cache ls` prints the key.
  std::string hex() const { return digest.hex(); }

  friend auto operator<=>(const ScenarioKey&, const ScenarioKey&) = default;
};

/// Derives the key for (scenario, miner, scheme, payload kind).
/// `scheme_id` is the KeyScheme name — schemes are identified by name, so
/// two schemes with equal names must label packets identically.
ScenarioKey scenario_key(const harness::Scenario& scenario,
                         const mining::MinerConfig& miner,
                         std::string_view scheme_id, PayloadKind kind);

}  // namespace nidkit::cache
