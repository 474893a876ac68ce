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
// The coverage contract (mirroring the copy-through guard in
// experiment.cpp): every field added to Scenario, MinerConfig or one of
// the behaviour profiles must either be appended to the fingerprint in
// key.cpp or documented there as key-irrelevant. Static size guards on all
// hashed structs trip the build when one of them grows, so a new knob
// cannot silently be left out of the hash and cause stale cache hits.
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

// Expected sizes of every hashed struct on the guard platform. key.cpp
// static-asserts these against sizeof(...) so a newly added field breaks
// the build until the fingerprint (and these constants) are updated; the
// coverage test re-checks them at runtime so the contract is visible in
// the test suite too.
#if defined(__GLIBCXX__) && defined(__x86_64__)
inline constexpr std::size_t kHashedScenarioSize = 400;
inline constexpr std::size_t kHashedMinerConfigSize = 24;
inline constexpr std::size_t kHashedOspfProfileSize = 136;
inline constexpr std::size_t kHashedRipProfileSize = 88;
inline constexpr std::size_t kHashedBgpProfileSize = 72;
inline constexpr std::size_t kHashedTopoSpecSize = 16;
#endif

}  // namespace nidkit::cache
