#include "harness/stability.hpp"

#include <algorithm>
#include <map>

#include "harness/cached_fanout.hpp"

namespace nidkit::harness {

namespace {

/// Mined relation sets for every seed — one cache-aware fan-out over the
/// flattened (seed × topology) scenario list, then per-seed unions in
/// canonical topology order, matching the serial per-seed loop
/// bit-for-bit. The per-scenario keys are identical to the audit
/// pipeline's, so a stability report over audited settings replays the
/// audit's cached scenarios instead of re-simulating them.
std::vector<mining::RelationSet> mine_per_seed(
    const ospf::BehaviorProfile& profile, const ExperimentConfig& config,
    const mining::KeyScheme& scheme) {
  std::vector<CachedJob> jobs;
  for (const auto seed : config.seeds) {
    for (const auto& spec : config.topologies) {
      Scenario s = config.scenario_for(spec, seed);
      s.ospf_profile = profile;
      jobs.push_back(CachedJob{std::move(s),
                               profile.name + "/" + spec.name() + "/s" +
                                   std::to_string(seed),
                               config.miner_config()});
    }
  }

  const auto entries = simulate_and_mine(jobs, config, scheme);

  std::vector<mining::RelationSet> per_seed(config.seeds.size());
  std::size_t next = 0;
  for (std::size_t s = 0; s < config.seeds.size(); ++s)
    for (std::size_t t = 0; t < config.topologies.size(); ++t)
      per_seed[s].merge(entries[next++].relations);
  return per_seed;
}

}  // namespace

std::vector<CellStability> ospf_relation_stability(
    const ospf::BehaviorProfile& profile, const ExperimentConfig& config,
    const mining::KeyScheme& scheme) {
  using Key = std::pair<mining::RelationDirection, mining::RelationCell>;
  std::map<Key, CellStability> acc;

  for (const auto& set : mine_per_seed(profile, config, scheme)) {
    for (const auto dir : {mining::RelationDirection::kSendToRecv,
                           mining::RelationDirection::kRecvToSend}) {
      for (const auto& [cell, stats] : set.cells(dir)) {
        auto& entry = acc[{dir, cell}];
        entry.direction = dir;
        entry.cell = cell;
        ++entry.seeds_seen;
        entry.total_count += stats.count;
      }
    }
  }

  std::vector<CellStability> out;
  out.reserve(acc.size());
  for (auto& [key, entry] : acc) {
    entry.seeds_total = config.seeds.size();
    out.push_back(entry);
  }
  std::sort(out.begin(), out.end(),
            [](const CellStability& a, const CellStability& b) {
              if (a.seeds_seen != b.seeds_seen)
                return a.seeds_seen > b.seeds_seen;
              if (a.total_count != b.total_count)
                return a.total_count > b.total_count;
              if (a.direction != b.direction)
                return a.direction < b.direction;
              return a.cell < b.cell;
            });
  return out;
}

mining::RelationSet stable_relations(const ospf::BehaviorProfile& profile,
                                     const ExperimentConfig& config,
                                     const mining::KeyScheme& scheme,
                                     double min_fraction) {
  const auto stability = ospf_relation_stability(profile, config, scheme);
  mining::RelationSet out;
  for (const auto& s : stability) {
    if (s.fraction() + 1e-9 < min_fraction) continue;
    out.add(s.direction, s.cell, SimTime{0}, 0, 0);
  }
  return out;
}

}  // namespace nidkit::harness
