// Relationship stability across seeds.
//
// The paper unions relationships over topologies of one run. First-match
// attribution is timing-sensitive, so some mined cells are one-off
// artifacts of a particular schedule. Mining each seed independently and
// measuring, per cell, the fraction of seeds in which it appears separates
// *stable* relationships (the implementation's actual behaviour) from
// noise — and discrepancies supported only by unstable cells can be
// demoted before an operator spends time on them.
#pragma once

#include <vector>

#include "harness/experiment.hpp"

namespace nidkit::harness {

struct CellStability {
  mining::RelationDirection direction = mining::RelationDirection::kSendToRecv;
  mining::RelationCell cell;
  std::size_t seeds_seen = 0;
  std::size_t seeds_total = 0;
  std::uint64_t total_count = 0;  ///< occurrences summed over all seeds

  double fraction() const {
    return seeds_total == 0
               ? 0.0
               : static_cast<double>(seeds_seen) / seeds_total;
  }
};

/// Mines each seed of `config` separately (union over topologies within a
/// seed) and reports per-cell seed coverage, most stable first.
std::vector<CellStability> ospf_relation_stability(
    const ospf::BehaviorProfile& profile, const ExperimentConfig& config,
    const mining::KeyScheme& scheme);

/// The union relation set restricted to cells observed in at least
/// `min_fraction` of seeds. Feeding both implementations' stable sets to
/// detect::compare yields high-confidence flags.
mining::RelationSet stable_relations(
    const ospf::BehaviorProfile& profile, const ExperimentConfig& config,
    const mining::KeyScheme& scheme, double min_fraction);

}  // namespace nidkit::harness
