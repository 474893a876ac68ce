// Experiment orchestration: everything the paper's evaluation does.
//
//  * mine one implementation across several topologies and union the
//    relationship sets (extensiveness, §2);
//  * audit two or more implementations and flag discrepancies (§3);
//  * sweep TDelay and score accuracy against the simulator's ground truth
//    (the paper's 900 ms calibration);
//  * measure how the relation set grows as topologies are added (the
//    paper's "no significant changes after four topologies" claim).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "detect/detect.hpp"
#include "harness/parallel.hpp"
#include "harness/scenario.hpp"
#include "mining/miner.hpp"

namespace nidkit::cache {
class Store;
}  // namespace nidkit::cache

namespace nidkit::obs {
class RunRecord;
}  // namespace nidkit::obs

namespace nidkit::harness {

struct ExperimentConfig {
  std::vector<topo::Spec> topologies = topo::paper_topologies();
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  SimDuration tdelay = 900ms;
  SimDuration link_jitter = 10ms;
  /// Calibrated against the paper's tables: light loss (containers under
  /// load) exercises retransmission-driven relationships without drowning
  /// the matrices in attribution noise.
  double link_loss = 0.002;
  SimDuration duration = 180s;
  /// Link-churn schedule (the chaos workload), copied into every scenario.
  /// Triage shrinks this list event by event; the audit default matches
  /// Scenario's.
  std::vector<SimTime> churn_times = {60s, 110s};

  // The executor context: how scenarios run and where their results go,
  // never what they compute. Content-addressed keys cover every knob that
  // can change a result, so these four are exempt from the scenario_for
  // copy-through. Every fan-out reads them in run_cached (cached_fanout.hpp).

  /// Worker threads for fanning out (topology, seed, implementation)
  /// scenarios. 0 = one per CPU this process may run on (its affinity
  /// mask), 1 = the serial reference path. Results are bit-identical for
  /// every value (see parallel.hpp).
  std::size_t jobs = 0;
  /// The open scenario-result cache (see cache::Store). Null — the
  /// default — disables caching.
  cache::Store* store = nullptr;
  /// Where the run folds every scenario's metrics and coverage (see
  /// obs::RunRecord), in canonical job order. Null folds nothing.
  obs::RunRecord* record = nullptr;
  /// Where every fan-out adds its worker count, task count, wall time and
  /// cache counts. Null counts nothing.
  ExecReport* exec = nullptr;

  /// The paper's miner (window 2 x TDelay, 5 s horizon) at this TDelay.
  mining::MinerConfig miner_config() const {
    mining::MinerConfig m;
    m.tdelay = tdelay;
    return m;
  }

  // Copy-through contract: every *per-scenario* knob of this struct is
  // copied into the Scenario here. The binding names every field, so a new
  // one fails to compile until it is copied or named as exempt: the
  // callers walk `topologies` and `seeds`, `tdelay` also reaches the key
  // through miner_config(), and the executor context (`jobs`, `store`,
  // `record`, `exec`) is exempt. The copied set is pinned by
  // Config.ScenarioForCopiesExperimentKnobs.
  Scenario scenario_for(const topo::Spec& spec, std::uint64_t seed) const {
    const auto& [topologies, seeds, tdelay, link_jitter, link_loss, duration,
                 churn_times, jobs, store, record, exec] = *this;
    Scenario s;
    s.topology = spec;
    s.tdelay = tdelay;
    s.link_jitter = link_jitter;
    s.link_loss = link_loss;
    s.duration = duration;
    s.churn_times = churn_times;
    s.seed = seed;
    // Mining reads digests only, so experiment traces drop the raw bytes.
    s.keep_bytes = false;
    return s;
  }
};

/// Mines one OSPF implementation: runs every (topology, seed) scenario —
/// fanned out over config.jobs workers — mines each trace, and unions the
/// per-scenario sets in canonical (topology, seed) order.
mining::RelationSet mine_ospf(const ospf::BehaviorProfile& profile,
                              const ExperimentConfig& config,
                              const mining::KeyScheme& scheme);

/// Same for a RIP variant.
mining::RelationSet mine_rip(const rip::RipProfile& profile,
                             const ExperimentConfig& config,
                             const mining::KeyScheme& scheme);

/// Full audit: mine every implementation, compare pairwise. All
/// (implementation, topology, seed) scenarios share one fan-out, so the
/// workers stay busy even while the widest topology of one implementation
/// is still simulating.
struct AuditResult {
  std::vector<std::string> names;
  std::map<std::string, mining::RelationSet> by_impl;
  std::vector<detect::Discrepancy> discrepancies;

  std::vector<detect::NamedRelations> named() const;
};

AuditResult audit_ospf(const std::vector<ospf::BehaviorProfile>& profiles,
                       const ExperimentConfig& config,
                       const mining::KeyScheme& scheme);

AuditResult audit_rip(const std::vector<rip::RipProfile>& profiles,
                      const ExperimentConfig& config,
                      const mining::KeyScheme& scheme);

AuditResult audit_bgp(const std::vector<bgp::BgpProfile>& profiles,
                      const ExperimentConfig& config,
                      const mining::KeyScheme& scheme);

/// E3: accuracy as a function of TDelay, scored against frame provenance.
struct SweepPoint {
  SimDuration tdelay{0};
  double precision = 0;
  double recall = 0;
  std::size_t mined_cells = 0;
  std::size_t unobserved_cells = 0;  ///< the paper's plateau metric
  std::size_t spurious_cells = 0;
};

std::vector<SweepPoint> tdelay_sweep(const ospf::BehaviorProfile& profile,
                                     const ExperimentConfig& base,
                                     const std::vector<SimDuration>& tdelays,
                                     const mining::KeyScheme& scheme);

/// E4: cumulative relationship count as topologies are added one by one.
struct ExtensivenessPoint {
  std::string topology;
  std::size_t new_cells = 0;
  std::size_t cumulative_cells = 0;
};

std::vector<ExtensivenessPoint> topology_extensiveness(
    const ospf::BehaviorProfile& profile, const ExperimentConfig& config,
    const mining::KeyScheme& scheme);

}  // namespace nidkit::harness
