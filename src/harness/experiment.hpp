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
  /// 0 keeps the profiles' RFC default (30 min, i.e. no refresh within a
  /// run): sequence numbers still advance through convergence-time
  /// re-origination, as in the paper's testbed.
  SimDuration lsa_refresh = 0s;
  SimDuration miner_horizon = 5s;
  double window_factor = 2.0;
  /// Link-churn schedule (the chaos workload), copied into every scenario.
  /// Triage shrinks this list event by event; the audit default matches
  /// Scenario's.
  std::vector<SimTime> churn_times = {60s, 110s};
  /// Worker threads for fanning out (topology, seed, implementation)
  /// scenarios. 0 = hardware_concurrency, 1 = the serial reference path.
  /// Results are bit-identical for every value (see parallel.hpp).
  std::size_t jobs = 0;
  /// Keep raw wire bytes in trace records. Off by default in experiment
  /// pipelines: mining reads digests only, so dropping the byte buffers
  /// changes nothing in the reports while shrinking sweep memory. CLI
  /// --keep-bytes flips it (needed for pcap export of audit traces).
  bool keep_bytes = false;
  /// Directory of the persistent scenario-result cache (see cache::Store).
  /// Empty — the default — disables caching. Executor-level knob like
  /// `jobs`, exempt from the scenario_for copy-through: the cache location
  /// cannot change what a scenario computes (content-addressed keys cover
  /// every knob that can), only whether it is recomputed.
  std::string cache_dir;
  /// Where the run folds every scenario's metrics and coverage (see
  /// obs::RunRecord), in canonical job order. Null — the default — folds
  /// nothing. Executor-level like `jobs`, exempt from the scenario_for
  /// copy-through: recording cannot change what a scenario computes.
  obs::RunRecord* record = nullptr;

  mining::MinerConfig miner_config() const {
    mining::MinerConfig m;
    m.tdelay = tdelay;
    m.window_factor = window_factor;
    m.horizon = miner_horizon;
    return m;
  }

  // Copy-through contract: every *per-scenario* knob added to this struct
  // must be threaded through here (executor-level knobs such as `jobs`
  // are exempt). A size guard in experiment.cpp trips on growth so a new
  // field cannot be forgotten silently; the copied set is pinned by
  // Config.ScenarioForCopiesExperimentKnobs.
  Scenario scenario_for(const topo::Spec& spec, std::uint64_t seed) const {
    Scenario s;
    s.topology = spec;
    s.tdelay = tdelay;
    s.link_jitter = link_jitter;
    s.link_loss = link_loss;
    s.duration = duration;
    s.lsa_refresh = lsa_refresh;
    s.churn_times = churn_times;
    s.seed = seed;
    s.keep_bytes = keep_bytes;
    return s;
  }
};

/// Mines one OSPF implementation: runs every (topology, seed) scenario —
/// fanned out over config.jobs workers — mines each trace, and unions the
/// per-scenario sets in canonical (topology, seed) order. When `exec` is
/// non-null, per-scenario wall times accumulate into it.
mining::RelationSet mine_ospf(const ospf::BehaviorProfile& profile,
                              const ExperimentConfig& config,
                              const mining::KeyScheme& scheme,
                              ExecReport* exec = nullptr);

/// Same for a RIP variant.
mining::RelationSet mine_rip(const rip::RipProfile& profile,
                             const ExperimentConfig& config,
                             const mining::KeyScheme& scheme,
                             ExecReport* exec = nullptr);

/// Same for a BGP variant. Scenarios include the long-path churn workload
/// (the incident stimulus) so AS_PATH-handling differences surface.
mining::RelationSet mine_bgp(const bgp::BgpProfile& profile,
                             const ExperimentConfig& config,
                             const mining::KeyScheme& scheme,
                             ExecReport* exec = nullptr);

/// Full audit: mine every implementation, compare pairwise. All
/// (implementation, topology, seed) scenarios share one fan-out, so the
/// pool stays busy even while the widest topology of one implementation
/// is still simulating.
struct AuditResult {
  std::vector<std::string> names;
  std::map<std::string, mining::RelationSet> by_impl;
  std::vector<detect::Discrepancy> discrepancies;
  /// Execution telemetry (worker count, per-scenario wall times, queue
  /// depth). Nondeterministic by nature — kept out of the report JSON;
  /// cli --stats-out writes it to its own file.
  ExecReport exec;

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
                                     const mining::KeyScheme& scheme,
                                     ExecReport* exec = nullptr);

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
