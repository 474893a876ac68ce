#include "harness/experiment.hpp"

#include <utility>

#include "harness/cached_fanout.hpp"
#include "obs/obs.hpp"

namespace nidkit::harness {

namespace {

std::string job_label(const std::string& impl, const topo::Spec& spec,
                      std::uint64_t seed) {
  return impl + "/" + spec.name() + "/s" + std::to_string(seed);
}

/// Runs every job through the cache-aware fan-out and mines each computed
/// trace under `scheme`; hits skip simulate+mine entirely. Returned sets
/// are in canonical job order; merging them left-to-right reproduces the
/// serial loop nest exactly (cached sets decode bit-identically, see
/// relation_codec.hpp).
std::vector<mining::RelationSet> mine_jobs(const std::vector<CachedJob>& jobs,
                                           const ExperimentConfig& config,
                                           const mining::KeyScheme& scheme) {
  auto entries = simulate_and_mine(jobs, config, scheme);
  std::vector<mining::RelationSet> sets;
  sets.reserve(entries.size());
  for (auto& e : entries) sets.push_back(std::move(e.relations));
  return sets;
}

/// (topology × seed) job list for one implementation, in the serial
/// loop-nest order (topologies outer, seeds inner).
template <typename Setup>
std::vector<CachedJob> scenario_jobs(const ExperimentConfig& config,
                                     const std::string& impl_name,
                                     Setup&& setup) {
  std::vector<CachedJob> jobs;
  jobs.reserve(config.topologies.size() * config.seeds.size());
  for (const auto& spec : config.topologies) {
    for (const auto seed : config.seeds) {
      Scenario s = config.scenario_for(spec, seed);
      setup(s);
      jobs.push_back(CachedJob{std::move(s), job_label(impl_name, spec, seed),
                               config.miner_config()});
    }
  }
  return jobs;
}

mining::RelationSet merge_in_order(std::vector<mining::RelationSet> sets) {
  obs::Span span("merge", "");
  mining::RelationSet out;
  for (const auto& set : sets) out.merge(set);
  return out;
}

/// Shared audit pipeline: one fan-out over every (implementation,
/// topology, seed) scenario, then per-implementation merges in canonical
/// order and the pairwise comparison.
template <typename Profile, typename Setup>
AuditResult audit_impls(const std::vector<Profile>& profiles,
                        const ExperimentConfig& config,
                        const mining::KeyScheme& scheme, Setup&& setup) {
  AuditResult result;
  std::vector<CachedJob> jobs;
  for (const auto& p : profiles) {
    result.names.push_back(p.name);
    auto impl_jobs =
        scenario_jobs(config, p.name, [&](Scenario& s) { setup(s, p); });
    jobs.insert(jobs.end(), std::make_move_iterator(impl_jobs.begin()),
                std::make_move_iterator(impl_jobs.end()));
  }

  auto sets = mine_jobs(jobs, config, scheme);

  const std::size_t per_impl = config.topologies.size() * config.seeds.size();
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    obs::Span span("merge", profiles[p].name);
    mining::RelationSet merged;
    for (std::size_t i = 0; i < per_impl; ++i)
      merged.merge(sets[p * per_impl + i]);
    result.by_impl.emplace(profiles[p].name, std::move(merged));
  }
  result.discrepancies = detect::compare_all(result.named());
  return result;
}

}  // namespace

mining::RelationSet mine_ospf(const ospf::BehaviorProfile& profile,
                              const ExperimentConfig& config,
                              const mining::KeyScheme& scheme) {
  auto jobs = scenario_jobs(config, profile.name, [&](Scenario& s) {
    s.protocol = Protocol::kOspf;
    s.ospf_profile = profile;
  });
  return merge_in_order(mine_jobs(jobs, config, scheme));
}

mining::RelationSet mine_rip(const rip::RipProfile& profile,
                             const ExperimentConfig& config,
                             const mining::KeyScheme& scheme) {
  auto jobs = scenario_jobs(config, profile.name, [&](Scenario& s) {
    s.protocol = Protocol::kRip;
    s.rip_profile = profile;
  });
  return merge_in_order(mine_jobs(jobs, config, scheme));
}

std::vector<detect::NamedRelations> AuditResult::named() const {
  std::vector<detect::NamedRelations> out;
  for (const auto& name : names)
    out.push_back(detect::NamedRelations{name, &by_impl.at(name)});
  return out;
}

AuditResult audit_ospf(const std::vector<ospf::BehaviorProfile>& profiles,
                       const ExperimentConfig& config,
                       const mining::KeyScheme& scheme) {
  return audit_impls(profiles, config, scheme,
                     [](Scenario& s, const ospf::BehaviorProfile& p) {
                       s.protocol = Protocol::kOspf;
                       s.ospf_profile = p;
                     });
}

AuditResult audit_rip(const std::vector<rip::RipProfile>& profiles,
                      const ExperimentConfig& config,
                      const mining::KeyScheme& scheme) {
  return audit_impls(profiles, config, scheme,
                     [](Scenario& s, const rip::RipProfile& p) {
                       s.protocol = Protocol::kRip;
                       s.rip_profile = p;
                     });
}

AuditResult audit_bgp(const std::vector<bgp::BgpProfile>& profiles,
                      const ExperimentConfig& config,
                      const mining::KeyScheme& scheme) {
  return audit_impls(profiles, config, scheme,
                     [](Scenario& s, const bgp::BgpProfile& p) {
                       s.protocol = Protocol::kBgp;
                       s.bgp_profile = p;
                     });
}

std::vector<SweepPoint> tdelay_sweep(const ospf::BehaviorProfile& profile,
                                     const ExperimentConfig& base,
                                     const std::vector<SimDuration>& tdelays,
                                     const mining::KeyScheme& scheme) {
  // Flatten (tdelay × topology × seed) into one fan-out so short TDelay
  // points do not leave workers idle while long ones finish. Each job
  // carries its point's miner config — it is part of the cache key, so a
  // re-run of a sweep (or a different sweep sharing points) hits.
  std::vector<CachedJob> jobs;
  for (const auto tdelay : tdelays) {
    ExperimentConfig c = base;
    c.tdelay = tdelay;
    for (const auto& spec : c.topologies) {
      for (const auto seed : c.seeds) {
        Scenario s = c.scenario_for(spec, seed);
        s.ospf_profile = profile;
        jobs.push_back(
            CachedJob{std::move(s),
                      std::to_string(tdelay.count() / 1000) + "ms/" +
                          job_label(profile.name, spec, seed),
                      c.miner_config()});
      }
    }
  }

  // Per-scenario integer partials (cache::SweepStats); accumulated per
  // sweep point in canonical order, so integer totals (and the ratios
  // derived from them) match the serial nest bit-for-bit whether each
  // partial was computed or replayed from the cache.
  auto entries = run_cached(
      jobs, base, cache::PayloadKind::kSweepStats, scheme.name,
      [&](const CachedJob& job) {
        obs::Span scenario_span("scenario", job.label);
        const mining::CausalMiner miner(job.miner);
        obs::Span sim_span("simulate", job.label);
        const ScenarioResult run = run_scenario(job.scenario);
        sim_span.finish();
        obs::Span mine_span("mine", job.label);
        const auto pairs = miner.mine_pairs(run.log);
        const auto acc = mining::score_pairs(run.log, pairs);
        const auto set = miner.classify(run.log, pairs, scheme);
        const auto cells = mining::score_cells(run.log, set, scheme);
        mine_span.finish();
        cache::Entry entry;
        entry.kind = cache::PayloadKind::kSweepStats;
        entry.metrics = run.metrics;
        entry.coverage = run.coverage;
        entry.sweep.mined_pairs = acc.mined;
        entry.sweep.truth_pairs = acc.truth;
        entry.sweep.correct_pairs = acc.correct;
        entry.sweep.mined_cells = cells.mined_cells;
        entry.sweep.unobserved_cells = cells.unobserved;
        entry.sweep.spurious_cells = cells.spurious;
        return entry;
      });

  const std::size_t per_point = base.topologies.size() * base.seeds.size();
  std::vector<SweepPoint> out;
  out.reserve(tdelays.size());
  for (std::size_t t = 0; t < tdelays.size(); ++t) {
    SweepPoint point;
    point.tdelay = tdelays[t];
    std::uint64_t mined_pairs = 0;
    std::uint64_t truth_pairs = 0;
    std::uint64_t correct_pairs = 0;
    for (std::size_t i = 0; i < per_point; ++i) {
      const auto& p = entries[t * per_point + i].sweep;
      mined_pairs += p.mined_pairs;
      truth_pairs += p.truth_pairs;
      correct_pairs += p.correct_pairs;
      point.mined_cells += p.mined_cells;
      point.unobserved_cells += p.unobserved_cells;
      point.spurious_cells += p.spurious_cells;
    }
    point.precision =
        mined_pairs == 0 ? 1.0
                         : static_cast<double>(correct_pairs) / mined_pairs;
    point.recall = truth_pairs == 0
                       ? 1.0
                       : static_cast<double>(correct_pairs) / truth_pairs;
    out.push_back(point);
  }
  return out;
}

std::vector<ExtensivenessPoint> topology_extensiveness(
    const ospf::BehaviorProfile& profile, const ExperimentConfig& config,
    const mining::KeyScheme& scheme) {
  // All scenarios run in one fan-out; the cumulative union is then built
  // serially topology-by-topology, as the figure requires.
  auto jobs = scenario_jobs(config, profile.name, [&](Scenario& s) {
    s.ospf_profile = profile;
  });
  auto sets = mine_jobs(jobs, config, scheme);

  mining::RelationSet cumulative;
  std::vector<ExtensivenessPoint> out;
  std::size_t next = 0;
  for (const auto& spec : config.topologies) {
    const std::size_t before = cumulative.size();
    for (std::size_t s = 0; s < config.seeds.size(); ++s)
      cumulative.merge(sets[next++]);
    out.push_back(ExtensivenessPoint{spec.name(),
                                     cumulative.size() - before,
                                     cumulative.size()});
  }
  return out;
}

}  // namespace nidkit::harness
