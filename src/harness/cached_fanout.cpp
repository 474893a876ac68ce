#include "harness/cached_fanout.hpp"

#include <numeric>
#include <utility>

#include "obs/obs.hpp"

namespace nidkit::harness {

std::vector<cache::Entry> run_cached(
    const std::vector<CachedJob>& jobs, const ExperimentConfig& config,
    cache::PayloadKind kind, std::string_view scheme_id,
    const std::function<cache::Entry(const CachedJob&)>& compute) {
  ExecReport unattached;
  ExecReport& exec = config.exec != nullptr ? *config.exec : unattached;
  cache::Store* const store = config.store;
  std::vector<cache::Entry> results(jobs.size());
  // The jobs that run: every job without a store, the misses with one.
  std::vector<std::size_t> to_run;
  std::vector<cache::ScenarioKey> keys;
  if (store == nullptr) {
    to_run.resize(jobs.size());
    std::iota(to_run.begin(), to_run.end(), std::size_t{0});
  } else {
    keys.reserve(jobs.size());
    for (const auto& j : jobs)
      keys.push_back(
          cache::scenario_key(j.scenario, j.miner, scheme_id, kind));

    // One batched lookup for the whole job list: the store resolves every
    // key in a single sorted pass over its segment index — workers
    // dispatched below never touch the cache for a key resolved here.
    cache::Store::BatchResult batch;
    {
      obs::Span lookup("cache-lookup", "batch");
      batch = store->get_batch(keys);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (batch.entries[i])
        results[i] = std::move(*batch.entries[i]);
      else
        to_run.push_back(i);
    }
    exec.cache_enabled = true;
    exec.cache_hits += jobs.size() - to_run.size();
    exec.cache_pack_hits += batch.pack_hits;
    exec.cache_misses += to_run.size();
  }

  auto computed = run_indexed(
      config.jobs, to_run.size(),
      [&](std::size_t k) { return compute(jobs[to_run[k]]); }, exec);
  for (std::size_t k = 0; k < to_run.size(); ++k) {
    const std::size_t i = to_run[k];
    if (store != nullptr) {
      obs::Span span("cache-store", jobs[i].label);
      store->put(keys[i], computed[k]);
    }
    results[i] = std::move(computed[k]);
  }

  // Every entry's metric delta and coverage vector folds into the record in
  // canonical job order on the calling thread — the same discipline
  // RelationSet merges follow, so the record is bit-identical for any
  // --jobs value and any cache temperature.
  if (config.record != nullptr)
    for (const auto& entry : results)
      config.record->merge_scenario(entry.metrics, entry.coverage);
  return results;
}

std::vector<cache::Entry> simulate_and_mine(const std::vector<CachedJob>& jobs,
                                            const ExperimentConfig& config,
                                            const mining::KeyScheme& scheme) {
  return run_cached(
      jobs, config, cache::PayloadKind::kMinedRelations, scheme.name,
      [&](const CachedJob& job) {
        obs::Span scenario_span("scenario", job.label);
        cache::Entry entry;
        entry.kind = cache::PayloadKind::kMinedRelations;
        obs::Span sim_span("simulate", job.label);
        const ScenarioResult run = run_scenario(job.scenario);
        entry.metrics = run.metrics;
        entry.coverage = run.coverage;
        sim_span.finish();
        obs::Span mine_span("mine", job.label);
        entry.relations = mining::CausalMiner(job.miner).mine(run.log, scheme);
        return entry;
      });
}

}  // namespace nidkit::harness
