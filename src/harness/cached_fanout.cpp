#include "harness/cached_fanout.hpp"

#include <map>
#include <utility>

#include "obs/obs.hpp"

namespace nidkit::harness {

namespace {

/// Folds every entry's metric delta and coverage vector into the record,
/// in canonical job order and on the calling thread — the same discipline
/// RelationSet merges follow, so the record is bit-identical for any
/// --jobs value and any cache temperature.
void fold(const std::vector<cache::Entry>& results, obs::RunRecord* record) {
  if (record == nullptr) return;
  for (const auto& entry : results)
    record->merge_scenario(entry.metrics, entry.coverage);
}

}  // namespace

std::vector<cache::Entry> run_cached(
    const std::vector<CachedJob>& jobs, std::size_t workers,
    cache::Store* store, cache::PayloadKind kind, std::string_view scheme_id,
    const std::function<cache::Entry(const CachedJob&)>& compute,
    ExecReport* exec, obs::RunRecord* record) {
  if (store == nullptr) {
    ParallelExecutor executor(workers);
    std::vector<std::string> labels;
    labels.reserve(jobs.size());
    for (const auto& j : jobs) labels.push_back(j.label);
    auto results = executor.run_indexed(
        jobs.size(), labels, [&](std::size_t i) { return compute(jobs[i]); });
    if (exec) exec->accumulate(executor.report());
    fold(results, record);
    return results;
  }

  std::vector<cache::Entry> results(jobs.size());
  std::vector<cache::ScenarioKey> keys;
  keys.reserve(jobs.size());
  for (const auto& j : jobs)
    keys.push_back(cache::scenario_key(j.scenario, j.miner, scheme_id, kind));

  // Triage in canonical order: owner jobs (first occurrence of a key)
  // resolve against the store; later duplicates fan in afterwards.
  std::map<cache::ScenarioKey, std::size_t> owner_of;
  std::vector<std::size_t> owners;
  std::uint64_t dedup = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto [it, inserted] = owner_of.try_emplace(keys[i], i);
    if (inserted)
      owners.push_back(i);
    else
      ++dedup;
  }

  // One batched lookup for the whole owner set: the store resolves every
  // key in a single sorted pass over its segment index — workers
  // dispatched below never touch the cache for a key resolved here.
  std::vector<cache::ScenarioKey> owner_keys;
  owner_keys.reserve(owners.size());
  for (const auto i : owners) owner_keys.push_back(keys[i]);
  cache::Store::BatchResult batch;
  {
    obs::Span lookup("cache-lookup", "batch");
    batch = store->get_batch(owner_keys);
  }

  std::vector<std::size_t> to_run;
  std::vector<bool> resolved(jobs.size(), false);
  std::uint64_t hits = 0;
  for (std::size_t k = 0; k < owners.size(); ++k) {
    const std::size_t i = owners[k];
    if (batch.entries[k]) {
      results[i] = std::move(*batch.entries[k]);
      resolved[i] = true;
      ++hits;
    } else {
      to_run.push_back(i);
    }
  }

  ParallelExecutor executor(workers);
  std::vector<std::string> run_labels;
  run_labels.reserve(to_run.size());
  for (const auto i : to_run) run_labels.push_back(jobs[i].label);
  auto computed = executor.run_indexed(
      to_run.size(), run_labels,
      [&](std::size_t k) { return compute(jobs[to_run[k]]); });
  for (std::size_t k = 0; k < to_run.size(); ++k) {
    const std::size_t i = to_run[k];
    {
      obs::Span span("cache-store", jobs[i].label);
      store->put(keys[i], computed[k]);
    }
    results[i] = std::move(computed[k]);
    resolved[i] = true;
  }

  // Fan the owners' results in to their in-flight duplicates.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (resolved[i]) continue;
    results[i] = results[owner_of.at(keys[i])];
  }

  if (exec) {
    ExecReport delta = executor.report();
    delta.cache_enabled = true;
    delta.cache_hits = hits;
    delta.cache_pack_hits = batch.pack_hits;
    delta.cache_misses = to_run.size();
    delta.cache_dedup = dedup;
    delta.cache_stores = to_run.size();
    exec->accumulate(delta);
  }
  fold(results, record);
  return results;
}

std::vector<cache::Entry> simulate_and_mine(const std::vector<CachedJob>& jobs,
                                            const ExperimentConfig& config,
                                            const mining::KeyScheme& scheme,
                                            cache::Store* store,
                                            ExecReport* exec) {
  return run_cached(
      jobs, config.jobs, store, cache::PayloadKind::kMinedRelations,
      scheme.name,
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
      },
      exec, config.record);
}

std::unique_ptr<cache::Store> open_store(const std::string& dir) {
  return dir.empty() ? nullptr : std::make_unique<cache::Store>(dir);
}

}  // namespace nidkit::harness
