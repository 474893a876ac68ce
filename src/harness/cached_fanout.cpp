#include "harness/cached_fanout.hpp"

#include <map>
#include <utility>

#include "cov/cov.hpp"
#include "obs/obs.hpp"

namespace nidkit::harness {

namespace {

/// Folds every entry's deterministic metric delta into the global registry,
/// in canonical job order and on the calling thread — the same discipline
/// RelationSet merges follow, so the aggregate is bit-identical for any
/// --jobs value and any cache temperature.
void merge_metrics(const std::vector<cache::Entry>& results) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::instance();
  for (const auto& entry : results) reg.merge_scenario(entry.metrics);
}

/// Same canonical-order discipline for behavioral coverage: every entry's
/// vector — fresh or replayed from the cache — folds into the global
/// CoverageMap on the calling thread, so the seen set, novelty scores and
/// saturation curve are bit-identical for any --jobs value and any cache
/// temperature.
void merge_coverage(const std::vector<cache::Entry>& results,
                    ExecReport* exec) {
  if (!cov::enabled()) return;
  auto& map = cov::CoverageMap::instance();
  std::uint64_t features = 0;
  std::uint64_t novel = 0;
  for (const auto& entry : results) {
    features += entry.coverage.ids().size();
    novel += map.merge_scenario(entry.coverage);
  }
  if (exec) {
    exec->cov_enabled = true;
    exec->cov_features += features;
    exec->cov_novel += novel;
  }
}

}  // namespace

cache::ScenarioSummary summarize(const ScenarioResult& run) {
  cache::ScenarioSummary s;
  s.routers = run.routers;
  s.segments = run.segments;
  s.full_adjacencies = run.full_adjacencies;
  s.converged = run.converged;
  s.routes_consistent = run.routes_consistent;
  s.convergence_time_us = run.convergence_time.count();
  s.frames_delivered = run.frames_delivered;
  s.frames_dropped = run.frames_dropped;
  return s;
}

std::vector<cache::Entry> run_cached(
    const std::vector<CachedJob>& jobs, std::size_t workers,
    cache::Store* store, cache::PayloadKind kind, std::string_view scheme_id,
    const std::function<cache::Entry(const CachedJob&)>& compute,
    ExecReport* exec) {
  if (store == nullptr) {
    ParallelExecutor executor(workers);
    std::vector<std::string> labels;
    labels.reserve(jobs.size());
    for (const auto& j : jobs) labels.push_back(j.label);
    auto results = executor.run_indexed(
        jobs.size(), labels, [&](std::size_t i) { return compute(jobs[i]); });
    if (exec) exec->accumulate(executor.report());
    merge_metrics(results);
    merge_coverage(results, exec);
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
  if (obs::enabled()) {
    auto& reg = obs::Registry::instance();
    reg.observe_wall("cache.pack_hits", batch.pack_hits);
    reg.observe_wall("cache.misses", batch.misses);
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
  merge_metrics(results);
  merge_coverage(results, exec);
  return results;
}

}  // namespace nidkit::harness
