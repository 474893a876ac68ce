// Cache-aware scenario fan-out.
//
// The bridge between run_indexed and the result cache, shared by every
// experiment entry point (mine_*/audit_*/tdelay_sweep/stability/triage).
// Given a canonical job list it:
//
//   1. derives each job's content-addressed ScenarioKey;
//   2. serves cache hits without running them;
//   3. fans only the misses out to the workers, stores each computed entry
//      (one record appended to the store's own segment, see cache::Store),
//      and returns all results in canonical job order.
//
// Everything else it needs comes from the config's executor context. With
// no store attached, steps 1–2 are skipped: no key is hashed and every job
// runs. Worker, task and hit/miss counts add to the attached ExecReport,
// so --stats-out exposes cache effectiveness without perturbing report
// determinism. Every result — computed or replayed — then folds into the
// attached obs::RunRecord in canonical job order.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/store.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"

namespace nidkit::harness {

/// One cacheable unit of work. The miner config rides along because it is
/// part of the key and may vary per job (a TDelay sweep fans out scenarios
/// with per-point miner thresholds in a single batch).
struct CachedJob {
  Scenario scenario;
  std::string label;  ///< telemetry label, e.g. "frr/mesh-5/s2"
  mining::MinerConfig miner;
};

/// Runs every job (or fetches it from config.store), over config.jobs
/// workers, returning entries in canonical job order. `compute` must be a
/// pure function of the job — it runs on worker threads for misses only.
/// A key repeated within `jobs` is computed once per occurrence.
std::vector<cache::Entry> run_cached(
    const std::vector<CachedJob>& jobs, const ExperimentConfig& config,
    cache::PayloadKind kind, std::string_view scheme_id,
    const std::function<cache::Entry(const CachedJob&)>& compute);

/// The one simulate-and-mine path: run_cached over `jobs`, each miss
/// simulated and mined under `scheme` with the job's own miner (spans
/// scenario ⊃ simulate, mine). Entries come back in canonical job order.
std::vector<cache::Entry> simulate_and_mine(const std::vector<CachedJob>& jobs,
                                            const ExperimentConfig& config,
                                            const mining::KeyScheme& scheme);

}  // namespace nidkit::harness
