// Cache-aware scenario fan-out.
//
// The bridge between run_indexed and the result cache, shared by every
// experiment entry point (mine_*/audit_*/tdelay_sweep/stability/triage).
// Given a canonical job list it:
//
//   1. derives each job's content-addressed ScenarioKey;
//   2. serves cache hits without running them;
//   3. collapses in-flight duplicate keys — a key appearing several times
//      in one fan-out is computed once and its result fanned in to every
//      duplicate (the serial path would recompute; the results are
//      identical by the determinism contract, so dedup is invisible);
//   4. fans only the remaining misses out to the workers, stores each
//      computed entry (one record appended to the store's own segment,
//      see cache::Store), and returns all results in canonical job order.
//
// With no store configured, steps 1–3 are skipped: no key is hashed, no
// duplicate collapses and every job runs. Hit/miss/dedup counts
// accumulate into the ExecReport, so --stats-out exposes cache
// effectiveness without perturbing report determinism. Every result —
// computed or replayed — then folds into the run's obs::RunRecord, when
// one is attached, in canonical job order.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/store.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
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

/// Runs every job (or fetches it), returning entries in canonical job
/// order. `compute` must be a pure function of the job — it runs on worker
/// threads for misses only. `store` may be null (caching disabled), and so
/// may `record` (nothing folded).
std::vector<cache::Entry> run_cached(
    const std::vector<CachedJob>& jobs, std::size_t workers,
    cache::Store* store, cache::PayloadKind kind, std::string_view scheme_id,
    const std::function<cache::Entry(const CachedJob&)>& compute,
    ExecReport* exec, obs::RunRecord* record);

/// The one simulate-and-mine path: run_cached over `jobs` with
/// config.jobs workers into config.record, each miss simulated and mined
/// under `scheme` with the job's own miner (spans scenario ⊃ simulate,
/// mine). Entries come back in canonical job order.
std::vector<cache::Entry> simulate_and_mine(const std::vector<CachedJob>& jobs,
                                            const ExperimentConfig& config,
                                            const mining::KeyScheme& scheme,
                                            cache::Store* store,
                                            ExecReport* exec);

/// The store on `dir`, or null when `dir` is empty (caching off).
std::unique_ptr<cache::Store> open_store(const std::string& dir);

}  // namespace nidkit::harness
