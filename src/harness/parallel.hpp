// Deterministic parallel experiment execution.
//
// Every (topology, seed, implementation) scenario the paper's evaluation
// runs is an independent single-threaded simulation, so the experiment
// layer fans them out with run_indexed. Determinism is preserved by
// construction rather than by synchronization discipline:
//
//   * each scenario is tagged with its *canonical index* — its position
//     in the serial (implementation, topology, seed) loop nest;
//   * workers compute per-scenario results into their own slots, never
//     touching shared accumulators;
//   * the caller merges the slots in canonical index order on one thread.
//
// The merged relation sets, audit reports and report JSON are therefore
// bit-identical to the serial path regardless of worker count or task
// completion order. Wall-clock timings (which *are* nondeterministic) are
// kept out of the report JSON and surfaced separately via ExecReport.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

namespace nidkit::harness {

/// Execution telemetry for every fan-out of one command (see
/// ExperimentConfig::exec). Everything here is observability data: it
/// never feeds back into mined relations, so emitting it cannot perturb
/// determinism.
struct ExecReport {
  std::size_t jobs = 1;              ///< worker count used
  std::uint64_t tasks_run = 0;       ///< scenarios executed
  double wall_ms = 0.0;              ///< wall time of the fan-out(s)

  // Result-cache telemetry. cache_enabled flips when a fan-out actually
  // ran against a store; without it the counters are meaningless zeros and
  // to_json omits the cache object entirely.
  bool cache_enabled = false;
  std::uint64_t cache_hits = 0;    ///< scenarios served from the cache
  /// The hits read from a segment on disk; the rest are entries the same
  /// store put earlier in the run.
  std::uint64_t cache_pack_hits = 0;
  std::uint64_t cache_misses = 0;  ///< scenarios simulated and stored

  /// {"jobs":N,"tasks_run":...,"wall_ms":...,
  ///  "cache":{"hits":...,"pack_hits":...,"misses":...}}
  /// The cache object appears only when cache_enabled. This is the
  /// --stats-out file; what the run simulated is in the obs::RunRecord,
  /// and each scenario's wall time is its `scenario` span in --trace-out.
  std::string to_json() const;
};

/// The worker count for `jobs`: `jobs` itself, or for 0 the number of
/// CPUs this process may run on (its affinity mask), never less than 1.
std::size_t worker_count(std::size_t jobs);

/// Runs fn(0) .. fn(count-1) on up to worker_count(jobs) threads, the
/// calling thread among them, and returns the results in canonical index
/// order. Each worker takes the next index from one atomic counter and
/// writes only that index's slots; one worker (jobs 1, a one-CPU default,
/// or a one-task batch) is a plain loop on the calling thread — the
/// reference path every other width must match bit-for-bit. Every index
/// runs even when some throw; once all workers stop, the exception of the
/// lowest failing index propagates. The worker count, task count and
/// fan-out wall time add to `report`.
template <typename Fn>
auto run_indexed(std::size_t jobs, std::size_t count, Fn&& fn,
                 ExecReport& report)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Clock = std::chrono::steady_clock;
  const std::size_t workers = worker_count(jobs);
  const auto fanout_start = Clock::now();

  std::vector<decltype(fn(std::size_t{0}))> results(count);
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next++;
      if (i >= count) return;
      try {
        results[i] = fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;  // joined on scope exit
    for (std::size_t w = 1; w < std::min(workers, count); ++w)
      helpers.emplace_back(work);
    work();
  }
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);

  report.jobs = std::max(report.jobs, workers);
  report.tasks_run += count;
  report.wall_ms += std::chrono::duration<double, std::milli>(
                        Clock::now() - fanout_start)
                        .count();
  return results;
}

}  // namespace nidkit::harness
