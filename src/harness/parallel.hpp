// Deterministic parallel experiment execution.
//
// Every (topology, seed, implementation) scenario the paper's evaluation
// runs is an independent single-threaded simulation, so the experiment
// layer fans them out to a fixed-size worker pool. Determinism is
// preserved by construction rather than by synchronization discipline:
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

#include <chrono>
#include <cstddef>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace nidkit::harness {

/// Wall-clock record for one fanned-out scenario.
struct TaskTiming {
  std::size_t index = 0;  ///< canonical scenario index
  std::string label;      ///< e.g. "frr/mesh-5/s2"
  double wall_ms = 0.0;   ///< real time the worker spent on the scenario
};

/// Execution telemetry for a fan-out (or several, via accumulate()).
/// Everything here is observability data: it never feeds back into mined
/// relations, so emitting it cannot perturb determinism.
struct ExecReport {
  std::size_t jobs = 1;              ///< worker count used
  std::size_t max_queue_depth = 0;   ///< pool queue high-water mark
  std::uint64_t tasks_run = 0;       ///< scenarios executed
  double wall_ms = 0.0;              ///< wall time of the fan-out(s)
  std::vector<TaskTiming> tasks;     ///< canonical index order

  // Result-cache telemetry. cache_enabled flips when a fan-out actually
  // ran against a store; without it the counters are meaningless zeros and
  // to_json omits the cache object entirely.
  bool cache_enabled = false;
  std::uint64_t cache_hits = 0;    ///< scenarios served from the cache
  /// The hits read from a segment on disk; the rest are entries the same
  /// store put earlier in the run.
  std::uint64_t cache_pack_hits = 0;
  std::uint64_t cache_misses = 0;  ///< scenarios simulated (and stored)
  /// Scenarios whose key duplicated an earlier scenario of the same
  /// fan-out: computed (or fetched) once, fanned in to every duplicate.
  std::uint64_t cache_dedup = 0;
  std::uint64_t cache_stores = 0;  ///< entries written to the store

  /// Folds another fan-out's telemetry into this one (tasks append with
  /// re-based indices; wall times add; depth takes the max).
  void accumulate(const ExecReport& other);

  /// {"jobs":N,"max_queue_depth":...,"tasks_run":...,"wall_ms":...,
  ///  "cache":{"hits":...,"pack_hits":...,"misses":...,
  ///           "in_flight_dedup":...,"stores":...},
  ///  "scenarios":[{"index":i,"label":"...","wall_ms":...},...]}
  /// The cache object appears only when cache_enabled. This is the
  /// --stats-out file; what the run simulated is in the obs::RunRecord.
  std::string to_json() const;
};

/// Fans indexed tasks out to a fixed worker pool and returns their results
/// in canonical index order. jobs == 1 degenerates to a plain serial loop
/// on the calling thread (no pool, no futures) — the reference path the
/// parallel one must match bit-for-bit.
class ParallelExecutor {
 public:
  /// jobs == 0 means "as many workers as the hardware allows".
  explicit ParallelExecutor(std::size_t jobs = 0)
      : jobs_(jobs == 0 ? default_worker_count() : jobs) {
    report_.jobs = jobs_;
  }

  std::size_t jobs() const { return jobs_; }

  /// Runs fn(0) .. fn(count-1), each labeled by labels[i] (labels may be
  /// empty), and returns the results indexed canonically. Per-task wall
  /// times and queue-depth counters land in report().
  template <typename Fn>
  auto run_indexed(std::size_t count, const std::vector<std::string>& labels,
                   Fn&& fn) -> std::vector<decltype(fn(std::size_t{0}))> {
    using R = decltype(fn(std::size_t{0}));
    using Clock = std::chrono::steady_clock;

    std::vector<TaskTiming> timings(count);
    for (std::size_t i = 0; i < count; ++i) {
      timings[i].index = i;
      if (i < labels.size()) timings[i].label = labels[i];
    }

    const auto fanout_start = Clock::now();
    std::vector<R> results;
    results.reserve(count);

    auto timed = [&fn, &timings](std::size_t i) -> R {
      const auto start = Clock::now();
      R value = fn(i);
      timings[i].wall_ms =  // each task writes only its own slot
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      return value;
    };

    if (jobs_ <= 1) {
      for (std::size_t i = 0; i < count; ++i) results.push_back(timed(i));
      report_.tasks_run += count;
    } else {
      ThreadPool pool(jobs_);
      std::vector<std::future<R>> futures;
      futures.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        // Enqueue timestamp → queue-wait span, recorded on the worker the
        // moment it picks the task up. Wall-clock only; never deterministic.
        const std::int64_t enqueued_us = obs::enabled() ? obs::now_us() : -1;
        futures.push_back(pool.submit([&timed, &timings, i, enqueued_us] {
          if (enqueued_us >= 0 && obs::enabled()) {
            obs::Registry::instance().record_span(
                "queue-wait", timings[i].label, enqueued_us, obs::now_us());
          }
          return timed(i);
        }));
      }
      // Collect in canonical index order; completion order is irrelevant.
      for (auto& f : futures) results.push_back(f.get());
      const auto counters = pool.counters();
      report_.tasks_run += counters.tasks_run;
      if (counters.max_queue_depth > report_.max_queue_depth)
        report_.max_queue_depth = counters.max_queue_depth;
    }

    report_.wall_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - fanout_start)
            .count();
    const std::size_t base = report_.tasks.size();
    report_.tasks.insert(report_.tasks.end(),
                         std::make_move_iterator(timings.begin()),
                         std::make_move_iterator(timings.end()));
    for (std::size_t i = base; i < report_.tasks.size(); ++i)
      report_.tasks[i].index = i;
    return results;
  }

  const ExecReport& report() const { return report_; }

 private:
  std::size_t jobs_;
  ExecReport report_;
};

}  // namespace nidkit::harness
