// Determinism regression suite for the parallel experiment executor.
//
// The executor's contract (parallel.hpp) is that for ANY worker count the
// merged relation sets, audit output and report JSON are bit-identical to
// the serial path. These tests pin that contract for every experiment
// entry point that fans out: mine, audit, stability, and the TDelay
// sweep — plus run_indexed's own order, exception and default-width
// rules.
#include "harness/parallel.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "detect/json.hpp"
#include "harness/experiment.hpp"
#include "harness/stability.hpp"

namespace nidkit::harness {
namespace {

using namespace std::chrono_literals;
using mining::RelationDirection;

ExperimentConfig small_config(std::size_t jobs) {
  ExperimentConfig c;
  c.topologies = {topo::Spec{topo::Kind::kLinear, 2},
                  topo::Spec{topo::Kind::kMesh, 3}};
  c.seeds = {1, 2};
  c.duration = 120s;
  c.jobs = jobs;
  return c;
}

void expect_equal_sets(const mining::RelationSet& a,
                       const mining::RelationSet& b) {
  for (const auto dir :
       {RelationDirection::kSendToRecv, RelationDirection::kRecvToSend}) {
    const auto& ca = a.cells(dir);
    const auto& cb = b.cells(dir);
    ASSERT_EQ(ca.size(), cb.size());
    auto ita = ca.begin();
    auto itb = cb.begin();
    for (; ita != ca.end(); ++ita, ++itb) {
      EXPECT_EQ(ita->first, itb->first);
      EXPECT_EQ(ita->second.count, itb->second.count)
          << ita->first.stimulus << "->" << ita->first.response;
      EXPECT_EQ(ita->second.first_seen, itb->second.first_seen);
      EXPECT_EQ(ita->second.example_stimulus, itb->second.example_stimulus);
      EXPECT_EQ(ita->second.example_response, itb->second.example_response);
    }
  }
}

TEST(ParallelExecutor, MineOspfParallelMatchesSerial) {
  const auto serial = mine_ospf(ospf::frr_profile(), small_config(1),
                                mining::ospf_type_scheme());
  const auto parallel = mine_ospf(ospf::frr_profile(), small_config(4),
                                  mining::ospf_type_scheme());
  expect_equal_sets(serial, parallel);
}

TEST(ParallelExecutor, AuditParallelMatchesSerialByteForByte) {
  const std::vector<ospf::BehaviorProfile> impls = {ospf::frr_profile(),
                                                    ospf::bird_profile()};
  const auto serial =
      audit_ospf(impls, small_config(1), mining::ospf_type_scheme());
  const auto parallel =
      audit_ospf(impls, small_config(4), mining::ospf_type_scheme());

  ASSERT_EQ(serial.names, parallel.names);
  for (const auto& name : serial.names)
    expect_equal_sets(serial.by_impl.at(name), parallel.by_impl.at(name));

  ASSERT_EQ(serial.discrepancies.size(), parallel.discrepancies.size());
  for (std::size_t i = 0; i < serial.discrepancies.size(); ++i) {
    EXPECT_EQ(serial.discrepancies[i].cell, parallel.discrepancies[i].cell);
    EXPECT_EQ(serial.discrepancies[i].present_in,
              parallel.discrepancies[i].present_in);
    EXPECT_EQ(serial.discrepancies[i].absent_in,
              parallel.discrepancies[i].absent_in);
    EXPECT_EQ(serial.discrepancies[i].evidence.count,
              parallel.discrepancies[i].evidence.count);
  }

  // The end-to-end artifact: the report JSON must be byte-identical.
  EXPECT_EQ(detect::to_json(serial.named(), serial.discrepancies),
            detect::to_json(parallel.named(), parallel.discrepancies));
}

TEST(ParallelExecutor, OversubscribedJobsStillMatch) {
  // More workers than scenarios: the merge order must still be canonical.
  const auto serial = mine_ospf(ospf::bird_profile(), small_config(1),
                                mining::ospf_type_scheme());
  const auto parallel = mine_ospf(ospf::bird_profile(), small_config(16),
                                  mining::ospf_type_scheme());
  expect_equal_sets(serial, parallel);
}

TEST(ParallelExecutor, StabilityParallelMatchesSerial) {
  const auto serial = ospf_relation_stability(
      ospf::frr_profile(), small_config(1), mining::ospf_type_scheme());
  const auto parallel = ospf_relation_stability(
      ospf::frr_profile(), small_config(4), mining::ospf_type_scheme());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].direction, parallel[i].direction);
    EXPECT_EQ(serial[i].cell, parallel[i].cell);
    EXPECT_EQ(serial[i].seeds_seen, parallel[i].seeds_seen);
    EXPECT_EQ(serial[i].total_count, parallel[i].total_count);
  }
}

TEST(ParallelExecutor, TdelaySweepParallelMatchesSerial) {
  const std::vector<SimDuration> tds = {0ms, 900ms};
  const auto serial = tdelay_sweep(ospf::frr_profile(), small_config(1), tds,
                                   mining::ospf_type_scheme());
  const auto parallel = tdelay_sweep(ospf::frr_profile(), small_config(4),
                                     tds, mining::ospf_type_scheme());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].tdelay, parallel[i].tdelay);
    // Partial sums accumulate in canonical order on one thread, so even
    // the floating-point ratios must match exactly, not approximately.
    EXPECT_EQ(serial[i].precision, parallel[i].precision);
    EXPECT_EQ(serial[i].recall, parallel[i].recall);
    EXPECT_EQ(serial[i].mined_cells, parallel[i].mined_cells);
    EXPECT_EQ(serial[i].unobserved_cells, parallel[i].unobserved_cells);
    EXPECT_EQ(serial[i].spurious_cells, parallel[i].spurious_cells);
  }
}

TEST(ParallelExecutor, ExecReportListsEveryScenarioCanonically) {
  const std::vector<ospf::BehaviorProfile> impls = {ospf::frr_profile(),
                                                    ospf::bird_profile()};
  const auto config = small_config(4);
  const auto audit = audit_ospf(impls, config, mining::ospf_type_scheme());
  const std::size_t expected =
      impls.size() * config.topologies.size() * config.seeds.size();
  ASSERT_EQ(audit.exec.tasks.size(), expected);
  EXPECT_EQ(audit.exec.tasks_run, expected);
  EXPECT_EQ(audit.exec.jobs, 4u);
  for (std::size_t i = 0; i < audit.exec.tasks.size(); ++i) {
    EXPECT_EQ(audit.exec.tasks[i].index, i);
    EXPECT_FALSE(audit.exec.tasks[i].label.empty());
  }
  // Canonical order is (implementation, topology, seed): frr first.
  EXPECT_EQ(audit.exec.tasks.front().label.rfind("frr/", 0), 0u);
  EXPECT_EQ(audit.exec.tasks.back().label.rfind("bird/", 0), 0u);
  // Telemetry JSON is well-formed enough to name every scenario.
  const auto json = audit.exec.to_json();
  EXPECT_NE(json.find("\"jobs\":4"), std::string::npos);
  EXPECT_NE(json.find(audit.exec.tasks.front().label), std::string::npos);
  // No cache was configured, so the report must not claim one: the
  // "cache" object only appears on cache-enabled runs.
  EXPECT_FALSE(audit.exec.cache_enabled);
  EXPECT_EQ(json.find("\"cache\""), std::string::npos);
}

TEST(ParallelExecutor, RunIndexedReturnsCanonicalOrder) {
  ExecReport report;
  const auto results = run_indexed(
      4, 40, {}, [](std::size_t i) { return i * i; }, report);
  ASSERT_EQ(results.size(), 40u);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i], i * i);
  EXPECT_EQ(report.jobs, 4u);
  EXPECT_EQ(report.tasks_run, 40u);
  EXPECT_EQ(report.tasks.size(), 40u);
}

TEST(ParallelExecutor, RunIndexedRethrowsTheLowestFailingIndex) {
  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    std::vector<std::atomic<int>> ran(64);
    ExecReport report;
    try {
      run_indexed(
          jobs, ran.size(), {},
          [&ran](std::size_t i) {
            ++ran[i];
            if (i == 9 || i == 40)
              throw std::runtime_error("index " + std::to_string(i));
            return i;
          },
          report);
      ADD_FAILURE() << "no exception reached the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 9");
    }
    // A failing index stops no worker: every index still ran, once.
    for (std::size_t i = 0; i < ran.size(); ++i)
      EXPECT_EQ(ran[i].load(), 1) << i;
  }
}

TEST(ParallelExecutor, DefaultJobsFollowTheAffinityMask) {
  // Narrow this thread to one CPU it may already run on: the default
  // width must then be one worker, which is the serial path on the
  // calling thread — so the default can never be slower than --jobs 1.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);

  const std::size_t narrowed = worker_count(0);
  ExecReport report;
  const auto ids = run_indexed(
      0, 8, {}, [](std::size_t) { return std::this_thread::get_id(); },
      report);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);

  EXPECT_EQ(narrowed, 1u);
  EXPECT_EQ(report.jobs, 1u);
  for (const auto id : ids) EXPECT_EQ(id, std::this_thread::get_id());
  EXPECT_EQ(worker_count(0), static_cast<std::size_t>(CPU_COUNT(&saved)));
  EXPECT_EQ(worker_count(3), 3u);
}

TEST(ParallelExecutor, JobsZeroMeansHardware) {
  // jobs 0 is the hardware this process may use: one worker per CPU of its
  // affinity mask, never more than the host has.
  ExecReport report;
  run_indexed(0, 1, {}, [](std::size_t i) { return i; }, report);
  EXPECT_EQ(report.jobs, worker_count(0));
  if (const unsigned hardware = std::thread::hardware_concurrency()) {
    EXPECT_LE(worker_count(0), hardware);
  }
}

// run_indexed's workers are the experiment layer's thread pool; this suite
// holds them to a pool's contract.
TEST(ThreadPool, DefaultWorkerCountIsAtLeastOne) {
  EXPECT_GE(worker_count(0), 1u);
}

TEST(ThreadPool, FuturesCarryResultsBack) {
  std::vector<std::string> labels;
  for (int i = 0; i < 32; ++i) labels.push_back("task-" + std::to_string(i));
  ExecReport report;
  const auto results = run_indexed(
      4, labels.size(), labels,
      [](std::size_t i) { return static_cast<int>(i * i); }, report);
  ASSERT_EQ(results.size(), 32u);
  ASSERT_EQ(report.tasks.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(results[i], i * i);
    EXPECT_EQ(report.tasks[i].label, labels[i]);
  }
}

TEST(ThreadPool, EveryTaskRunsEvenWithOneWorker) {
  std::atomic<int> sum{0};
  ExecReport report;
  run_indexed(
      1, 100, {},
      [&sum](std::size_t i) { return sum += static_cast<int>(i) + 1; },
      report);
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(report.jobs, 1u);
  EXPECT_EQ(report.tasks_run, 100u);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  std::atomic<int> ok{0};
  ExecReport report;
  EXPECT_THROW(run_indexed(
                   2, 2, {},
                   [&ok](std::size_t i) -> int {
                     if (i == 1) throw std::runtime_error("scenario failed");
                     return ok = 7;
                   },
                   report),
               std::runtime_error);
  EXPECT_EQ(ok.load(), 7);
}

TEST(ThreadPool, AnExceptionDoesNotKillTheWorker) {
  // One worker: index 0 throws, and the same worker still runs index 1.
  std::atomic<int> after{0};
  ExecReport report;
  EXPECT_THROW(run_indexed(
                   1, 2, {},
                   [&after](std::size_t i) -> int {
                     if (i == 0) throw std::runtime_error("boom");
                     return after = 42;
                   },
                   report),
               std::runtime_error);
  EXPECT_EQ(after.load(), 42);
}

TEST(ThreadPool, ManyWorkersManyTasks) {
  ExecReport report;
  const auto results = run_indexed(
      8, 200, {}, [](std::size_t i) { return i; }, report);
  std::size_t sum = 0;
  for (const auto r : results) sum += r;
  EXPECT_EQ(sum, 200u * 199u / 2);
  EXPECT_EQ(report.jobs, 8u);
  EXPECT_EQ(report.tasks_run, 200u);
}

TEST(ThreadPool, MoveOnlyResultsWork) {
  ExecReport report;
  const auto results = run_indexed(
      2, 3, {},
      [](std::size_t i) { return std::make_unique<std::size_t>(i + 99); },
      report);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(*results[i], i + 99);
}

TEST(ParallelExecutor, AccumulateRebasesIndices) {
  ExecReport a;
  a.jobs = 2;
  a.tasks_run = 3;
  a.wall_ms = 10;
  a.tasks = {{0, "x", 1}, {1, "y", 2}, {2, "z", 3}};
  ExecReport b;
  b.jobs = 4;
  b.tasks_run = 2;
  b.wall_ms = 5;
  b.tasks = {{0, "p", 4}, {1, "q", 5}};
  a.accumulate(b);
  EXPECT_EQ(a.jobs, 4u);
  EXPECT_EQ(a.tasks_run, 5u);
  EXPECT_EQ(a.wall_ms, 15);
  ASSERT_EQ(a.tasks.size(), 5u);
  EXPECT_EQ(a.tasks[3].index, 3u);
  EXPECT_EQ(a.tasks[3].label, "p");
  EXPECT_EQ(a.tasks[4].index, 4u);
}

}  // namespace
}  // namespace nidkit::harness
